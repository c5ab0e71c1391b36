//! `fabric-sweep`: two `twodprofd --compute` nodes on fresh cache
//! directories. A fresh client runs `RemoteBackend::run_jobs` over the
//! tiny full grid (cold), then a second fresh client runs it again against
//! the nodes' cache tier (warm), after the benchmark has synced the two
//! nodes' caches. The seed only shuffles the job order.

use crate::digest::payload_digest;
use crate::layers;
use crate::proc::Daemon;
use crate::report::{Metric, Outcome};
use crate::spans;
use crate::{Ctx, Tally};
use std::path::PathBuf;
use std::time::Instant;
use twodprof_engine::{
    full_grid, DiskCache, EngineConfig, JobBackend, JobOutput, JobResult, JobSpec, LocalBackend,
};
use twodprof_fabric::{FabricConfig, RemoteBackend};
use twodprof_obs::trace::{attach, collector, Span, TraceContext};
use twodprof_obs::Snapshot;
use twodprof_serve::fetch_stats;
use workloads::{Scale, Xoshiro256};

/// Scale of the grid.
pub const SCALE: Scale = Scale::Tiny;

/// Order-independent digest of `LocalBackend` payloads over
/// `full_grid(SCALE)`; both fabric passes must reproduce it.
pub const DIGEST: u64 = 0xe90e_c012_faef_cdff;

/// Compute nodes in the fabric. Each runs one compute thread, so the
/// nodes together use the two cores of the reference host, as two
/// single-core machines would.
const NODES: usize = 2;

/// The cache directory of node `n` in the set-up of unit `unit`, fresh for
/// each unit; the node creates it. Extra set-ups, whose nodes never see a
/// job, share one per node that stays empty: a fresh one for each of the
/// hundreds of them made the file system ever slower from run to run,
/// and the set-up samples with it.
fn cache_dir(ctx: &Ctx, unit: Option<usize>, n: usize) -> PathBuf {
    let name = unit.map_or_else(|| "cache-extra".to_owned(), |i| format!("cache{i}"));
    node_dir(ctx, n).join(name)
}

/// Node `n`'s log and spill directory, the same in every set-up: a set-up
/// that made directories of its own would mostly time the file system.
fn node_dir(ctx: &Ctx, n: usize) -> PathBuf {
    ctx.work.join(format!("node{n}"))
}

/// The set-up of unit `unit` (`None` for an extra one): `NODES` compute
/// daemons, each on an empty cache directory.
fn setup(ctx: &Ctx, unit: Option<usize>) -> Result<Vec<Daemon>, String> {
    (0..NODES)
        .map(|n| {
            let cache = cache_dir(ctx, unit, n);
            Daemon::spawn(
                &ctx.twodprofd,
                &node_dir(ctx, n),
                &[
                    "--compute",
                    "--compute-threads",
                    "1",
                    "--compute-cache-dir",
                    cache.to_str().expect("utf-8 path"),
                ],
            )
        })
        .collect()
}

/// Copies every result one node's cache tier holds and another lacks, so
/// each node can answer every job of `specs` from its own cache.
///
/// A fresh client's warm pass asks each job's cache of whichever node
/// pulls it, and which node pulls a job depends on timing; unsynced, the
/// warm pass recomputes a varying share of the grid (the traced run
/// reports it as `fabric.cache_hit_ratio` and `fabric.warm_recomputed`).
fn sync_caches(ctx: &Ctx, unit: usize, specs: &[JobSpec]) -> Result<(), String> {
    let caches: Vec<DiskCache> = (0..NODES)
        .map(|n| DiskCache::open(&cache_dir(ctx, Some(unit), n)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    for spec in specs {
        let found: Vec<Option<JobOutput>> = caches.iter().map(|c| c.load(spec)).collect();
        let Some(output) = found.iter().flatten().next() else {
            continue;
        };
        for (cache, held) in caches.iter().zip(&found) {
            if held.is_none() {
                cache
                    .store(spec, output)
                    .map_err(|e| format!("cache sync: {e}"))?;
            }
        }
    }
    Ok(())
}

/// Warm passes per iteration, each by a fresh client. A synced warm pass
/// is all cache hits and takes milliseconds, with a wide spread from pass
/// to pass, so many are timed.
const WARM_REPEATS: usize = 20;

fn shuffled_grid(ctx: &Ctx, iteration: usize) -> Vec<JobSpec> {
    let mut specs = full_grid(SCALE);
    Xoshiro256::seed_from_u64(ctx.seed ^ (iteration as u64).wrapping_mul(0xA076_1D64_78BD_642F))
        .shuffle(&mut specs);
    specs
}

/// One pass by a fresh client; checks every job and the payload digest.
/// The pass is a span named `tag` under `parent` when that is an active
/// trace, and the client's own spans nest under it.
fn pass(
    ctx: &Ctx,
    nodes: &[Daemon],
    specs: &[JobSpec],
    tally: &mut Tally,
    parent: TraceContext,
    tag: &'static str,
) -> f64 {
    let client = RemoteBackend::new(FabricConfig {
        nodes: nodes.iter().map(|d| d.addr.clone()).collect(),
        fallback: EngineConfig {
            jobs: ctx.nproc,
            cache_dir: None,
            ..EngineConfig::default()
        },
        quiet: true,
        ..FabricConfig::default()
    });
    let t = Instant::now();
    let results = {
        let sp = spans::child(parent, tag);
        let _ctx = sp.as_ref().map(|sp| attach(sp.context()));
        client.run_jobs(specs)
    };
    let wall = t.elapsed().as_secs_f64();
    check(&results, tally, tag);
    wall
}

fn check(results: &[JobResult], tally: &mut Tally, what: &str) {
    tally.ops(results.len() as u64);
    tally.fail(results.iter().filter(|r| !r.status.is_success()).count() as u64);
    let payloads: Vec<(u64, Vec<u8>)> = results
        .iter()
        .filter_map(|r| Some((r.spec.content_hash(), r.output.as_ref()?.to_payload())))
        .collect();
    let digest = payload_digest(payloads.iter().map(|(h, p)| (*h, p.as_slice())));
    tally.check(
        digest == DIGEST,
        format_args!("fabric {what} digest {digest:#018x}, expected {DIGEST:#018x}"),
    );
}

/// The end-to-end run: iterations of set-up, cold pass, warm passes.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (mut cold, mut warm, mut peak_mb) = (vec![], vec![], vec![]);
    let setups = crate::repeat_within(
        ctx,
        |unit| setup(ctx, unit),
        |i, nodes, _| {
            let t = Instant::now();
            let specs = shuffled_grid(ctx, i);
            let none = TraceContext::NONE;
            cold.push(pass(ctx, &nodes, &specs, &mut tally, none, "cold"));
            sync_caches(ctx, i, &specs)?;
            for _ in 0..WARM_REPEATS {
                warm.push(pass(ctx, &nodes, &specs, &mut tally, none, "warm"));
            }
            peak_mb.push(nodes.iter().map(Daemon::peak_rss_kib).sum::<u64>() as f64 / 1024.0);
            Ok(t.elapsed())
        },
    )?;
    Ok(tally.finish(vec![
        Metric::median("setup_s", "s", &setups),
        Metric::median("wall_s", "s", &cold),
        Metric::median("warm_wall_s", "s", &warm),
        Metric::median("peak_rss_mb", "MB", &peak_mb),
    ]))
}

/// Each node's metrics snapshot.
fn node_stats(nodes: &[Daemon]) -> Result<Vec<Snapshot>, String> {
    nodes
        .iter()
        .map(|d| fetch_stats(&d.addr).map_err(|e| format!("stats from {}: {e}", d.addr)))
        .collect()
}

fn local_counter(name: &str) -> u64 {
    twodprof_obs::global().snapshot().counter(name).unwrap_or(0)
}

/// The traced run: the `LocalBackend` pass the committed digest comes
/// from, an untraced cold pass for the base wall time, then a traced cold
/// and warm pass with the client's in-process spans, plus the fabric
/// counters of both sides.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let specs = shuffled_grid(ctx, 0);
    let local = LocalBackend::new(EngineConfig {
        jobs: ctx.nproc,
        cache_dir: None,
        ..EngineConfig::default()
    });
    check(&local.run_jobs(&specs), &mut tally, "LocalBackend");
    drop(local);
    let nodes = setup(ctx, Some(0))?;
    let base = pass(ctx, &nodes, &specs, &mut tally, TraceContext::NONE, "base");
    drop(nodes);
    drop(collector().drain());

    let nodes = setup(ctx, Some(1))?;
    let requeued0 = local_counter("fabric_jobs_requeued_total");
    let rejected0 = local_counter("fabric_payload_rejected_total");
    let root = Span::child_of(TraceContext::NONE, "bench.fabric");
    let traced = root.context();
    let cold = pass(ctx, &nodes, &specs, &mut tally, traced, "bench.fabric.cold");
    let per_node: Vec<u64> = node_stats(&nodes)?
        .iter()
        .map(|s| s.counter("fabric_jobs_completed_total").unwrap_or(0))
        .collect();
    // the nodes' engines record one job-time sample per computed job
    let computed = || -> Result<u64, String> {
        Ok(node_stats(&nodes)?
            .iter()
            .filter_map(|s| s.histogram("engine_job_micros"))
            .map(|h| h.count())
            .sum())
    };
    let computed_cold = computed()?;
    let hits0 = local_counter("fabric_remote_cache_hits_total");
    pass(
        ctx,
        &nodes,
        &specs,
        &mut tally,
        traced,
        "bench.fabric.unsynced_warm",
    );
    let hits = local_counter("fabric_remote_cache_hits_total") - hits0;
    let warm_recomputed = computed()? - computed_cold;
    sync_caches(ctx, 1, &specs)?;
    pass(ctx, &nodes, &specs, &mut tally, traced, "bench.fabric.warm");
    let trace = root.trace();
    drop(root);

    let all = collector().collect_trace(trace);
    let by_name = spans::summarize(&all);
    spans::write_chrome(&ctx.trace_out, &[("perfbench", &all)])?;
    let mut m = vec![
        Metric::value("fabric.warm_recomputed", "count", warm_recomputed as f64),
        Metric::value(
            "fabric.cache_hit_ratio",
            "ratio",
            hits as f64 / specs.len() as f64,
        ),
        Metric::value(
            "fabric.requeued",
            "count",
            (local_counter("fabric_jobs_requeued_total") - requeued0) as f64,
        ),
        Metric::value(
            "fabric.payload_rejected",
            "count",
            (local_counter("fabric_payload_rejected_total") - rejected0) as f64,
        ),
        Metric::value(
            "fabric.jobs_per_node.max",
            "count",
            per_node.iter().copied().max().unwrap_or(0) as f64,
        ),
        Metric::value(
            "fabric.jobs_per_node.min",
            "count",
            per_node.iter().copied().min().unwrap_or(0) as f64,
        ),
        Metric::value("obs.trace_overhead_frac", "ratio", cold / base - 1.0),
        Metric::value("obs.span_count", "count", all.len() as f64),
    ];
    m.extend(layers::measure(&crate::train_inputs(&workloads::suite(
        SCALE,
    ))));
    crate::print_span_summary(&by_name);
    Ok(tally.finish(m))
}
