//! `perfbench` — the repository's benchmark. It drives the shipped
//! binaries (`repro`, `twodprofd`) and the public library calls, checks
//! every output, and prints the end-to-end metrics (untraced run) or the
//! per-layer metrics (traced run). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --bin-dir DIR --work-dir DIR --trace-dir DIR
//! ```

mod digest;
mod fabric;
mod ingest;
mod layers;
mod loadgen;
mod proc;
mod report;
mod repro_all;
mod spans;
mod stats;

use report::{Metric, Outcome};
use spans::NameStats;
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::Workload;

/// Everything a workload run needs.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// The `repro` binary.
    pub repro: PathBuf,
    /// The `twodprofd` binary.
    pub twodprofd: PathBuf,
    /// Working directory for this run.
    pub work: PathBuf,
    /// Load-generator threads and connections: the host's core count.
    pub nproc: usize,
    /// When the run started; set-ups and passes share `seconds` from here.
    pub start: Instant,
    /// Where a traced run writes its spans.
    pub trace_out: PathBuf,
}

/// Prints the per-name span summary lines of a traced run.
fn print_span_summary(by_name: &BTreeMap<String, NameStats>) {
    for (name, s) in by_name {
        println!(
            "# span {name:<32} count {:>8} total_s {:>12.6} self_s {:>12.6}",
            s.count,
            s.total_us as f64 / 1e6,
            s.self_us as f64 / 1e6
        );
    }
}

/// Operations attempted and failed, output checks included.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` of the attempted operations as failed.
    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }

    /// Counts one output check; logs it on stderr if it failed.
    pub fn check(&mut self, ok: bool, what: fmt::Arguments<'_>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// The outcome with these counts and `metrics`.
    pub fn finish(self, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            notes: Vec::new(),
        }
    }
}

/// Share of the run spent timing set-ups, spread over the run.
const SETUP_SHARE: f64 = 0.05;
/// Fewest set-up samples per run.
const MIN_SETUPS: usize = 9;
/// Shortest set-up sample. Set-ups shorter than this are made and dropped
/// back to back until it has passed, and the sample is their mean: the
/// reference host switches between a fast and a slow speed every second
/// or so, and a sample that spans several switches reads their blend
/// rather than one of the two.
const SAMPLE_SPAN: Duration = Duration::from_millis(250);

/// Runs the workload's unit — `unit(i, setup(Some(i)), room)` — while one
/// more unit would still fit, at least once. `room` is how long units may
/// still take so that the run, with the set-ups' share added, ends within
/// `ctx.seconds` of its start; each unit returns how long the next one is
/// expected to take (most return their own time). Returns set-up time
/// samples, for a median `setup_s`.
///
/// Every unit's own set-up is one sample. Before each unit, and after the
/// last, extra samples of set-ups made and dropped at once are taken until
/// set-ups have taken `SETUP_SHARE` of the run so far, and there are at
/// least `MIN_SETUPS` samples at the end, from `setup(None)`. The samples
/// so come from the whole run and see the same host as the passes do.
fn repeat_within<T>(
    ctx: &Ctx,
    mut setup: impl FnMut(Option<usize>) -> Result<T, String>,
    mut unit: impl FnMut(usize, T, Duration) -> Result<Duration, String>,
) -> Result<Vec<f64>, String> {
    let mut samples: Vec<f64> = Vec::new();
    let mut spent = Duration::ZERO;
    let mut timed = |spent: &mut Duration, unit: Option<usize>| -> Result<T, String> {
        let t = Instant::now();
        let made = setup(unit)?;
        *spent += t.elapsed();
        Ok(made)
    };
    let owed =
        |spent: Duration| spent.as_secs_f64() < SETUP_SHARE * ctx.start.elapsed().as_secs_f64();
    // time left for units, with `spent` of the run's time in set-ups so far
    // and `setups` by the end of the next unit's own set-up
    let room = |spent: Duration, setups: Duration| {
        let total = Duration::from_secs_f64(ctx.seconds);
        let cap = total
            .mul_f64(1.0 - SETUP_SHARE)
            .min(total.saturating_sub(setups));
        cap.saturating_sub(ctx.start.elapsed().saturating_sub(spent))
    };
    for i in 0.. {
        while owed(spent) {
            extra_sample(&mut timed, &mut samples, &mut spent)?;
        }
        let before = spent;
        let made = timed(&mut spent, Some(i))?;
        let setup_time = spent - before;
        samples.push(setup_time.as_secs_f64());
        let next = unit(i, made, room(spent, spent))?;
        if next > room(spent, spent + setup_time) {
            break;
        }
    }
    while samples.len() < MIN_SETUPS || owed(spent) {
        extra_sample(&mut timed, &mut samples, &mut spent)?;
    }
    Ok(samples)
}

/// One sample of set-ups made by `timed` and dropped at once, back to
/// back for at least `SAMPLE_SPAN`: their mean time.
fn extra_sample<T>(
    timed: &mut impl FnMut(&mut Duration, Option<usize>) -> Result<T, String>,
    samples: &mut Vec<f64>,
    spent: &mut Duration,
) -> Result<(), String> {
    let (start, mut n) = (*spent, 0u32);
    while n == 0 || *spent - start < SAMPLE_SPAN {
        drop(timed(spent, None)?);
        n += 1;
    }
    samples.push((*spent - start).as_secs_f64() / f64::from(n));
    Ok(())
}

/// The workloads, with the scale each runs at.
const WORKLOADS: [(&str, &str); 3] = [
    ("repro-all", "tiny"),
    ("ingest", "small"),
    ("fabric-sweep", "tiny"),
];

/// End-to-end metrics of every workload, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The engine spans whose self time is reported.
const ENGINE_SPANS: [&str; 7] = [
    "record",
    "decode",
    "replay",
    "fused_chunk",
    "bitslice",
    "cache_write",
    "probe",
];

/// Per-layer metrics of every workload, as `BENCHMARK.json` lists them.
/// A layer a workload does not reach reports 0: no work, no time.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit| m.push((name.to_owned(), unit));
    add("workloads.gen_ns_per_event", "ns");
    add("btrace.record_ns_per_event", "ns");
    add("btrace.decode_ns_per_event", "ns");
    add("btrace.bytes_per_event", "B");
    add("btrace.serde_mb_per_s", "MB/s");
    for kind in bpred::PredictorKind::SURVEY {
        add(&format!("bpred.sim_ns_per_event.{}", kind.id()), "ns");
    }
    add("bpred.bitslice_ns_per_event", "ns");
    add("core.twod_ns_per_event", "ns");
    add("core.fold_ns_per_event", "ns");
    add("core.finish_us", "us");
    add("engine.sweep_s", "s");
    for c in [
        "jobs_computed",
        "jobs_cached",
        "memo_hits",
        "trace_records",
        "bitslice_jobs",
    ] {
        add(&format!("engine.{c}"), "count");
    }
    add("engine.lane_share", "ratio");
    for span in ENGINE_SPANS {
        add(&format!("engine.self_s.{span}"), "s");
    }
    for a in repro_all::ARTIFACTS {
        add(&format!("experiments.{a}_s"), "s");
    }
    add("context.prewarm_s", "s");
    add("context.resolve_s", "s");
    add("context.resolve_count", "count");
    add("repro.cpu_util", "ratio");
    add("repro.unattributed_s", "s");
    add("serve.hello_ms", "ms");
    add("serve.send_ns_per_event", "ns");
    add("serve.finish_ms", "ms");
    add("serve.resim_ms", "ms");
    for c in [
        "admit_accepted",
        "admit_degraded",
        "admit_shed",
        "frame_decode_errors",
        "sessions_aborted",
        "spill_segments",
    ] {
        add(&format!("serve.{c}"), "count");
    }
    add("serve.shard_tick_p99_us", "us");
    add("stream.fold_ns_per_event", "ns");
    add("stream.windows_folded", "count");
    add("stream.fold_us", "us");
    add("fabric.cache_hit_ratio", "ratio");
    add("fabric.warm_recomputed", "count");
    add("fabric.requeued", "count");
    add("fabric.payload_rejected", "count");
    add("fabric.jobs_per_node.max", "count");
    add("fabric.jobs_per_node.min", "count");
    add("obs.trace_overhead_frac", "ratio");
    add("obs.span_count", "count");
    add("ingest.events_per_s", "1/s");
    add("ingest.session_p50_ms", "ms");
    add("ingest.session_p99_ms", "ms");
    add("loadgen.late_p99_ms", "ms");
    m
}

/// Self time of each engine span, in seconds.
fn engine_self_times(by_name: &BTreeMap<String, NameStats>) -> Vec<Metric> {
    ENGINE_SPANS
        .iter()
        .map(|s| {
            let self_us = by_name.get(&format!("engine.{s}")).map_or(0, |n| n.self_us);
            Metric::value(format!("engine.self_s.{s}"), "s", self_us as f64 / 1e6)
        })
        .collect()
}

/// Each workload's `train` input: the inputs layer costs are timed over.
fn train_inputs(suite: &[Box<dyn Workload>]) -> Vec<layers::LayerInput<'_>> {
    suite
        .iter()
        .map(|w| layers::LayerInput {
            workload: w.as_ref(),
            input: w.input_sets().swap_remove(0),
            streams: true,
        })
        .collect()
}

/// Orders `outcome.metrics` as `expected` lists them, filling names the
/// workload does not reach with 0; a measured name outside the list is a
/// bug in the benchmark.
fn complete(outcome: &mut Outcome, expected: &[(String, &'static str)]) -> Result<(), String> {
    let mut measured: BTreeMap<String, Metric> = BTreeMap::new();
    for m in outcome.metrics.drain(..) {
        measured.insert(m.name.clone(), m);
    }
    for (name, unit) in expected {
        let m = measured
            .remove(name)
            .unwrap_or_else(|| Metric::value(name.clone(), unit, 0.0));
        if m.unit != *unit {
            return Err(format!(
                "metric {name} measured in {}, listed in {unit}",
                m.unit
            ));
        }
        outcome.metrics.push(m);
    }
    match measured.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not in the metric list")),
        None => Ok(()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut bin_dir, mut work_dir, mut trace_dir) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed: bad seed {value:?}"))?,
                )
            }
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--trace-dir" => trace_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        trace_dir: trace_dir.ok_or("--trace-dir is required")?,
    })
}

/// First line of a command's stdout, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn provenance(args: &Args, nproc: usize, scale: &str) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"workload\": {}, \"scale\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        quote(&cpu),
        quote(&command_line("rustc", &["--version"])),
        quote(&command_line("git", &["rev-parse", "HEAD"])),
        quote(&args.workload),
        quote(scale),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scale = WORKLOADS
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or("tiny", |(_, s)| s);
    println!("# provenance {}", provenance(args, nproc, scale));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        repro: args.bin_dir.join("repro"),
        twodprofd: args.bin_dir.join("twodprofd"),
        work: proc::fresh_dir(&args.work_dir)?,
        nproc,
        start: Instant::now(),
        trace_out: args
            .trace_dir
            .join(format!("{}-seed{}.json", args.workload, args.seed)),
    };
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("repro-all", false) => repro_all::run(&ctx)?,
        ("repro-all", true) => repro_all::run_traced(&ctx)?,
        ("ingest", false) => ingest::run(&ctx)?,
        ("ingest", true) => ingest::run_traced(&ctx)?,
        ("fabric-sweep", false) => fabric::run(&ctx)?,
        ("fabric-sweep", true) => fabric::run_traced(&ctx)?,
        (other, _) => return Err(format!("unknown workload {other:?}")),
    };
    let expected: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), *u))
            .collect()
    };
    complete(&mut outcome, &expected)?;
    Ok(outcome)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result.and_then(|o| Ok((report::render_text(&o), report::render_json(&o)?))) {
        Ok((text, json)) => {
            print!("{text}");
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"`/`"unit"` pairs of one list in `BENCHMARK.json`, in
    /// order (the lists hold flat objects, so the list ends at the first
    /// `]` after its key).
    fn listed(doc: &str, key: &str) -> Vec<(String, String)> {
        let start = doc.find(&format!("\"{key}\"")).expect("list key");
        let body = &doc[start..start + doc[start..].find(']').expect("list end")];
        let field = |obj: &str, k: &str| -> String {
            let from = obj.find(&format!("\"{k}\": \"")).map(|i| i + k.len() + 5);
            from.map_or_else(String::new, |i| {
                obj[i..i + obj[i..].find('"').unwrap()].to_owned()
            })
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|(w, _)| (*w).to_owned()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn unreached_layers_read_zero_and_unknown_names_are_rejected() {
        let expected = vec![("a".to_owned(), "s"), ("b".to_owned(), "count")];
        let mut o = Outcome {
            attempted: 1,
            failed: 0,
            metrics: vec![Metric::value("b", "count", 3.0)],
            notes: Vec::new(),
        };
        complete(&mut o, &expected).expect("complete");
        let got: Vec<(String, f64)> = o
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value))
            .collect();
        assert_eq!(got, [("a".to_owned(), 0.0), ("b".to_owned(), 3.0)]);
        o.metrics.push(Metric::value("c", "s", 1.0));
        assert!(complete(&mut o, &expected).is_err());
    }
}
