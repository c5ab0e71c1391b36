//! `ingest`: a `twodprofd` child serving independent profiled programs.
//! Each session streams one whole program run that set-up recorded: every
//! suite program at small scale on its `train` input, so session lengths
//! come from the programs themselves. The seed orders the sessions and
//! draws phase 2's schedule; it leaves the inputs' data seeds alone, since
//! crafty's run alone ranges from 7.2 M to 9.7 M events over data seeds,
//! which would make the work of a pass depend on the seed. A session
//! either just profiles its stream, joins a streaming program (`Hello`
//! program name), or sends `Resim` before `Finish`. Phase 1, which the
//! end-to-end run times, is a closed loop of back-to-back sessions;
//! phase 2, timed in the traced run, an open loop on a fixed seeded
//! arrival schedule. Every report is checked against an in-process
//! reference.

use crate::layers::{self, LayerInput};
use crate::loadgen::{arrivals, open_loop, WallClock};
use crate::proc::{fresh_dir, Daemon};
use crate::report::{Metric, Outcome};
use crate::spans;
use crate::{Ctx, Tally};
use bpred::PredictorKind;
use btrace::{SiteId, Tracer};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
use twodprof_obs::trace::{collector, ExportSpan, Span, TraceContext};
use twodprof_obs::Snapshot;
use twodprof_serve::{fetch_stats, fetch_trace, ClientError, ConnectOptions, TraceLink};
use workloads::{InputSet, Scale, Workload, Xoshiro256};

/// Scale of the recorded program runs.
const SCALE: Scale = Scale::Small;
/// Events per `Events` frame.
const BATCH: usize = 4096;

/// What a session does besides streaming its events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Role {
    /// Profiles its stream and finishes.
    Plain,
    /// Also joins the streaming program named after its workload.
    Program,
    /// Asks for a re-simulation under `RESIM_KIND` before finishing.
    Resim,
}

/// Every role, once. Each role is a third of the sessions: the repository
/// records no mix of real traffic, so this even split is an assumption.
/// Roles rotate by pass rather than by seed, so every seed's passes do the
/// same work.
const ROLES: [Role; 3] = [Role::Plain, Role::Program, Role::Resim];
/// The predictor `Resim` sessions ask for; fixed for the same reason.
const RESIM_KIND: PredictorKind = PredictorKind::Gshare1Kb;
/// Phase-2 sessions: enough for a p99 with ten samples beyond it.
const OPEN_SESSIONS: usize = 1000;
/// Phase-2 arrival rate, sessions per second: about half of what the
/// closed loop sustains on two connections.
const OPEN_RATE: f64 = 15.0;
/// Phase-1 passes on the same daemon after its cold pass: with it, every
/// recorded run has had every role on every connection.
const WARM_PASSES: usize = ROLES.len() - 1;

/// A recorded program run with its reference reports.
struct Stream {
    workload: Box<dyn Workload>,
    input: InputSet,
    events: Vec<(SiteId, bool)>,
    /// `finish()` report of the session's own 4 KB gshare profile.
    report: Vec<u8>,
    /// Report of a `Resim` under `RESIM_KIND`.
    resim_report: Vec<u8>,
}

/// Collects every event of a run.
struct Collect(Vec<(SiteId, bool)>);

impl Tracer for Collect {
    fn branch(&mut self, site: SiteId, taken: bool) {
        self.0.push((site, taken));
    }
}

/// The in-process reference a session's report must equal.
fn reference(sites: usize, events: &[(SiteId, bool)], kind: PredictorKind) -> Vec<u8> {
    let mut profiler = TwoDProfiler::new(sites, kind.build(), slice_for(events.len()));
    for &(site, taken) in events {
        profiler.branch(site, taken);
    }
    profiler.finish(Thresholds::paper()).to_bytes()
}

fn slice_for(len: usize) -> SliceConfig {
    SliceConfig::auto(len as u64)
}

/// Everything a set-up makes: the recorded runs with their references,
/// and a fresh daemon.
struct Setup {
    streams: Vec<Stream>,
    daemon: Daemon,
}

/// Records one whole run of every suite program on its `train` input,
/// computes the references, and starts a daemon.
fn setup(ctx: &Ctx, dir: &Path) -> Result<Setup, String> {
    let streams = workloads::suite(SCALE)
        .into_iter()
        .map(|workload| {
            let input = workload.input_sets().swap_remove(0);
            let mut collect = Collect(Vec::new());
            workload.run(&input, &mut collect);
            let sites = workload.sites().len();
            let events = collect.0;
            Stream {
                report: reference(sites, &events, PredictorKind::Gshare4Kb),
                resim_report: reference(sites, &events, RESIM_KIND),
                workload,
                input,
                events,
            }
        })
        .collect();
    let daemon = Daemon::spawn(&ctx.twodprofd, &fresh_dir(dir)?, &[])?;
    Ok(Setup { streams, daemon })
}

/// One session: a recorded run and what the session does with it.
type Slot = (usize, Role);

/// Every recorded run in every role: what phase 2 draws from.
fn slots(st: &Setup) -> Vec<Slot> {
    (0..st.streams.len())
        .flat_map(|s| ROLES.map(|r| (s, r)))
        .collect()
}

/// Client-side timings of one session.
#[derive(Default)]
struct SessionTimes {
    hello_s: f64,
    send_s: f64,
    resim_s: Option<f64>,
    finish_s: f64,
    events: u64,
}

/// Runs one session; `Ok(false)` when a report differs from its
/// reference. When `links` is given the session is traced: its spans are
/// a trace of their own, and its link to the daemon's clock is kept.
fn session(
    st: &Setup,
    (stream, role): Slot,
    links: Option<&Mutex<Vec<TraceLink>>>,
    out: &Mutex<Vec<SessionTimes>>,
) -> Result<bool, ClientError> {
    let stream = &st.streams[stream];
    let events = &stream.events;
    let root = links.map(|_| Span::child_of(TraceContext::NONE, "bench.session"));
    let parent = spans::context(&root);
    let mut opts = ConnectOptions::new(
        stream.workload.sites().len(),
        PredictorKind::Gshare4Kb,
        slice_for(events.len()),
    )
    .io_timeout(Duration::from_secs(60));
    if role == Role::Program {
        opts = opts.program(stream.workload.name());
    }
    if parent.is_active() {
        opts = opts.traced(parent);
    }
    let mut times = SessionTimes {
        events: events.len() as u64,
        ..SessionTimes::default()
    };
    let t = Instant::now();
    let mut session = {
        let _sp = spans::child(parent, "bench.hello");
        opts.connect(&st.daemon.addr)?
    };
    times.hello_s = t.elapsed().as_secs_f64();
    if let (Some(links), Some(link)) = (links, session.trace_link()) {
        links.lock().expect("link table poisoned").push(link);
    }
    let t = Instant::now();
    {
        let _sp = spans::child(parent, "bench.send");
        for batch in events.chunks(BATCH) {
            session.send_events(batch)?;
        }
        session.flush()?;
    }
    times.send_s = t.elapsed().as_secs_f64();
    let mut ok = true;
    if role == Role::Resim {
        let t = Instant::now();
        let report = {
            let _sp = spans::child(parent, "bench.resim");
            session.resimulate(RESIM_KIND)?
        };
        times.resim_s = Some(t.elapsed().as_secs_f64());
        ok &= report.bytes() == stream.resim_report.as_slice();
    }
    let t = Instant::now();
    let report = {
        let _sp = spans::child(parent, "bench.finish");
        session.finish()?
    };
    times.finish_s = t.elapsed().as_secs_f64();
    ok &= report.bytes() == stream.report.as_slice();
    out.lock().expect("timing table poisoned").push(times);
    Ok(ok)
}

/// Counts one session's result in `failures`; true on success.
fn settle(result: Result<bool, ClientError>, failures: &AtomicU64) -> bool {
    match result {
        Ok(true) => true,
        Ok(false) => {
            eprintln!("ingest: a session report differs from its in-process reference");
            failures.fetch_add(1, Ordering::Relaxed);
            false
        }
        Err(e) => {
            eprintln!("ingest: session failed: {e}");
            failures.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Phase-1 pass number `pass`: each of `nproc` connections runs every
/// recorded run once, back to back, all in the same seeded order; on
/// connection `c`, run `s` has role `ROLES[(s + c + pass) % 3]`. What each
/// connection sends does not depend on the seed, so neither does the
/// pass's wall time, whichever session happens to come last; and the
/// connections stay roughly in step, so the same runs overlap in every
/// seed and the daemon's peak memory does not hang on chance overlaps of
/// the long runs. Returns the pass wall time.
fn closed_pass(
    ctx: &Ctx,
    st: &Setup,
    pass: usize,
    rng: &mut Xoshiro256,
    tally: &mut Tally,
    links: Option<&Mutex<Vec<TraceLink>>>,
    times: &Mutex<Vec<SessionTimes>>,
) -> f64 {
    let mut order: Vec<usize> = (0..st.streams.len()).collect();
    rng.shuffle(&mut order);
    let orders: Vec<Vec<Slot>> = (0..ctx.nproc)
        .map(|c| {
            order
                .iter()
                .map(|&s| (s, ROLES[(s + c + pass) % ROLES.len()]))
                .collect()
        })
        .collect();
    let failures = AtomicU64::new(0);
    let t = Instant::now();
    std::thread::scope(|scope| {
        for order in &orders {
            let failures = &failures;
            scope.spawn(move || {
                for &slot in order {
                    settle(session(st, slot, links, times), failures);
                }
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    tally.ops(orders.iter().map(Vec::len).sum::<usize>() as u64);
    tally.fail(failures.into_inner());
    wall
}

/// Phase-2 results.
struct OpenLoop {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

/// Phase 2: `OPEN_SESSIONS` sessions, each a seeded slot, due on a seeded
/// Poisson schedule.
fn open_phase(ctx: &Ctx, st: &Setup, rng: &mut Xoshiro256, tally: &mut Tally) -> OpenLoop {
    let due = arrivals(rng, OPEN_RATE, OPEN_SESSIONS);
    let all = slots(st);
    let picks: Vec<Slot> = (0..OPEN_SESSIONS).map(|_| *rng.pick(&all)).collect();
    let failures = AtomicU64::new(0);
    let times = Mutex::new(Vec::new());
    let timings = open_loop(&due, ctx.nproc, &WallClock::start(), |i| {
        settle(session(st, picks[i], None, &times), &failures)
    });
    tally.ops(OPEN_SESSIONS as u64);
    tally.fail(failures.into_inner());
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    OpenLoop {
        latency_ms: timings.iter().map(|t| ms(t.latency())).collect(),
        late_ms: timings.iter().map(|t| ms(t.lateness())).collect(),
    }
}

fn events_per_s(times: &[SessionTimes], wall_s: f64) -> f64 {
    times.iter().map(|t| t.events).sum::<u64>() as f64 / wall_s
}

/// The end-to-end run: iterations of set-up, a cold pass on the fresh
/// daemon and warm passes on the same daemon.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut rng = Xoshiro256::seed_from_u64(ctx.seed);
    let (mut cold, mut warm, mut peak_mb) = (vec![], vec![], vec![]);
    let times = Mutex::new(Vec::new());
    let setups = crate::repeat_within(
        ctx,
        |unit| {
            let name = unit.map_or_else(|| "extra".to_owned(), |i| format!("unit{i}"));
            setup(ctx, &ctx.work.join(name))
        },
        |_, st, _| {
            let t = Instant::now();
            cold.push(closed_pass(ctx, &st, 0, &mut rng, &mut tally, None, &times));
            for pass in 1..=WARM_PASSES {
                warm.push(closed_pass(
                    ctx, &st, pass, &mut rng, &mut tally, None, &times,
                ));
            }
            peak_mb.push(st.daemon.peak_rss_kib() as f64 / 1024.0);
            Ok(t.elapsed())
        },
    )?;
    let phase1_s: f64 = cold.iter().chain(&warm).sum();
    let times = times.into_inner().expect("timing table poisoned");
    let mut outcome = tally.finish(vec![
        Metric::median("setup_s", "s", &setups),
        Metric::median("wall_s", "s", &cold),
        Metric::median("warm_wall_s", "s", &warm),
        Metric::median("peak_rss_mb", "MB", &peak_mb),
    ]);
    outcome.notes = vec![Metric::value(
        "ingest_events_per_s",
        "1/s",
        events_per_s(&times, phase1_s),
    )];
    Ok(outcome)
}

/// Sums a histogram family's buckets and returns the upper bound of the
/// bucket holding the 99th percentile sample (0 without samples).
fn p99_upper_bound(snapshot: &Snapshot, prefix: &str, suffix: &str) -> f64 {
    let mut buckets: Vec<u64> = Vec::new();
    for (name, _, h) in &snapshot.histograms {
        if name.starts_with(prefix) && name.ends_with(suffix) {
            buckets.resize(buckets.len().max(h.buckets.len()), 0);
            for (b, c) in buckets.iter_mut().zip(&h.buckets) {
                *b += c;
            }
        }
    }
    let total: u64 = buckets.iter().sum();
    let mut seen = 0;
    for (i, c) in buckets.iter().enumerate() {
        seen += c;
        if total > 0 && seen * 100 >= total * 99 {
            // bucket i holds values in [2^(i-1), 2^i)
            return ((1u64 << i) - 1) as f64;
        }
    }
    0.0
}

/// The traced run: an untraced set-up with a cold pass (the base wall
/// time) and phase 2 (latency, generator lateness, daemon counters); then
/// a traced cold pass on a fresh daemon, whose spans are fetched back per
/// session; then the layer costs over the recorded streams.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut rng = Xoshiro256::seed_from_u64(ctx.seed);
    let times = Mutex::new(Vec::new());
    let st = setup(ctx, &ctx.work.join("untraced"))?;
    let base = closed_pass(ctx, &st, 0, &mut rng, &mut tally, None, &times);
    let open = open_phase(ctx, &st, &mut rng, &mut tally);
    let stats = fetch_stats(&st.daemon.addr).map_err(|e| format!("stats: {e}"))?;
    drop(st);

    let st = setup(ctx, &ctx.work.join("traced"))?;
    let links = Mutex::new(Vec::new());
    let traced_times = Mutex::new(Vec::new());
    let mut rng_traced = Xoshiro256::seed_from_u64(ctx.seed);
    drop(collector().drain());
    let traced = closed_pass(
        ctx,
        &st,
        0,
        &mut rng_traced,
        &mut tally,
        Some(&links),
        &traced_times,
    );
    let links = links.into_inner().expect("link table poisoned");
    let mut own: Vec<ExportSpan> = Vec::new();
    // daemon spans, moved onto this process's clock so they nest under
    // the benchmark's session spans
    let mut daemon: Vec<ExportSpan> = Vec::new();
    for link in &links {
        own.extend(collector().collect_trace(link.trace));
        let remote = fetch_trace(&st.daemon.addr, link.trace).map_err(|e| format!("trace: {e}"))?;
        daemon.extend(remote.into_iter().map(|s| ExportSpan {
            start_us: link.map_us(s.start_us),
            ..s
        }));
    }
    spans::write_chrome(
        &ctx.trace_out,
        &[("perfbench", &own), ("twodprofd", &daemon)],
    )?;
    let span_count = own.len() + daemon.len();
    let by_name = spans::summarize(&[own, daemon].concat());

    let times = times.into_inner().expect("timing table poisoned");
    let col = |f: &dyn Fn(&SessionTimes) -> Option<f64>| -> Vec<f64> {
        times.iter().filter_map(f).collect()
    };
    let counter = |name: &str| stats.counter(name).unwrap_or(0) as f64;
    let fold_us = stats
        .histogram("stream_fold_micros")
        .map_or(0.0, |h| h.sum as f64);
    let sent: f64 = times.iter().map(|t| t.events as f64).sum();
    let send_s: f64 = times.iter().map(|t| t.send_s).sum();
    let mut m = vec![
        Metric::median("serve.hello_ms", "ms", &col(&|t| Some(t.hello_s * 1e3))),
        Metric::value("serve.send_ns_per_event", "ns", send_s * 1e9 / sent),
        Metric::median("serve.finish_ms", "ms", &col(&|t| Some(t.finish_s * 1e3))),
        Metric::median(
            "serve.resim_ms",
            "ms",
            &col(&|t| t.resim_s.map(|s| s * 1e3)),
        ),
        Metric::value(
            "serve.admit_accepted",
            "count",
            counter("serve_admit_accept_total"),
        ),
        Metric::value(
            "serve.admit_degraded",
            "count",
            counter("serve_admit_degrade_total"),
        ),
        Metric::value(
            "serve.admit_shed",
            "count",
            counter("serve_admit_shed_total"),
        ),
        Metric::value(
            "serve.frame_decode_errors",
            "count",
            counter("serve_frame_decode_errors_total"),
        ),
        Metric::value(
            "serve.sessions_aborted",
            "count",
            counter("serve_sessions_aborted_total"),
        ),
        Metric::value(
            "serve.spill_segments",
            "count",
            counter("serve_spill_segments_total"),
        ),
        Metric::value(
            "serve.shard_tick_p99_us",
            "us",
            p99_upper_bound(&stats, "serve_shard", "_tick_micros"),
        ),
        Metric::value(
            "stream.windows_folded",
            "count",
            counter("stream_windows_folded_total"),
        ),
        Metric::value("stream.fold_us", "us", fold_us),
        Metric::value("ingest.events_per_s", "1/s", events_per_s(&times, base)),
        Metric::median("ingest.session_p50_ms", "ms", &open.latency_ms),
        Metric::tail("ingest.session_p99_ms", "ms", &open.latency_ms),
        Metric::tail("loadgen.late_p99_ms", "ms", &open.late_ms),
        Metric::value("obs.trace_overhead_frac", "ratio", traced / base - 1.0),
        Metric::value("obs.span_count", "count", span_count as f64),
    ];
    // every recorded run joins a streaming program in its `Program` role
    let inputs: Vec<LayerInput> = st
        .streams
        .iter()
        .map(|s| LayerInput {
            workload: s.workload.as_ref(),
            input: s.input.clone(),
            streams: true,
        })
        .collect();
    m.extend(layers::measure(&inputs));
    crate::print_span_summary(&by_name);
    Ok(tally.finish(m))
}
