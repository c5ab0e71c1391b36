//! Per-layer costs timed from outside, over a workload's own inputs:
//! workload execution, trace record / decode / serialisation, predictor
//! simulation (scalar per kind and the fused bit-sliced survey pass), the
//! 2D profiler fold, and the streaming fold.

use crate::report::Metric;
use bpred::bitslice::SurveyFused;
use bpred::{site_pc, BranchPredictor, Gshare, PredictorKind, PredictorSim};
use btrace::{CountingTracer, RecordedTrace, SiteId, SiteRun, Tracer};
use std::hint::black_box;
use std::time::Instant;
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
use twodprof_stream::{StreamConfig, StreamingProfiler};
use workloads::{InputSet, Workload};

/// One input the layers are timed over.
pub struct LayerInput<'a> {
    /// The program.
    pub workload: &'a dyn Workload,
    /// Its input set.
    pub input: InputSet,
    /// Whether the input's stream also feeds a streaming program profiler.
    pub streams: bool,
}

/// Collects `(site, predicted correctly)` outcomes of 4 KB gshare, the
/// per-event input of the streaming fold.
struct Outcomes {
    predictor: Gshare,
    out: Vec<(SiteId, bool)>,
}

impl Tracer for Outcomes {
    fn branch(&mut self, site: SiteId, taken: bool) {
        let pred = self.predictor.predict_and_train(site_pc(site), taken);
        self.out.push((site, pred == taken));
    }
}

/// Repetitions of every timed section; the fastest is kept, since
/// interference only ever adds time.
const REPEATS: usize = 3;

/// Runs `f` `REPEATS` times; returns the fastest time in seconds and the
/// last result.
fn best<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut fastest = f64::INFINITY;
    let mut last = None;
    for _ in 0..REPEATS {
        let start = Instant::now();
        let out = black_box(f());
        fastest = fastest.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (fastest, last.expect("REPEATS > 0"))
}

#[derive(Default)]
struct Totals {
    events: u64,
    gen_s: f64,
    record_s: f64,
    decode_s: f64,
    bytes: u64,
    serde_bytes: u64,
    serde_s: f64,
    sim_s: Vec<f64>,
    bitslice_s: f64,
    twod_s: f64,
    finish_s: f64,
    profilers: u64,
    stream_events: u64,
    stream_s: f64,
}

/// Times every layer over `inputs` and returns the per-layer metrics.
pub fn measure(inputs: &[LayerInput<'_>]) -> Vec<Metric> {
    let mut t = Totals {
        sim_s: vec![0.0; PredictorKind::SURVEY.len()],
        ..Totals::default()
    };
    for li in inputs {
        let w = li.workload;
        let sites = w.sites().len();

        let (gen_s, events) = best(|| {
            let mut counter = CountingTracer::new();
            w.run(&li.input, &mut counter);
            counter.count()
        });
        t.gen_s += gen_s;
        t.events += events;

        let (record_s, trace) = best(|| {
            let mut trace = RecordedTrace::new(sites);
            w.run(&li.input, &mut trace);
            trace
        });
        t.record_s += record_s;
        t.bytes += trace.memory_bytes() as u64;

        t.decode_s += best(|| {
            trace
                .site_runs()
                .map(|run| u64::from(run.len) + u64::from(run.bits.count_ones()))
                .sum::<u64>()
        })
        .0;

        let (serde_s, (bytes, back)) = best(|| {
            let bytes = trace.to_bytes();
            let back = RecordedTrace::from_bytes(&bytes).expect("own serialisation reads back");
            (bytes.len(), back)
        });
        assert_eq!(
            back.events(),
            trace.events(),
            "serde round trip lost events"
        );
        t.serde_s += serde_s;
        t.serde_bytes += 2 * bytes as u64;

        // SURVEY holds the paper's evaluation kinds and every table kind
        for (k, kind) in PredictorKind::SURVEY.into_iter().enumerate() {
            t.sim_s[k] += best(|| {
                let mut sim = PredictorSim::new(sites, kind.build());
                trace.replay_into(&mut sim);
                sim.profile().total_executions()
            })
            .0;
        }

        let runs: Vec<SiteRun> = trace.site_runs().collect();
        t.bitslice_s += best(|| {
            let mut correct = vec![[0u64; 10]; sites];
            SurveyFused::new().run_segment(&runs, &mut correct);
            correct
        })
        .0;

        let new_profiler = || {
            let mut profiler = TwoDProfiler::new(
                sites,
                PredictorKind::Gshare4Kb.build(),
                SliceConfig::auto(events),
            );
            trace.replay_into(&mut profiler);
            profiler
        };
        t.twod_s += best(new_profiler).0;
        let mut profilers: Vec<_> = (0..REPEATS).map(|_| new_profiler()).collect();
        t.finish_s += best(|| profilers.pop().map(|p| p.finish(Thresholds::paper()))).0;
        t.profilers += 1;

        if li.streams {
            let mut outcomes = Outcomes {
                predictor: Gshare::new_4kb(),
                out: Vec::with_capacity(events as usize),
            };
            trace.replay_into(&mut outcomes);
            t.stream_s += best(|| {
                let mut profiler = StreamingProfiler::new(sites, StreamConfig::default());
                let mut session = profiler.begin_session();
                let mut drift = Vec::new();
                for &(site, ok) in &outcomes.out {
                    session.record(site, ok);
                    if session.pending_epochs() > 0 {
                        profiler.ingest(&mut session, &mut drift);
                    }
                }
                profiler.finish_session(session, &mut drift);
                drift.len()
            })
            .0;
            t.stream_events += events;
        }
    }

    let per_event = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
    let gen = per_event(t.gen_s, t.events);
    let mut out = vec![
        Metric::value("workloads.gen_ns_per_event", "ns", gen),
        Metric::value(
            "btrace.record_ns_per_event",
            "ns",
            per_event(t.record_s, t.events) - gen,
        ),
        Metric::value(
            "btrace.decode_ns_per_event",
            "ns",
            per_event(t.decode_s, t.events),
        ),
        Metric::value(
            "btrace.bytes_per_event",
            "B",
            if t.events == 0 {
                0.0
            } else {
                t.bytes as f64 / t.events as f64
            },
        ),
        Metric::value(
            "btrace.serde_mb_per_s",
            "MB/s",
            if t.serde_s == 0.0 {
                0.0
            } else {
                t.serde_bytes as f64 / 1e6 / t.serde_s
            },
        ),
    ];
    let mut gshare_sim = 0.0;
    for (kind, s) in PredictorKind::SURVEY.into_iter().zip(&t.sim_s) {
        let ns = per_event(*s, t.events);
        if kind == PredictorKind::Gshare4Kb {
            gshare_sim = ns;
        }
        out.push(Metric::value(
            format!("bpred.sim_ns_per_event.{}", kind.id()),
            "ns",
            ns,
        ));
    }
    let twod = per_event(t.twod_s, t.events);
    out.extend([
        Metric::value(
            "bpred.bitslice_ns_per_event",
            "ns",
            per_event(t.bitslice_s, t.events),
        ),
        Metric::value("core.twod_ns_per_event", "ns", twod),
        Metric::value("core.fold_ns_per_event", "ns", twod - gshare_sim),
        Metric::value(
            "core.finish_us",
            "us",
            if t.profilers == 0 {
                0.0
            } else {
                t.finish_s * 1e6 / t.profilers as f64
            },
        ),
        Metric::value(
            "stream.fold_ns_per_event",
            "ns",
            per_event(t.stream_s, t.stream_events),
        ),
    ]);
    out
}
