//! Figure 16: run-time overhead of 2D-profiling instrumentation.
//!
//! The paper compares six branch-intensive benchmarks under five
//! configurations: the bare binary, Pin without analysis, edge profiling,
//! gshare simulation, and 2D-profiling on top of the gshare simulation. Our
//! analogues: [`NullTracer`] (instrumentation calls compiled in, no
//! observer work), [`CountingTracer`] (per-event dispatch only),
//! [`EdgeProfiler`], [`PredictorSim`] with the 4 KB gshare, and
//! [`TwoDProfiler`].
//!
//! [`NullTracer`]: btrace::NullTracer
//! [`CountingTracer`]: btrace::CountingTracer
//! [`EdgeProfiler`]: btrace::EdgeProfiler
//! [`PredictorSim`]: bpred::PredictorSim
//! [`TwoDProfiler`]: twodprof_core::TwoDProfiler

use crate::{Context, ProfileRequest, Table};
use bpred::{Gshare, PredictorSim};
use btrace::{CountingTracer, EdgeProfiler, NullTracer};
use std::time::Instant;
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};

/// The six branch-intensive benchmarks the paper times in Figure 16.
pub const OVERHEAD_BENCHMARKS: &[&str] = &["bzip2", "gzip", "gap", "crafty", "parser", "vpr"];

/// Instrumentation configurations, in the paper's order.
pub const MODES: &[&str] = &["Binary", "Pin-base", "Edge", "Gshare", "2D+Gshare"];

/// Wall-clock seconds of one workload run under each mode, averaged over
/// `repeats` runs.
pub fn measure(ctx: &mut Context, workload: &str, repeats: u32) -> [f64; 5] {
    let w = ctx.workload(workload);
    let input = w.input_set("train").expect("train exists");
    let total = ctx.count(ProfileRequest::count(workload));
    let config = SliceConfig::auto(total);
    let num_sites = w.sites().len();
    let time = |f: &mut dyn FnMut()| -> f64 {
        let t0 = Instant::now();
        for _ in 0..repeats {
            f();
        }
        t0.elapsed().as_secs_f64() / repeats as f64
    };
    [
        time(&mut || w.run(&input, &mut NullTracer)),
        time(&mut || {
            let mut t = CountingTracer::new();
            w.run(&input, &mut t);
            std::hint::black_box(t.count());
        }),
        time(&mut || {
            let mut t = EdgeProfiler::new(num_sites);
            w.run(&input, &mut t);
            std::hint::black_box(t.overall_taken_rate());
        }),
        time(&mut || {
            let mut t = PredictorSim::new(num_sites, Gshare::new_4kb());
            w.run(&input, &mut t);
            std::hint::black_box(t.profile().overall_accuracy());
        }),
        time(&mut || {
            let mut t = TwoDProfiler::new(num_sites, Gshare::new_4kb(), config);
            w.run(&input, &mut t);
            std::hint::black_box(t.finish(Thresholds::paper()).program_accuracy());
        }),
    ]
}

/// Renders Figure 16: per-benchmark execution times normalized to the
/// `Binary` configuration.
pub fn run(ctx: &mut Context, repeats: u32) -> Table {
    let mut header = vec!["benchmark"];
    header.extend(MODES);
    let mut t = Table::new(
        "Figure 16: normalized execution time of instrumentation configurations",
        &header,
    );
    for b in OVERHEAD_BENCHMARKS {
        let secs = measure(ctx, b, repeats);
        let base = secs[0].max(1e-9);
        let mut row = vec![(*b).to_owned()];
        for s in secs {
            row.push(format!("{:.2}x", s / base));
        }
        t.row(row);
    }
    t
}

/// The runs [`run`] reads: each overhead benchmark's train branch count
/// (the timed runs themselves are live).
pub fn plan() -> Vec<ProfileRequest> {
    OVERHEAD_BENCHMARKS
        .iter()
        .map(|b| ProfileRequest::count(b))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn richer_instrumentation_is_not_cheaper() {
        let mut ctx = Context::new(Scale::Tiny);
        let secs = measure(&mut ctx, "gzip", 3);
        // Timing on shared machines is noisy; assert only the robust shape:
        // the 2D+gshare configuration costs at least as much as the bare
        // binary, and the full table renders.
        assert!(secs.iter().all(|&s| s > 0.0));
        assert!(
            secs[4] > secs[0] * 0.8,
            "2D profiling cannot be materially cheaper than no analysis: {secs:?}"
        );
    }

    #[test]
    fn table_covers_six_benchmarks_and_five_modes() {
        let mut ctx = Context::new(Scale::Tiny);
        let t = run(&mut ctx, 1);
        assert_eq!(t.len(), OVERHEAD_BENCHMARKS.len());
        assert_eq!(MODES.len(), 5);
    }
}
