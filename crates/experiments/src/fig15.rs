//! Figure 15: 2D-profiling when the profiler and the target machine use
//! different branch predictors — the profiler simulates the 4 KB gshare
//! while ground truth is defined by the 16 KB perceptron, at the maximum
//! input-set pool.

use crate::fig11_14::cumulative_sets;
use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use twodprof_core::Metrics;
use workloads::{Scale, EXTENDED_BENCHMARKS};

/// Per-benchmark metrics with gshare profiling vs. perceptron ground truth.
pub fn compute(ctx: &mut Context) -> Vec<(&'static str, Metrics)> {
    let mut out = Vec::new();
    for b in EXTENDED_BENCHMARKS {
        let report = ctx.two_d(ProfileRequest::two_d(b, PredictorKind::Gshare4Kb));
        let sets = cumulative_sets(ctx, b);
        let max_set = sets.last().expect("at least base");
        let gt = ctx.truth(
            ProfileRequest::accuracy(b, PredictorKind::Perceptron16Kb),
            max_set,
        );
        out.push((*b, Metrics::score(&report.predicted_mask(), &gt)));
    }
    out
}

/// Renders Figure 15.
pub fn run(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Figure 15: gshare profiler vs. perceptron target (max input sets)",
        &["benchmark", "COV-dep", "ACC-dep", "COV-indep", "ACC-indep"],
    );
    for (name, m) in compute(ctx) {
        t.row(vec![
            name.to_owned(),
            pct(m.cov_dep),
            pct(m.acc_dep),
            pct(m.cov_indep),
            pct(m.acc_indep),
        ]);
    }
    t
}

/// The runs [`compute`] reads: every extended benchmark's gshare 2D
/// profile and its perceptron profiles on train, ref and each extra input
/// set.
pub fn plan(scale: Scale) -> Vec<ProfileRequest> {
    let mut plan = crate::fig11_14::plan(scale, PredictorKind::Perceptron16Kb);
    for b in EXTENDED_BENCHMARKS {
        plan.push(ProfileRequest::two_d(b, PredictorKind::Gshare4Kb));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_predictor_profiling_still_works() {
        // "2D-profiling still achieves relatively high coverage and accuracy
        // ... even when it uses a smaller and less accurate branch predictor
        // than the target machine's predictor."
        let mut ctx = Context::new(Scale::Tiny);
        let rows = compute(&mut ctx);
        assert_eq!(rows.len(), EXTENDED_BENCHMARKS.len());
        let avg = Metrics::average(rows.iter().map(|(_, m)| m));
        assert!(
            avg.cov_dep.unwrap_or(0.0) > 0.2,
            "cross-predictor COV-dep collapsed: {avg}"
        );
        assert!(
            avg.acc_dep.unwrap_or(0.0) > 0.3,
            "cross-predictor ACC-dep collapsed: {avg}"
        );
        // ACC-indep degrades when the target predictor differs (the paper
        // sees the same drop, §5.3); require it merely non-collapsed
        assert!(
            avg.acc_indep.unwrap_or(0.0) > 0.25,
            "cross-predictor ACC-indep collapsed: {avg}"
        );
    }
}
