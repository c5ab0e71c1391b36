//! Sensitivity ablations for the 2D-profiling algorithm.
//!
//! §4.1 of the paper: "We evaluated the sensitivity of 2D-profiling to the
//! threshold value used to define input-dependent branches and the
//! threshold values used in the 2D-profiling algorithm" (results in its
//! extended version). This module reproduces those studies:
//!
//! - [`run_thresholds`] sweeps `STD_th` and `PAM_th`;
//! - [`run_slice`] sweeps the slice length;
//! - [`run_tests_onoff`] disables each of the MEAN/STD/PAM tests in turn to
//!   measure its contribution (design-choice ablation).
//!
//! The MEAN/STD/PAM tests only read end-of-run statistics, so the
//! threshold and test sweeps profile each benchmark once and re-classify
//! that one report per setting
//! ([`with_thresholds`](twodprof_core::ProfileReport::with_thresholds)).
//! A slice length changes the statistics themselves, so each length is its
//! own engine job.

use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use twodprof_core::{MeanThreshold, Metrics, Thresholds};
use workloads::EXTENDED_BENCHMARKS;

/// `STD_th` values of the threshold sweep.
pub const STD_SWEEP: [f64; 5] = [0.01, 0.02, 0.04, 0.08, 0.16];

/// `PAM_th` values of the threshold sweep.
pub const PAM_SWEEP: [f64; 3] = [0.01, 0.05, 0.15];

/// Slice lengths (dynamic branches) of the slice sweep.
pub const SLICE_LENGTHS: [u64; 5] = [2_000, 8_000, 32_000, 128_000, 512_000];

/// The test on/off configurations: disabling a test means making it
/// never or always pass through an extreme threshold.
pub const TEST_CONFIGS: [(&str, Thresholds); 4] = [
    ("full (paper)", Thresholds::paper()),
    (
        "MEAN-test only (STD off)",
        Thresholds {
            mean: MeanThreshold::ProgramAccuracy,
            std: f64::MAX,
            pam: 0.05,
        },
    ),
    (
        "STD-test only (MEAN off)",
        Thresholds {
            mean: MeanThreshold::Fixed(0.0),
            std: 0.04,
            pam: 0.05,
        },
    ),
    (
        "no PAM filter",
        Thresholds {
            mean: MeanThreshold::ProgramAccuracy,
            std: 0.04,
            pam: 0.0,
        },
    ),
];

/// A threshold-sweep setting: the paper's MEAN rule with the given
/// `STD_th` and `PAM_th`.
fn swept(std: f64, pam: f64) -> Thresholds {
    Thresholds {
        mean: MeanThreshold::ProgramAccuracy,
        std,
        pam,
    }
}

/// Every threshold setting the threshold and test on/off sweeps classify
/// under, in table order.
pub fn threshold_configs() -> Vec<Thresholds> {
    STD_SWEEP
        .iter()
        .flat_map(|&std| PAM_SWEEP.iter().map(move |&pam| swept(std, pam)))
        .chain(TEST_CONFIGS.iter().map(|&(_, t)| t))
        .collect()
}

/// The gshare 2D request of benchmark `b`, with the slice-length override
/// when one is given.
fn two_d_request(b: &str, slice_len: Option<u64>) -> ProfileRequest {
    let req = ProfileRequest::two_d(b, PredictorKind::Gshare4Kb);
    match slice_len {
        Some(len) => req.slice_len(len),
        None => req,
    }
}

/// The runs every ablation table reads: per extended benchmark, the gshare
/// train/ref ground truth, the gshare 2D profile, and one 2D profile per
/// slice length.
pub fn plan() -> Vec<ProfileRequest> {
    let mut plan = Vec::new();
    for b in EXTENDED_BENCHMARKS {
        plan.extend(Context::truth_plan(
            &ProfileRequest::accuracy(b, PredictorKind::Gshare4Kb),
            &["ref"],
        ));
        plan.push(two_d_request(b, None));
        plan.extend(SLICE_LENGTHS.iter().map(|&len| two_d_request(b, Some(len))));
    }
    plan
}

/// Mean metrics over the extended benchmarks for an arbitrary thresholds +
/// slice configuration, against train-vs-ref gshare ground truth.
fn metrics_with(ctx: &mut Context, thresholds: Thresholds, slice_override: Option<u64>) -> Metrics {
    let mut all = Vec::new();
    for b in EXTENDED_BENCHMARKS {
        let report = ctx
            .two_d(two_d_request(b, slice_override))
            .with_thresholds(thresholds);
        let gt = ctx.truth(
            ProfileRequest::accuracy(b, PredictorKind::Gshare4Kb),
            &["ref"],
        );
        all.push(Metrics::score(&report.predicted_mask(), &gt));
    }
    Metrics::average(&all)
}

/// Sweeps `STD_th` and `PAM_th` around the paper's values.
pub fn run_thresholds(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Ablation: STD_th / PAM_th sensitivity (mean over 6 benchmarks, train-vs-ref)",
        &[
            "STD_th",
            "PAM_th",
            "COV-dep",
            "ACC-dep",
            "COV-indep",
            "ACC-indep",
        ],
    );
    for std_th in STD_SWEEP {
        for pam_th in PAM_SWEEP {
            let m = metrics_with(ctx, swept(std_th, pam_th), None);
            t.row(vec![
                format!("{std_th}"),
                format!("{pam_th}"),
                pct(m.cov_dep),
                pct(m.acc_dep),
                pct(m.cov_indep),
                pct(m.acc_indep),
            ]);
        }
    }
    t
}

/// Sweeps the input-dependence *definition* threshold (the 5% accuracy
/// delta of §2): how large the ground-truth dependent set is, and how
/// 2D-profiling scores against it, as the definition tightens or loosens.
pub fn run_delta(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Ablation: input-dependence delta threshold (mean over 6 benchmarks, train-vs-ref)",
        &[
            "delta",
            "dependent_frac",
            "COV-dep",
            "ACC-dep",
            "COV-indep",
            "ACC-indep",
        ],
    );
    for &delta in &[0.02, 0.05, 0.10, 0.20] {
        let mut all = Vec::new();
        let mut frac_sum = 0.0;
        let mut frac_n = 0usize;
        for b in EXTENDED_BENCHMARKS {
            let base = ProfileRequest::accuracy(b, PredictorKind::Gshare4Kb);
            let train = ctx.accuracy(base.clone());
            let reference = ctx.accuracy(base.input("ref"));
            let gt =
                twodprof_core::GroundTruth::from_pair(&train, &reference, delta, ctx.min_exec());
            if let Some(f) = gt.static_fraction() {
                frac_sum += f;
                frac_n += 1;
            }
            let report = ctx.two_d(ProfileRequest::two_d(b, PredictorKind::Gshare4Kb));
            all.push(Metrics::score(&report.predicted_mask(), &gt));
        }
        let m = Metrics::average(&all);
        t.row(vec![
            format!("{:.0}%", delta * 100.0),
            pct((frac_n > 0).then(|| frac_sum / frac_n as f64)),
            pct(m.cov_dep),
            pct(m.acc_dep),
            pct(m.cov_indep),
            pct(m.acc_indep),
        ]);
    }
    t
}

/// Sweeps the slice length across two orders of magnitude.
pub fn run_slice(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Ablation: slice-length sensitivity (mean over 6 benchmarks, train-vs-ref)",
        &["slice_len", "COV-dep", "ACC-dep", "COV-indep", "ACC-indep"],
    );
    for len in SLICE_LENGTHS {
        let m = metrics_with(ctx, Thresholds::paper(), Some(len));
        t.row(vec![
            len.to_string(),
            pct(m.cov_dep),
            pct(m.acc_dep),
            pct(m.cov_indep),
            pct(m.acc_indep),
        ]);
    }
    t
}

/// Disables each test in turn (MEAN only, STD only, no PAM filter, full
/// algorithm) to show each component's contribution.
pub fn run_tests_onoff(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Ablation: MEAN/STD/PAM test contributions (mean over 6 benchmarks)",
        &[
            "configuration",
            "COV-dep",
            "ACC-dep",
            "COV-indep",
            "ACC-indep",
        ],
    );
    for (name, thresholds) in TEST_CONFIGS {
        let m = metrics_with(ctx, thresholds, None);
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

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn tighter_std_threshold_trades_coverage_for_accuracy() {
        let mut ctx = Context::new(Scale::Tiny);
        let loose = metrics_with(
            &mut ctx,
            Thresholds {
                mean: MeanThreshold::ProgramAccuracy,
                std: 0.01,
                pam: 0.05,
            },
            None,
        );
        let tight = metrics_with(
            &mut ctx,
            Thresholds {
                mean: MeanThreshold::ProgramAccuracy,
                std: 0.30,
                pam: 0.05,
            },
            None,
        );
        // a very tight STD threshold flags fewer branches (lower or equal
        // dependent coverage)
        assert!(
            tight.cov_dep.unwrap_or(0.0) <= loose.cov_dep.unwrap_or(0.0) + 1e-9,
            "tight {tight:?} vs loose {loose:?}"
        );
    }

    #[test]
    fn ablation_tables_render() {
        let mut ctx = Context::new(Scale::Tiny);
        assert_eq!(run_tests_onoff(&mut ctx).len(), 4);
        assert_eq!(run_slice(&mut ctx).len(), 5);
        assert_eq!(run_delta(&mut ctx).len(), 4);
    }

    #[test]
    fn looser_delta_defines_more_dependent_branches() {
        // the dependent fraction must shrink monotonically as the delta
        // threshold tightens — a definition property, independent of scale
        let mut ctx = Context::new(Scale::Tiny);
        let base = ProfileRequest::accuracy("gzip", PredictorKind::Gshare4Kb);
        let train = ctx.accuracy(base.clone());
        let reference = ctx.accuracy(base.input("ref"));
        let count = |delta: f64| {
            twodprof_core::GroundTruth::from_pair(&train, &reference, delta, ctx.min_exec())
                .dependent_count()
        };
        assert!(count(0.02) >= count(0.05));
        assert!(count(0.05) >= count(0.20));
    }

    #[test]
    fn no_pam_filter_never_reduces_dependent_coverage() {
        // PAM only *filters* candidates: removing it can only flag more
        // branches, so COV-dep(no PAM) >= COV-dep(full).
        let mut ctx = Context::new(Scale::Tiny);
        let full = metrics_with(&mut ctx, Thresholds::paper(), None);
        let nopam = metrics_with(
            &mut ctx,
            Thresholds {
                mean: MeanThreshold::ProgramAccuracy,
                std: 0.04,
                pam: 0.0,
            },
            None,
        );
        assert!(
            nopam.cov_dep.unwrap_or(0.0) >= full.cov_dep.unwrap_or(0.0) - 1e-9,
            "no-PAM {nopam:?} vs full {full:?}"
        );
    }
}
