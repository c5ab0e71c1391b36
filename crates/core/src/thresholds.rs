//! The three input-dependence tests and their thresholds (Figure 9c).

use crate::BranchState;

/// How the MEAN-test threshold is chosen.
///
/// The paper sets `MEAN_th` to the program's overall branch prediction
/// accuracy, "determined at the end of the profiling run for each benchmark"
/// (§4.1) — i.e. the threshold adapts per program. A fixed value is also
/// supported for sensitivity studies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MeanThreshold {
    /// Use the profiling run's overall prediction accuracy (the paper's
    /// choice).
    ProgramAccuracy,
    /// Use a fixed accuracy in `[0, 1]`.
    Fixed(f64),
}

/// Threshold set for the MEAN/STD/PAM tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// MEAN-test threshold: a branch passes if its mean slice accuracy is
    /// *below* this.
    pub mean: MeanThreshold,
    /// STD-test threshold: a branch passes if the standard deviation of its
    /// slice accuracies *exceeds* this. The paper uses 4 (percentage
    /// points), i.e. 0.04 in fraction units.
    pub std: f64,
    /// PAM-test threshold: a branch passes if its fraction of
    /// points-above-mean lies within `[pam, 1 − pam]`. Two-tailed outlier
    /// filter; default 0.05.
    pub pam: f64,
}

impl Thresholds {
    /// The paper's thresholds: `MEAN_th` = program accuracy, `STD_th` = 0.04,
    /// `PAM_th` = 0.05.
    pub const fn paper() -> Self {
        Self {
            mean: MeanThreshold::ProgramAccuracy,
            std: 0.04,
            pam: 0.05,
        }
    }

    /// Resolves the MEAN threshold against the profiling run's measured
    /// overall accuracy.
    pub fn resolve_mean(&self, program_accuracy: f64) -> f64 {
        match self.mean {
            MeanThreshold::ProgramAccuracy => program_accuracy,
            MeanThreshold::Fixed(v) => v,
        }
    }

    /// Applies the three tests to already-computed slice statistics: the
    /// mean and standard deviation of a branch's (filtered) slice
    /// accuracies, its points-above-mean fraction, and the program accuracy
    /// the MEAN threshold resolves against.
    ///
    /// This is the pure comparison step of Figure 9c, shared by the
    /// end-of-run evaluation and the streaming profiler's windowed verdicts
    /// (which feed it sliding-window statistics instead of whole-run ones).
    pub fn apply(
        &self,
        mean: f64,
        std_dev: f64,
        pam_fraction: f64,
        program_accuracy: f64,
    ) -> TestOutcomes {
        let mean_th = self.resolve_mean(program_accuracy);
        TestOutcomes {
            mean: mean < mean_th,
            std: std_dev > self.std,
            pam: pam_fraction >= self.pam && pam_fraction <= 1.0 - self.pam,
        }
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of the three tests for one branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TestOutcomes {
    /// MEAN-test: mean slice accuracy below `MEAN_th`.
    pub mean: bool,
    /// STD-test: slice-accuracy standard deviation above `STD_th`.
    pub std: bool,
    /// PAM-test: points-above-mean fraction inside the two-tailed window.
    pub pam: bool,
}

impl TestOutcomes {
    /// The paper's combination rule (Figure 9c lines 26–28): a branch is
    /// predicted input-dependent iff it passes the PAM-test *and* at least
    /// one of the MEAN-test and STD-test.
    pub fn predicts_dependent(&self) -> bool {
        (self.mean || self.std) && self.pam
    }
}

/// Runs the three tests on a branch's end-of-run statistics.
///
/// Returns `None` if the branch accumulated no counted slices (the paper has
/// nothing to test in that case; such branches default to input-independent
/// downstream).
pub(crate) fn evaluate(
    state: &BranchState,
    thresholds: &Thresholds,
    program_accuracy: f64,
) -> Option<TestOutcomes> {
    let mean = state.mean()?;
    let std = state.std_dev().expect("mean exists implies std exists");
    let pam_frac = state
        .points_above_mean()
        .expect("mean exists implies PAM exists");
    Some(thresholds.apply(mean, std, pam_frac, program_accuracy))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_slices(accs: &[(u64, u64)]) -> BranchState {
        // (correct, wrong) per slice, threshold 10
        let mut s = BranchState::new();
        for &(c, w) in accs {
            for _ in 0..c {
                s.record(true);
            }
            for _ in 0..w {
                s.record(false);
            }
            s.end_slice(10);
        }
        s
    }

    #[test]
    fn paper_default_thresholds() {
        let t = Thresholds::default();
        assert_eq!(t.mean, MeanThreshold::ProgramAccuracy);
        assert!((t.std - 0.04).abs() < 1e-12);
        assert!((t.pam - 0.05).abs() < 1e-12);
        assert!((t.resolve_mean(0.93) - 0.93).abs() < 1e-12);
        let f = Thresholds {
            mean: MeanThreshold::Fixed(0.8),
            ..t
        };
        assert!((f.resolve_mean(0.93) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn combination_rule() {
        let cases = [
            // (mean, std, pam) -> dependent?
            ((false, false, false), false),
            ((true, false, false), false), // fails PAM
            ((false, true, false), false),
            ((false, false, true), false), // PAM alone is not enough
            ((true, false, true), true),
            ((false, true, true), true),
            ((true, true, true), true),
        ];
        for ((m, s, p), expect) in cases {
            let o = TestOutcomes {
                mean: m,
                std: s,
                pam: p,
            };
            assert_eq!(o.predicts_dependent(), expect, "case {:?}", (m, s, p));
        }
    }

    #[test]
    fn phased_branch_passes_std_and_pam() {
        // Half the slices near 55%, half near 95%, with per-slice jitter as
        // real predictor accuracies always have: large std, PAM near 0.5.
        let slices: Vec<(u64, u64)> = (0..40u64)
            .map(|i| {
                let base = if i < 20 { 55 } else { 95 };
                let jitter = (i * 7) % 5; // 0..4 extra correct predictions
                let c = base + jitter;
                (c, 100 - c)
            })
            .collect();
        let s = state_with_slices(&slices);
        let o = evaluate(&s, &Thresholds::default(), 0.95).unwrap();
        assert!(o.std, "std {:?} should exceed 0.04", s.std_dev());
        assert!(
            o.pam,
            "PAM fraction {:?} should be mid-range",
            s.points_above_mean()
        );
        assert!(o.predicts_dependent());
    }

    #[test]
    fn stable_low_accuracy_branch_fails_pam() {
        // The paper's Figure 8 (right): accuracy ~58% but perfectly stable.
        // MEAN passes (58% < program accuracy 95%) but PAM fails because no
        // slice deviates from the mean.
        let slices: Vec<(u64, u64)> = (0..40).map(|_| (58, 42)).collect();
        let s = state_with_slices(&slices);
        let o = evaluate(&s, &Thresholds::default(), 0.95).unwrap();
        assert!(o.mean);
        assert!(!o.std);
        assert!(!o.pam, "constant series has zero points above mean");
        assert!(!o.predicts_dependent());
    }

    #[test]
    fn outlier_only_variation_fails_pam() {
        // One trailing outlier slice out of 40: STD passes, but no slice ever
        // rises above the running mean (the stable ones equal it, the outlier
        // is below it), so the PAM fraction is 0 and the two-tailed filter
        // rejects the branch — exactly the outlier case PAM exists for.
        let mut slices: Vec<(u64, u64)> = (0..39).map(|_| (95, 5)).collect();
        slices.push((20, 80));
        let s = state_with_slices(&slices);
        let o = evaluate(&s, &Thresholds::default(), 0.93).unwrap();
        assert!(o.std, "the outlier inflates std: {:?}", s.std_dev());
        assert_eq!(s.points_above_mean(), Some(0.0));
        assert!(!o.pam);
        assert!(!o.predicts_dependent());
    }

    #[test]
    fn no_slices_yields_none() {
        let s = BranchState::new();
        assert_eq!(evaluate(&s, &Thresholds::default(), 0.9), None);
    }

    #[test]
    fn high_accuracy_stable_branch_is_independent() {
        let slices: Vec<(u64, u64)> = (0..40).map(|_| (99, 1)).collect();
        let s = state_with_slices(&slices);
        let o = evaluate(&s, &Thresholds::default(), 0.93).unwrap();
        assert!(!o.mean, "99% > program accuracy");
        assert!(!o.std);
        assert!(!o.predicts_dependent());
    }
}
