//! `experiments` — the harness that regenerates every table and figure of
//! the paper's evaluation.
//!
//! Each module reproduces one artifact (see `DESIGN.md`'s experiment index):
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`fig02`] | Figure 2 — predication cost crossover |
//! | [`fig03`] | Figure 3 — fraction of input-dependent branches |
//! | [`fig04_05`] | Figures 4 & 5 — accuracy-bin distributions |
//! | [`table1`] | Table 1 — per-input misprediction rates |
//! | [`table2`] | Table 2 — benchmark/input characteristics |
//! | [`fig06_07`] | Figures 6 & 7 — the gap/gzip example branches |
//! | [`fig08`] | Figure 8 — slice-accuracy time series |
//! | [`fig10`] | Figure 10 — 2D-profiling COV/ACC, two input sets |
//! | [`fig11_14`] | Figures 11 & 14 — input-dependent set growth |
//! | [`fig12_13`] | Figures 12 & 13 — COV/ACC vs. number of input sets |
//! | [`fig15`] | Figure 15 — profiler ≠ target predictor |
//! | [`table4`] | Table 4 — extra input-set characteristics |
//! | [`fig16`] | Figure 16 — instrumentation overhead |
//! | [`ablation`] | threshold / slice / test-contribution sensitivity (the paper's extended-version studies) |
//! | [`bias_cmp`] | extension: predictor-free bias-based 2D profiling vs. the accuracy-based profiler |
//! | [`detail`] | per-branch drill-down for one benchmark (the paper's extended-version tables) |
//!
//! Every module also lists the simulations it reads as a pure `plan`.
//! [`registry`] maps experiment names to plans and renderers; the `repro`
//! binary runs the union of the requested plans as one parallel batch
//! ([`Context::run_plan`]) and then renders each experiment from memory.
//!
//! Run everything with the `repro` binary:
//!
//! ```text
//! repro --scale full --out results all
//! ```

pub mod ablation;
pub mod bias_cmp;
pub mod context;
pub mod detail;
pub mod fig02;
pub mod fig03;
pub mod fig04_05;
pub mod fig06_07;
pub mod fig08;
pub mod fig10;
pub mod fig11_14;
pub mod fig12_13;
pub mod fig15;
pub mod fig16;
pub mod predictors_cmp;
pub mod registry;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod tablefmt;

pub use context::{Context, PredictorKind};
pub use tablefmt::Table;
pub use twodprof_engine::{ProfileMode, ProfileRequest};

/// Every workload's gshare train and ref profiles — the train-vs-ref
/// ground truth most figures score against.
fn gshare_train_ref_plan(scale: workloads::Scale) -> Vec<ProfileRequest> {
    workloads::suite(scale)
        .iter()
        .flat_map(|w| {
            Context::truth_plan(
                &ProfileRequest::accuracy(w.name(), PredictorKind::Gshare4Kb),
                &["ref"],
            )
        })
        .collect()
}

/// Accuracy-bin boundaries used by Figures 4 and 5 (prediction accuracy in
/// percent; bins are `[0,70) [70,80) [80,90) [90,95) [95,99) [99,100]`).
pub const ACCURACY_BINS: [(f64, f64); 6] = [
    (0.0, 0.70),
    (0.70, 0.80),
    (0.80, 0.90),
    (0.90, 0.95),
    (0.95, 0.99),
    (0.99, 1.01),
];

/// Human-readable labels for [`ACCURACY_BINS`].
pub const ACCURACY_BIN_LABELS: [&str; 6] =
    ["0-70%", "70-80%", "80-90%", "90-95%", "95-99%", "99-100%"];

/// Index of the accuracy bin containing `acc`.
///
/// `acc` is a prediction-accuracy fraction. Finite values outside `[0, 1]`
/// (e.g. from float rounding at the edges) are clamped to the nearest edge
/// bin in every build profile — previously a negative value fell through to
/// the *highest* bin in release builds.
///
/// # Panics
///
/// Panics on non-finite input (NaN or ±∞): those are never rounding noise
/// but an upstream accounting bug, and silently binning them would corrupt a
/// figure.
pub fn accuracy_bin(acc: f64) -> usize {
    assert!(acc.is_finite(), "accuracy {acc} is not a finite fraction");
    if acc <= 0.0 {
        return 0;
    }
    ACCURACY_BINS
        .iter()
        .position(|&(lo, hi)| acc >= lo && acc < hi)
        // only values >= the last bin's upper edge fall through: clamp high
        .unwrap_or(ACCURACY_BINS.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_cover_the_unit_interval() {
        assert_eq!(accuracy_bin(0.0), 0);
        assert_eq!(accuracy_bin(0.699), 0);
        assert_eq!(accuracy_bin(0.70), 1);
        assert_eq!(accuracy_bin(0.85), 2);
        assert_eq!(accuracy_bin(0.93), 3);
        assert_eq!(accuracy_bin(0.97), 4);
        assert_eq!(accuracy_bin(0.99), 5);
        assert_eq!(accuracy_bin(1.0), 5);
    }

    #[test]
    fn accuracy_bin_clamps_finite_out_of_range_to_edge_bins() {
        assert_eq!(accuracy_bin(-0.25), 0);
        assert_eq!(accuracy_bin(-f64::MIN_POSITIVE), 0);
        assert_eq!(accuracy_bin(1.0 + f64::EPSILON), ACCURACY_BINS.len() - 1);
        assert_eq!(accuracy_bin(1.5), ACCURACY_BINS.len() - 1);
    }

    #[test]
    #[should_panic(expected = "not a finite fraction")]
    fn accuracy_bin_rejects_nan() {
        accuracy_bin(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not a finite fraction")]
    fn accuracy_bin_rejects_infinity() {
        accuracy_bin(f64::INFINITY);
    }
}
