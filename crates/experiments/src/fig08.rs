//! Figure 8: time-varying slice accuracy of an input-dependent branch vs. an
//! input-independent branch (the paper plots two gap branches).

use crate::{Context, PredictorKind, ProfileRequest, Table};
use btrace::SiteId;
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};

/// The runs [`compute`] reads for `workload`: its train branch count (the
/// series-recording profiler itself runs live).
pub fn plan(workload: &str) -> Vec<ProfileRequest> {
    vec![ProfileRequest::count(workload)]
}

/// The two selected example branches and their time series.
#[derive(Clone, Debug)]
pub struct SeriesPair {
    /// Site picked as the input-dependent example.
    pub dependent_site: SiteId,
    /// Name of that site.
    pub dependent_name: &'static str,
    /// `(slice, accuracy)` series of the dependent site.
    pub dependent_series: Vec<(u64, f64)>,
    /// Site picked as the input-independent example.
    pub independent_site: SiteId,
    /// Name of that site.
    pub independent_name: &'static str,
    /// `(slice, accuracy)` series of the independent site.
    pub independent_series: Vec<(u64, f64)>,
    /// Overall program accuracy per slice.
    pub overall: Vec<(u64, f64)>,
}

/// Profiles `workload`'s train input with series recording and picks the
/// strongest 2D-flagged branch plus the lowest-accuracy unflagged branch —
/// the same contrast the paper draws in Figure 8.
pub fn compute(ctx: &mut Context, workload: &str) -> SeriesPair {
    let w = ctx.workload(workload);
    let input = w.input_set("train").expect("train exists");
    let total = ctx.count(ProfileRequest::count(workload));
    let config = SliceConfig::auto(total);
    let mut prof =
        TwoDProfiler::with_series(w.sites().len(), PredictorKind::Gshare4Kb.build(), config);
    w.run(&input, &mut prof);
    let report = prof.finish(Thresholds::paper());

    // dependent example: flagged branch with the highest std x executions
    let dependent = report
        .iter()
        .filter(|s| s.classification.is_dependent())
        .max_by(|a, b| {
            let ka = a.std_dev.unwrap_or(0.0) * (a.executions as f64).sqrt();
            let kb = b.std_dev.unwrap_or(0.0) * (b.executions as f64).sqrt();
            ka.partial_cmp(&kb).expect("finite")
        })
        .map(|s| s.site)
        .unwrap_or(SiteId(0));
    // independent example: unflagged, well-sampled (present in most
    // slices) branch with the lowest mean accuracy — the Figure 8 (right)
    // shape of "low but flat"
    let min_slices = (report.total_slices() / 2).max(5);
    let independent = report
        .iter()
        .filter(|s| {
            !s.classification.is_dependent() && s.slices >= min_slices && s.site != dependent
        })
        .min_by(|a, b| {
            a.mean
                .unwrap_or(1.0)
                .partial_cmp(&b.mean.unwrap_or(1.0))
                .expect("finite")
        })
        .map(|s| s.site)
        .unwrap_or(SiteId(0));
    SeriesPair {
        dependent_site: dependent,
        dependent_name: w.sites()[dependent.index()].name,
        dependent_series: report.series(dependent).expect("series enabled").to_vec(),
        independent_site: independent,
        independent_name: w.sites()[independent.index()].name,
        independent_series: report.series(independent).expect("series enabled").to_vec(),
        overall: report.overall_series().expect("series enabled").to_vec(),
    }
}

/// Detected accuracy phases of the two example branches (the extension
/// module `twodprof_core::phases` applied to Figure 8's series).
pub fn phase_summary(pair: &SeriesPair) -> (Vec<twodprof_core::Phase>, Vec<twodprof_core::Phase>) {
    let config = twodprof_core::PhaseConfig::default();
    (
        twodprof_core::detect_phases_in_series(&pair.dependent_series, &config),
        twodprof_core::detect_phases_in_series(&pair.independent_series, &config),
    )
}

/// Renders Figure 8 as a long-form table (one row per slice sample).
pub fn run(ctx: &mut Context, workload: &str) -> Table {
    let pair = compute(ctx, workload);
    let mut t = Table::new(
        &format!(
            "Figure 8: slice accuracy over time, {workload} (dependent: {}, independent: {})",
            pair.dependent_name, pair.independent_name
        ),
        &["slice", "dependent_acc", "independent_acc", "overall_acc"],
    );
    let lookup = |series: &[(u64, f64)], slice: u64| -> String {
        series
            .iter()
            .find(|&&(s, _)| s == slice)
            .map(|&(_, a)| format!("{a:.4}"))
            .unwrap_or_else(|| String::from(""))
    };
    for &(slice, overall) in &pair.overall {
        t.row(vec![
            slice.to_string(),
            lookup(&pair.dependent_series, slice),
            lookup(&pair.independent_series, slice),
            format!("{overall:.4}"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Scale;

    #[test]
    fn dependent_series_varies_more_than_independent() {
        // twolf: the Metropolis acceptance branch drifts with temperature at
        // any scale, giving a structural (not noise-limited) phase signal
        let mut ctx = Context::new(Scale::Tiny);
        let pair = compute(&mut ctx, "twolf");
        assert_ne!(pair.dependent_site, pair.independent_site);
        // standard deviation, not range: the contrast the paper draws is
        // sustained phase variation, and a range comparison is dominated by
        // single noisy slices at tiny run scales
        let spread = |series: &[(u64, f64)]| -> f64 {
            if series.is_empty() {
                return 0.0;
            }
            let n = series.len() as f64;
            let mean = series.iter().map(|&(_, a)| a).sum::<f64>() / n;
            (series
                .iter()
                .map(|&(_, a)| (a - mean) * (a - mean))
                .sum::<f64>()
                / n)
                .sqrt()
        };
        assert!(
            spread(&pair.dependent_series) > spread(&pair.independent_series),
            "dependent {:.3} vs independent {:.3}",
            spread(&pair.dependent_series),
            spread(&pair.independent_series)
        );
        assert!(!pair.overall.is_empty());
    }

    #[test]
    fn dependent_branch_shows_phase_structure() {
        let mut ctx = Context::new(Scale::Tiny);
        let pair = compute(&mut ctx, "twolf");
        let (dep_phases, _indep_phases) = phase_summary(&pair);
        // phases tile the series
        let covered: usize = dep_phases.iter().map(|p| p.len()).sum();
        assert_eq!(covered, pair.dependent_series.len());
        assert!(
            dep_phases.len() >= 2,
            "the 2D-flagged branch should show phases: {dep_phases:?}"
        );
    }

    #[test]
    fn table_has_one_row_per_slice() {
        let mut ctx = Context::new(Scale::Tiny);
        let t = run(&mut ctx, "twolf");
        assert!(t.len() > 20, "expect many slices, got {}", t.len());
    }
}
