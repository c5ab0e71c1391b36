//! The experiment registry behind the `repro` binary: every experiment's
//! name, plan, trace-span name and renderer.
//!
//! Running experiments is plan-then-execute. [`plan`] lists the
//! simulations an experiment reads without running anything; the caller
//! runs the union of the requested plans as one batch
//! ([`Context::run_plan`]), and [`render`] then builds each experiment's
//! output from memory.

use crate::{
    ablation, bias_cmp, detail, fig02, fig03, fig04_05, fig06_07, fig08, fig10, fig11_14, fig12_13,
    fig15, fig16, predictors_cmp, table1, table2, table4, Context, PredictorKind, ProfileRequest,
    Table,
};
use workloads::Scale;

/// The experiments of `repro all`, in run order.
pub const ALL: &[&str] = &[
    "fig2", "fig3", "fig4", "fig5", "table1", "table2", "fig6", "fig7", "fig8", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "table4", "fig16", "ablation", "bias2d", "predcmp",
];

/// Experiments accepted on the command line but not part of `all` (they
/// take an argument or are drill-downs). `detail <workload>` is named
/// `detail:<workload>` in the functions below.
pub const EXTRA: &[&str] = &["detail"];

/// Timing repetitions per mode in Figure 16.
pub const FIG16_REPEATS: u32 = 7;

/// The workload Figure 8 plots.
const FIG8_WORKLOAD: &str = "gap";

/// One piece of an experiment's output.
#[derive(Clone, Debug)]
pub enum Output {
    /// A table, with the name its CSV file takes.
    Table {
        /// CSV file stem.
        name: String,
        /// The table.
        table: Table,
    },
    /// A free-text line printed after the tables.
    Note(String),
}

impl Output {
    fn table(name: &str, table: Table) -> Self {
        Output::Table {
            name: name.to_owned(),
            table,
        }
    }
}

/// The workload of a `detail:<workload>` experiment name.
fn detail_workload(experiment: &str) -> Option<&str> {
    experiment.strip_prefix("detail:")
}

/// The simulations `experiment` reads, at `scale`. Pure: it names jobs
/// and runs none.
///
/// # Panics
///
/// Panics on a name that is neither in [`ALL`] nor `detail:<workload>`.
pub fn plan(experiment: &str, scale: Scale) -> Vec<ProfileRequest> {
    match experiment {
        "fig2" => Vec::new(),
        "fig3" => fig03::plan(scale),
        "fig4" | "fig5" => fig04_05::plan(scale),
        "table1" => table1::plan(scale),
        "table2" => table2::plan(scale),
        "fig6" | "fig7" => fig06_07::plan(scale),
        "fig8" => fig08::plan(FIG8_WORKLOAD),
        "fig10" => fig10::plan(scale),
        "fig11" => fig11_14::plan(scale, PredictorKind::Gshare4Kb),
        "fig12" | "fig13" => fig12_13::plan(scale),
        "fig14" => fig11_14::plan(scale, PredictorKind::Perceptron16Kb),
        "fig15" => fig15::plan(scale),
        "table4" => table4::plan(scale),
        "fig16" => fig16::plan(),
        "ablation" => ablation::plan(),
        "bias2d" => bias_cmp::plan(scale),
        "predcmp" => predictors_cmp::plan(scale),
        other => match detail_workload(other) {
            Some(w) => detail::plan(scale, w),
            None => panic!("unknown experiment {other:?}"),
        },
    }
}

/// The static name of the trace span that covers rendering `experiment`.
pub fn span_name(experiment: &str) -> &'static str {
    match experiment {
        "fig2" => "repro.exp.fig2",
        "fig3" => "repro.exp.fig3",
        "fig4" => "repro.exp.fig4",
        "fig5" => "repro.exp.fig5",
        "table1" => "repro.exp.table1",
        "table2" => "repro.exp.table2",
        "fig6" => "repro.exp.fig6",
        "fig7" => "repro.exp.fig7",
        "fig8" => "repro.exp.fig8",
        "fig10" => "repro.exp.fig10",
        "fig11" => "repro.exp.fig11",
        "fig12" => "repro.exp.fig12",
        "fig13" => "repro.exp.fig13",
        "fig14" => "repro.exp.fig14",
        "fig15" => "repro.exp.fig15",
        "table4" => "repro.exp.table4",
        "fig16" => "repro.exp.fig16",
        "ablation" => "repro.exp.ablation",
        "bias2d" => "repro.exp.bias2d",
        "predcmp" => "repro.exp.predcmp",
        _ => "repro.exp.detail",
    }
}

/// Builds `experiment`'s tables and notes. Reads every simulation through
/// `ctx`, so after [`Context::run_plan`] over the experiment's [`plan`] it
/// only hits memory. Figure 16 times each mode over `fig16_repeats` live
/// runs.
///
/// # Panics
///
/// Panics on a name that is neither in [`ALL`] nor `detail:<workload>`.
pub fn render(ctx: &mut Context, experiment: &str, fig16_repeats: u32) -> Vec<Output> {
    let one = |name: &str, table: Table| vec![Output::table(name, table)];
    match experiment {
        "fig2" => vec![
            Output::table("fig2", fig02::run()),
            Output::Note(format!(
                "crossover misprediction rate: {:.2}% (paper: ~7%)\n",
                fig02::crossover() * 100.0
            )),
        ],
        "fig3" => one("fig3", fig03::run(ctx)),
        "fig4" => one("fig4", fig04_05::run_fig4(ctx)),
        "fig5" => one("fig5", fig04_05::run_fig5(ctx)),
        "table1" => one("table1", table1::run(ctx)),
        "table2" => one("table2", table2::run(ctx)),
        "fig6" | "fig7" => {
            // both example-branch tables are produced together; keep the
            // requested one
            let mut tables = fig06_07::run(ctx);
            one(experiment, tables.remove(usize::from(experiment == "fig7")))
        }
        "fig8" => {
            let table = fig08::run(ctx, FIG8_WORKLOAD);
            let pair = fig08::compute(ctx, FIG8_WORKLOAD);
            let (dep, indep) = fig08::phase_summary(&pair);
            let fmt = |ps: &[twodprof_core::Phase]| {
                ps.iter()
                    .map(|p| format!("[{}..{}) {:.2}", p.start, p.end, p.mean))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            vec![
                Output::table("fig8", table),
                Output::Note(format!(
                    "detected phases — dependent branch: {} | independent branch: {}\n",
                    fmt(&dep),
                    fmt(&indep)
                )),
            ]
        }
        "fig10" => one("fig10", fig10::run(ctx)),
        "fig11" => one("fig11", fig11_14::run(ctx, PredictorKind::Gshare4Kb)),
        "fig12" => one("fig12", fig12_13::run_fig12(ctx)),
        "fig13" => one("fig13", fig12_13::run_fig13(ctx)),
        "fig14" => one("fig14", fig11_14::run(ctx, PredictorKind::Perceptron16Kb)),
        "fig15" => one("fig15", fig15::run(ctx)),
        "table4" => one("table4", table4::run(ctx)),
        "fig16" => one("fig16", fig16::run(ctx, fig16_repeats)),
        "ablation" => vec![
            Output::table("ablation_thresholds", ablation::run_thresholds(ctx)),
            Output::table("ablation_slice", ablation::run_slice(ctx)),
            Output::table("ablation_tests", ablation::run_tests_onoff(ctx)),
            Output::table("ablation_delta", ablation::run_delta(ctx)),
        ],
        "bias2d" => one("bias2d", bias_cmp::run(ctx)),
        "predcmp" => one("predcmp", predictors_cmp::run(ctx)),
        other => match detail_workload(other) {
            Some(w) => one(&format!("detail_{w}"), detail::run(ctx, w)),
            None => panic!("unknown experiment {other:?}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_has_a_distinct_span() {
        let mut names: Vec<&str> = ALL.iter().map(|e| span_name(e)).collect();
        names.push(span_name("detail:gzip"));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        for (e, name) in ALL.iter().zip(ALL.iter().map(|e| span_name(e))) {
            assert_eq!(name, format!("repro.exp.{e}"));
        }
    }

    #[test]
    fn fig2_plans_nothing() {
        assert!(plan("fig2", Scale::Tiny).is_empty());
    }

    #[test]
    fn detail_plans_its_workload() {
        let p = plan("detail:gzip", Scale::Tiny);
        assert!(p.iter().all(|r| r.workload_name() == "gzip"));
        assert!(p
            .iter()
            .any(|r| r.mode() == crate::ProfileMode::TwoD && r.input_name() == "train"));
    }
}
