//! Per-benchmark drill-down: the per-branch table the paper defers to its
//! extended version \[11\]. For one workload, reports every static branch's
//! profile statistics, 2D classification, and ground-truth label side by
//! side.

use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use twodprof_core::InputDependence;
use workloads::Scale;

/// Renders the per-branch detail table for `workload`.
pub fn run(ctx: &mut Context, workload: &str) -> Table {
    let w = ctx.workload(workload);
    let report = ctx.two_d(ProfileRequest::two_d(workload, PredictorKind::Gshare4Kb));
    let set = crate::fig11_14::max_set(ctx.scale(), workload);
    let gt = ctx.truth(
        ProfileRequest::accuracy(workload, PredictorKind::Gshare4Kb),
        &set,
    );
    let mut t = Table::new(
        &format!("Per-branch detail: {workload} (train profile vs. max-input ground truth)"),
        &[
            "branch",
            "kind",
            "execs",
            "slices",
            "mean_acc",
            "std",
            "PAM",
            "MEAN/STD/PAM",
            "2D_verdict",
            "ground_truth",
        ],
    );
    for (i, decl) in w.sites().iter().enumerate() {
        let site = btrace::SiteId(i as u32);
        let s = report.stats(site);
        let tests = s
            .outcomes
            .map(|o| {
                format!(
                    "{}{}{}",
                    if o.mean { "M" } else { "-" },
                    if o.std { "S" } else { "-" },
                    if o.pam { "P" } else { "-" }
                )
            })
            .unwrap_or_else(|| "---".to_owned());
        let truth = match gt.label(site) {
            InputDependence::Dependent => "dependent",
            InputDependence::Independent => "independent",
            InputDependence::Unobserved => "unobserved",
        };
        t.row(vec![
            decl.name.to_owned(),
            decl.kind.to_string(),
            s.executions.to_string(),
            s.slices.to_string(),
            pct(s.mean),
            s.std_dev.map(|v| format!("{v:.3}")).unwrap_or_default(),
            s.pam_fraction
                .map(|v| format!("{v:.2}"))
                .unwrap_or_default(),
            tests,
            s.classification.to_string(),
            truth.to_owned(),
        ]);
    }
    t
}

/// The runs [`run`] reads for `workload`: its gshare 2D profile and its
/// gshare profiles on train, ref and every extra input set.
pub fn plan(scale: Scale, workload: &str) -> Vec<ProfileRequest> {
    let mut plan = Context::truth_plan(
        &ProfileRequest::accuracy(workload, PredictorKind::Gshare4Kb),
        &crate::fig11_14::max_set(scale, workload),
    );
    plan.push(ProfileRequest::two_d(workload, PredictorKind::Gshare4Kb));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detail_covers_every_site() {
        let mut ctx = Context::new(Scale::Tiny);
        let w = ctx.workload("gzip");
        let t = run(&mut ctx, "gzip");
        assert_eq!(t.len(), w.sites().len());
        let rendered = t.render();
        assert!(rendered.contains("hash_chain_exit"));
        assert!(rendered.contains("input-"));
    }
}
