//! Table 2: evaluated benchmarks, input sets and their characteristics —
//! dynamic branch counts, modeled instruction counts, and static
//! conditional-branch counts (input-dependent / total).

use crate::tablefmt::count;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use workloads::Scale;

/// Renders Table 2. Instruction counts are modeled as
/// `branches x instructions_per_branch` (see `DESIGN.md`: the profiling
/// algorithm never consumes instruction counts; they are reporting
/// cosmetics in the paper).
pub fn run(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Table 2: benchmarks, input sets and characteristics",
        &[
            "benchmark",
            "input",
            "inst.count(modeled)",
            "cond.br.count",
            "static.executed",
            "input-dep",
            "static.total",
        ],
    );
    for w in ctx.suite() {
        let base = ProfileRequest::accuracy(w.name(), PredictorKind::Gshare4Kb);
        let gt = ctx.truth(base.clone(), &["ref"]);
        for input in w.input_sets().iter().take(2) {
            let branches = ctx.count(ProfileRequest::count(w.name()).input(input.name));
            let profile = ctx.accuracy(base.clone().input(input.name));
            let executed = profile.iter_executed().count();
            t.row(vec![
                w.name().to_owned(),
                input.name.to_owned(),
                count((branches as f64 * w.instructions_per_branch()) as u64),
                count(branches),
                executed.to_string(),
                gt.dependent_count().to_string(),
                w.sites().len().to_string(),
            ]);
        }
    }
    t
}

/// The runs [`run`] reads: every workload's gshare train/ref ground truth,
/// plus the count and gshare profile of its first two input sets.
pub fn plan(scale: Scale) -> Vec<ProfileRequest> {
    let mut plan = Vec::new();
    for w in workloads::suite(scale) {
        let base = ProfileRequest::accuracy(w.name(), PredictorKind::Gshare4Kb);
        plan.extend(Context::truth_plan(&base, &["ref"]));
        for input in w.input_sets().iter().take(2) {
            plan.push(ProfileRequest::count(w.name()).input(input.name));
            plan.push(base.clone().input(input.name));
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rows_per_benchmark() {
        let mut ctx = Context::new(Scale::Tiny);
        let t = run(&mut ctx);
        assert_eq!(t.len(), 24);
    }
}
