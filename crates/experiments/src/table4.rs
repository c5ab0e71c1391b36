//! Table 4: the extra input sets used in §5.2/§5.3 and their
//! characteristics — branch counts, misprediction rates under both
//! predictors, and the number of input-dependent branches each induces
//! with respect to the train input.

use crate::tablefmt::{count, pct};
use crate::{Context, PredictorKind, ProfileRequest, Table};
use workloads::{Scale, EXTENDED_BENCHMARKS};

/// Renders Table 4.
pub fn run(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Table 4: extra input sets and their characteristics",
        &[
            "benchmark",
            "input",
            "description",
            "branch_count",
            "misp(gshare)",
            "misp(percep)",
            "input-dep(gshare)",
            "input-dep(percep)",
        ],
    );
    for b in EXTENDED_BENCHMARKS {
        let w = ctx.workload(b);
        for input in w.input_sets() {
            if !input.name.starts_with("ext-") {
                continue;
            }
            let branches = ctx.count(ProfileRequest::count(b).input(input.name));
            let gsh = ctx
                .accuracy(ProfileRequest::accuracy(b, PredictorKind::Gshare4Kb).input(input.name));
            let per = ctx.accuracy(
                ProfileRequest::accuracy(b, PredictorKind::Perceptron16Kb).input(input.name),
            );
            let dep_g = ctx
                .truth(
                    ProfileRequest::accuracy(b, PredictorKind::Gshare4Kb),
                    &[input.name],
                )
                .dependent_count();
            let dep_p = ctx
                .truth(
                    ProfileRequest::accuracy(b, PredictorKind::Perceptron16Kb),
                    &[input.name],
                )
                .dependent_count();
            t.row(vec![
                w.name().to_owned(),
                input.name.to_owned(),
                input.description.to_owned(),
                count(branches),
                pct(gsh.overall_misprediction_rate()),
                pct(per.overall_misprediction_rate()),
                dep_g.to_string(),
                dep_p.to_string(),
            ]);
        }
    }
    t
}

/// The runs [`run`] reads: for every extra input set of the extended
/// benchmarks, its count and its gshare and perceptron profiles, plus the
/// train profiles its ground truth compares against.
pub fn plan(scale: Scale) -> Vec<ProfileRequest> {
    let mut plan = Vec::new();
    for b in EXTENDED_BENCHMARKS {
        for input in crate::context::ext_inputs(&*crate::context::workload(b, scale)) {
            plan.push(ProfileRequest::count(b).input(input));
            for kind in [PredictorKind::Gshare4Kb, PredictorKind::Perceptron16Kb] {
                plan.extend(Context::truth_plan(
                    &ProfileRequest::accuracy(b, kind),
                    &[input],
                ));
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_every_ext_input_of_extended_benchmarks() {
        let mut ctx = Context::new(Scale::Tiny);
        let expected: usize = EXTENDED_BENCHMARKS
            .iter()
            .map(|b| crate::context::ext_inputs(&*ctx.workload(b)).len())
            .sum();
        let t = run(&mut ctx);
        assert_eq!(t.len(), expected);
        assert!(expected >= 24, "paper-scale ext coverage, got {expected}");
    }
}
