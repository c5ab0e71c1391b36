//! Figures 11 and 14: growth of the input-dependent branch set as more
//! input sets are considered — Figure 11 under the 4 KB gshare target,
//! Figure 14 under the 16 KB perceptron target.

use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use workloads::{Scale, EXTENDED_BENCHMARKS};

/// The largest comparison set for a benchmark: `ref` and every extra
/// input set.
pub fn max_set(scale: Scale, workload: &str) -> Vec<&'static str> {
    let w = crate::context::workload(workload, scale);
    let mut set = vec!["ref"];
    set.extend(crate::context::ext_inputs(&*w));
    set
}

/// The cumulative comparison-set names for a benchmark: `base` is
/// `[ref]`, `base-ext1` is `[ref, ext-1]`, and so on.
pub fn cumulative_sets(ctx: &Context, workload: &str) -> Vec<Vec<&'static str>> {
    let all = max_set(ctx.scale(), workload);
    (1..=all.len()).map(|k| all[..k].to_vec()).collect()
}

/// Static input-dependent fraction for each cumulative set of one benchmark.
pub fn growth(ctx: &mut Context, workload: &str, kind: PredictorKind) -> Vec<Option<f64>> {
    let base = ProfileRequest::accuracy(workload, kind);
    cumulative_sets(ctx, workload)
        .iter()
        .map(|set| ctx.truth(base.clone(), set).static_fraction())
        .collect()
}

/// Renders Figure 11 (gshare) or Figure 14 (perceptron), depending on
/// `kind`.
pub fn run(ctx: &mut Context, kind: PredictorKind) -> Table {
    let title = match kind {
        PredictorKind::Gshare4Kb => {
            "Figure 11: input-dependent fraction growth with more input sets (gshare target)"
        }
        PredictorKind::Perceptron16Kb => {
            "Figure 14: input-dependent fraction growth with more input sets (perceptron target)"
        }
        other => panic!("no figure is defined for the {other} target"),
    };
    let max_sets = EXTENDED_BENCHMARKS
        .iter()
        .map(|b| max_set(ctx.scale(), b).len())
        .max()
        .unwrap_or(1);
    let labels: Vec<String> = (0..max_sets)
        .map(|k| {
            if k == 0 {
                "base".to_owned()
            } else {
                format!("base-ext1-{k}")
            }
        })
        .collect();
    let mut header = vec!["benchmark".to_owned()];
    header.extend(labels);
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(title, &header_refs);
    for b in EXTENDED_BENCHMARKS {
        let fractions = growth(ctx, b, kind);
        let mut row = vec![(*b).to_owned()];
        for k in 0..max_sets {
            row.push(match fractions.get(k) {
                Some(f) => pct(*f),
                None => String::new(),
            });
        }
        t.row(row);
    }
    t
}

/// The runs [`run`] reads under the `kind` target: every extended
/// benchmark's profiles on train, ref and each extra input set.
pub fn plan(scale: Scale, kind: PredictorKind) -> Vec<ProfileRequest> {
    EXTENDED_BENCHMARKS
        .iter()
        .flat_map(|b| Context::truth_plan(&ProfileRequest::accuracy(b, kind), &max_set(scale, b)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_grows_monotonically() {
        // "The fraction of input-dependent branches monotonically increases
        // as more and more input sets are used."
        let mut ctx = Context::new(Scale::Tiny);
        for b in ["gzip", "gcc"] {
            let g = growth(&mut ctx, b, PredictorKind::Gshare4Kb);
            assert!(g.len() >= 5, "{b} should have several ext inputs");
            for w in g.windows(2) {
                assert!(
                    w[1].unwrap_or(0.0) >= w[0].unwrap_or(0.0) - 1e-12,
                    "{b}: fraction must not shrink: {:?}",
                    g
                );
            }
            assert!(
                g.last().unwrap().unwrap_or(0.0) > g[0].unwrap_or(0.0),
                "{b}: more inputs should expose more dependence: {g:?}"
            );
        }
    }

    #[test]
    fn perceptron_variant_also_grows() {
        let mut ctx = Context::new(Scale::Tiny);
        let g = growth(&mut ctx, "crafty", PredictorKind::Perceptron16Kb);
        assert!(
            g.last().unwrap().unwrap_or(0.0) >= g[0].unwrap_or(0.0),
            "{g:?}"
        );
    }

    #[test]
    fn cumulative_sets_shapes() {
        let ctx = Context::new(Scale::Tiny);
        let sets = cumulative_sets(&ctx, "gzip");
        assert_eq!(sets[0], vec!["ref"]);
        assert_eq!(sets[1], vec!["ref", "ext-1"]);
        assert_eq!(sets.last().unwrap().len(), 7, "ref + 6 ext inputs");
    }
}
