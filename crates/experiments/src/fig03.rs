//! Figure 3: dynamic and static fraction of input-dependent branches per
//! benchmark (train vs. ref, 4 KB gshare), sorted by dynamic fraction.

use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use workloads::Scale;

/// One benchmark's Figure 3 data point.
#[derive(Clone, Debug)]
pub struct Fractions {
    /// Benchmark name.
    pub name: &'static str,
    /// Fraction of dynamic branch instances belonging to input-dependent
    /// static branches (weighted by the ref run).
    pub dynamic: Option<f64>,
    /// Fraction of observed static branches that are input-dependent.
    pub static_frac: Option<f64>,
}

/// Computes the Figure 3 fractions for every benchmark, sorted descending by
/// dynamic fraction (the paper's presentation order).
pub fn compute(ctx: &mut Context) -> Vec<Fractions> {
    let mut rows = Vec::new();
    for w in ctx.suite() {
        let base = ProfileRequest::accuracy(w.name(), PredictorKind::Gshare4Kb);
        let gt = ctx.truth(base.clone(), &["ref"]);
        let ref_profile = ctx.accuracy(base.input("ref"));
        rows.push(Fractions {
            name: w.name(),
            dynamic: gt.dynamic_fraction(&ref_profile),
            static_frac: gt.static_fraction(),
        });
    }
    rows.sort_by(|a, b| {
        b.dynamic
            .unwrap_or(0.0)
            .partial_cmp(&a.dynamic.unwrap_or(0.0))
            .expect("fractions are finite")
    });
    rows
}

/// Renders Figure 3 as a table.
pub fn run(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Figure 3: fraction of input-dependent branches (train vs ref, 4KB gshare)",
        &["benchmark", "dynamic_fraction", "static_fraction"],
    );
    for f in compute(ctx) {
        t.row(vec![f.name.to_owned(), pct(f.dynamic), pct(f.static_frac)]);
    }
    t
}

/// The runs [`compute`] reads: every workload's gshare train and ref
/// profiles.
pub fn plan(scale: Scale) -> Vec<ProfileRequest> {
    crate::gshare_train_ref_plan(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_all_benchmarks_sorted() {
        let mut ctx = Context::new(Scale::Tiny);
        let rows = compute(&mut ctx);
        assert_eq!(rows.len(), 12);
        for w in rows.windows(2) {
            assert!(w[0].dynamic.unwrap_or(0.0) >= w[1].dynamic.unwrap_or(0.0));
        }
        // the shape claim: at least some benchmarks have a nontrivial
        // input-dependent fraction, and not everything is input-dependent
        let nontrivial = rows
            .iter()
            .filter(|f| f.static_frac.unwrap_or(0.0) > 0.10)
            .count();
        assert!(nontrivial >= 3, "some benchmarks must be input-dependent");
        let small = rows
            .iter()
            .filter(|f| f.static_frac.unwrap_or(1.0) < 0.4)
            .count();
        assert!(small >= 3, "others must be mostly input-independent");
    }
}
