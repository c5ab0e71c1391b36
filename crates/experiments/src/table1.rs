//! Table 1: average branch misprediction rate per benchmark and input set
//! (train and ref, 4 KB gshare).

use crate::tablefmt::pct;
use crate::{Context, PredictorKind, ProfileRequest, Table};
use workloads::Scale;

/// Renders Table 1.
pub fn run(ctx: &mut Context) -> Table {
    let mut t = Table::new(
        "Table 1: average branch misprediction rates (%) (4KB gshare)",
        &["benchmark", "train", "ref"],
    );
    for w in ctx.suite() {
        let mut cells = vec![w.name().to_owned()];
        for input_name in ["train", "ref"] {
            let p = ctx.accuracy(
                ProfileRequest::accuracy(w.name(), PredictorKind::Gshare4Kb).input(input_name),
            );
            cells.push(pct(p.overall_misprediction_rate()));
        }
        t.row(cells);
    }
    t
}

/// Misprediction-rate pairs `(benchmark, train, ref)` for programmatic use.
pub fn compute(ctx: &mut Context) -> Vec<(&'static str, f64, f64)> {
    ctx.suite()
        .iter()
        .map(|w| {
            let base = ProfileRequest::accuracy(w.name(), PredictorKind::Gshare4Kb);
            let tp = ctx
                .accuracy(base.clone())
                .overall_misprediction_rate()
                .expect("non-empty run");
            let rp = ctx
                .accuracy(base.input("ref"))
                .overall_misprediction_rate()
                .expect("non-empty run");
            (w.name(), tp, rp)
        })
        .collect()
}

/// The runs [`run`] and [`compute`] read: every workload's gshare train
/// and ref profiles.
pub fn plan(scale: Scale) -> Vec<ProfileRequest> {
    crate::gshare_train_ref_plan(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_sane() {
        let mut ctx = Context::new(Scale::Tiny);
        let rows = compute(&mut ctx);
        assert_eq!(rows.len(), 12);
        for (name, train, reference) in rows {
            assert!(
                (0.0..0.5).contains(&train),
                "{name} train misprediction {train}"
            );
            assert!(
                (0.0..0.5).contains(&reference),
                "{name} ref misprediction {reference}"
            );
        }
    }

    #[test]
    fn table_renders_every_benchmark() {
        let mut ctx = Context::new(Scale::Tiny);
        assert_eq!(run(&mut ctx).len(), 12);
    }
}
