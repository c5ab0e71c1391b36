//! Exactness oracle for the batched ablations.
//!
//! The ablation tables used to re-run every benchmark live, once per
//! threshold setting and slice length. They now re-classify one engine 2D
//! report per benchmark ([`ProfileReport::with_thresholds`]) and run each
//! slice length as an engine job. This suite keeps the old live path as
//! the reference and checks both replacements against it with full
//! equality, so any drift between the paths fails here, not in a figure.

use bpred::Gshare;
use experiments::ablation::{threshold_configs, SLICE_LENGTHS};
use experiments::{Context, PredictorKind, ProfileRequest};
use twodprof_core::{SliceConfig, Thresholds, TwoDProfiler};
use workloads::{Scale, EXTENDED_BENCHMARKS};

/// The old ablation's live profiler for benchmark `b`'s train run: a
/// 4 KB gshare with the given slice configuration, not yet finished.
fn live_profiler(ctx: &Context, b: &str, config: SliceConfig) -> TwoDProfiler<Gshare> {
    let w = ctx.workload(b);
    let input = w.input_set("train").expect("train exists");
    let mut prof = TwoDProfiler::new(w.sites().len(), Gshare::new_4kb(), config);
    w.run(&input, &mut prof);
    prof
}

#[test]
fn threshold_reclassification_equals_live_finish() {
    let mut ctx = Context::new(Scale::Tiny);
    let configs = threshold_configs();
    assert_eq!(configs.len(), 19, "15 swept settings and 4 test on/off");
    for b in EXTENDED_BENCHMARKS {
        let report = ctx.two_d(ProfileRequest::two_d(b, PredictorKind::Gshare4Kb));
        let total = ctx.count(ProfileRequest::count(b));
        let live = live_profiler(&ctx, b, SliceConfig::auto(total));
        for &t in &configs {
            assert_eq!(
                report.with_thresholds(t),
                live.clone().finish(t),
                "{b} under {t:?}"
            );
        }
    }
}

#[test]
fn slice_override_jobs_equal_live_runs() {
    let mut ctx = Context::new(Scale::Tiny);
    let cases: Vec<(&str, u64)> = EXTENDED_BENCHMARKS
        .iter()
        .flat_map(|&b| SLICE_LENGTHS.iter().map(move |&len| (b, len)))
        .collect();
    let request = |b: &str, len| ProfileRequest::two_d(b, PredictorKind::Gshare4Kb).slice_len(len);
    let plan: Vec<ProfileRequest> = cases.iter().map(|&(b, len)| request(b, len)).collect();
    assert!(ctx.run_plan(&plan).iter().all(|r| r.status.is_success()));
    for (b, len) in cases {
        let report = ctx.two_d(request(b, len));
        // the old ablation's explicit slice configuration
        let config = SliceConfig::new(len, (len / 15_000).max(16).min(len - 1));
        let live = live_profiler(&ctx, b, config).finish(Thresholds::paper());
        assert_eq!(*report, live, "{b} at slice length {len}");
    }
    assert_eq!(ctx.fallbacks(), 0, "the plan covered every override");
}
