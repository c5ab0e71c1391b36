//! Plan completeness: every experiment's `plan` must list every simulation
//! its renderer reads. A renderer that reads an unplanned request still
//! works, but resolves it one job at a time after the parallel sweep — the
//! serial tail plan-then-execute removed. This test catches a plan drifting
//! from its renderer.

use experiments::registry::{self, ALL};
use experiments::Context;
use std::sync::Arc;
use twodprof_engine::{Engine, EngineConfig, JobBackend};
use workloads::Scale;

#[test]
fn plans_cover_their_renderers() {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let context = || Context::with_backend(Scale::Tiny, engine.clone() as Arc<dyn JobBackend>);

    // `repro all`: the union of every plan, then every renderer
    let mut ctx = context();
    let plan: Vec<_> = ALL
        .iter()
        .flat_map(|e| registry::plan(e, Scale::Tiny))
        .collect();
    let results = ctx.run_plan(&plan);
    assert!(results.iter().all(|r| r.status.is_success()));
    let jobs = engine.counters().total();
    for e in ALL {
        assert!(!registry::render(&mut ctx, e, 1).is_empty(), "{e}");
        assert_eq!(
            engine.counters().total(),
            jobs,
            "{e} ran a job outside the plan"
        );
        assert_eq!(ctx.fallbacks(), 0, "{e} resolved an unplanned request");
    }

    // `repro <experiment>`: each plan alone covers its renderer. The
    // engine memo already holds every result, so these plans run from
    // memory; the fresh context's fallback count still tells.
    for e in ALL.iter().copied().chain(["detail:gzip"]) {
        let mut ctx = context();
        ctx.run_plan(&registry::plan(e, Scale::Tiny));
        registry::render(&mut ctx, e, 1);
        assert_eq!(
            ctx.fallbacks(),
            0,
            "{e} alone resolved an unplanned request"
        );
    }
}
