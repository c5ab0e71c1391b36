//! Golden-report regression suite: every built-in workload × evaluation
//! predictor, profiled at `Scale::Tiny` on the fixed `train` input, must
//! serialize to exactly the bytes checked in under `tests/golden/`
//! (`<workload>__<kind>.bin`, one 2D report each). The extension targets
//! of the predictor-comparison experiment are pinned the same way through
//! their per-site accuracy profiles (`<workload>__<kind>.acc`), so a TAGE
//! or gshare+loop kernel change cannot move results unnoticed.
//!
//! The whole pipeline is deterministic (seeded workload generators, integer
//! event streams, fixed fold order), so any byte difference is a behaviour
//! change in the profiler/predictor stack — intentional changes regenerate
//! the files with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p experiments --test golden
//! ```
//!
//! On failure the actual bytes are written to `target/golden-diff/` so CI
//! can upload them as artifacts for offline comparison.

use bpred::PredictorKind;
use experiments::{Context, ProfileMode, ProfileRequest};
use std::fs;
use std::path::{Path, PathBuf};
use workloads::Scale;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn diff_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/golden-diff")
}

fn updating() -> bool {
    std::env::var("UPDATE_GOLDEN")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Extension-target predictors pinned by accuracy-profile goldens.
const ACCURACY_KINDS: [PredictorKind; 2] = [PredictorKind::Tage8Kb, PredictorKind::GshareLoop4Kb];

/// Every golden file: its name and the request whose result it pins.
fn golden_grid(ctx: &Context) -> Vec<(String, ProfileRequest)> {
    let mut grid = Vec::new();
    for workload in ctx.suite() {
        let name = workload.name();
        for kind in PredictorKind::ALL {
            grid.push((
                format!("{name}__{}.bin", kind.id()),
                ProfileRequest::two_d(name, kind),
            ));
        }
        for kind in ACCURACY_KINDS {
            grid.push((
                format!("{name}__{}.acc", kind.id()),
                ProfileRequest::accuracy(name, kind),
            ));
        }
    }
    grid
}

fn golden_bytes(ctx: &mut Context, req: ProfileRequest) -> Vec<u8> {
    match req.mode() {
        ProfileMode::Accuracy => {
            let mut bytes = Vec::new();
            ctx.accuracy(req)
                .write_to(&mut bytes)
                .expect("write to a Vec");
            bytes
        }
        _ => ctx.two_d(req).to_bytes(),
    }
}

#[test]
fn reports_match_golden_files() {
    let update = updating();
    let golden = golden_dir();
    if update {
        fs::create_dir_all(&golden).expect("create golden dir");
    }
    let mut ctx = Context::new(Scale::Tiny);
    let mut mismatches = Vec::new();
    for (name, req) in golden_grid(&ctx) {
        let actual = golden_bytes(&mut ctx, req);
        let path = golden.join(&name);
        if update {
            fs::write(&path, &actual).expect("write golden file");
            continue;
        }
        let expected = fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with \
                 UPDATE_GOLDEN=1 cargo test -p experiments --test golden",
                path.display()
            )
        });
        if actual != expected {
            let dir = diff_dir();
            fs::create_dir_all(&dir).expect("create diff dir");
            fs::write(dir.join(&name), &actual).expect("write diff file");
            mismatches.push(name);
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} golden report(s) changed: {mismatches:?}\n\
         actual bytes are under {}; if the change is intentional, regenerate \
         with UPDATE_GOLDEN=1 cargo test -p experiments --test golden",
        mismatches.len(),
        diff_dir().display()
    );
}

#[test]
fn golden_files_cover_the_full_grid() {
    if updating() {
        return; // the regeneration pass itself establishes coverage
    }
    let ctx = Context::new(Scale::Tiny);
    let mut expected: Vec<String> = golden_grid(&ctx).into_iter().map(|(n, _)| n).collect();
    let mut present: Vec<String> = fs::read_dir(golden_dir())
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().into_string().ok())
                .filter(|name| name.ends_with(".bin") || name.ends_with(".acc"))
                .collect()
        })
        .unwrap_or_default();
    expected.sort_unstable();
    present.sort_unstable();
    assert_eq!(
        present, expected,
        "expected one golden file per workload × predictor; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p experiments --test golden"
    );
}
