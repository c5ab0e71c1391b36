//! `repro-all`: `repro --jobs <nproc> all` at tiny scale, a cold pass on an
//! empty cache directory and then a warm pass over the same directory —
//! what a reproducer runs.

use crate::digest::{strip_fig16, text_digest};
use crate::layers;
use crate::proc::{fresh_dir, run_child, ChildRun};
use crate::report::{Metric, Outcome};
use crate::spans;
use crate::{Ctx, Tally};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;
use twodprof_obs::chrome::parse_events;
use twodprof_obs::trace::{collector, ExportSpan, Span, TraceContext};
use workloads::Scale;

/// Digest of `repro --scale tiny all` stdout with Figure 16 removed.
/// The simulators are deterministic, so any change to it is a change in
/// the reproduction's results.
pub const TINY_DIGEST: u64 = 0xb554_87f1_2bfc_f29d;

/// The experiments of `repro all`, in run order, as their `[X done in D]`
/// stderr lines name them.
pub const ARTIFACTS: [&str; 20] = [
    "fig2", "fig3", "fig4", "fig5", "table1", "table2", "fig6", "fig7", "fig8", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "table4", "fig16", "ablation", "bias2d", "predcmp",
];

/// Set-up of one pass: a smoke run that shows the binary starts and
/// simulates. Its output is piped, not written to files, so the set-up
/// times the program alone.
fn setup(ctx: &Ctx) -> Result<(), String> {
    let out = Command::new(&ctx.repro)
        .args(["--scale", "tiny", "--no-cache", "fig2"])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start repro: {e}"))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let last = stderr.lines().last().unwrap_or("");
        return Err(format!(
            "repro smoke run exited with {}: {last}",
            out.status
        ));
    }
    Ok(())
}

/// One `repro all` pass over `dir/cache`; checks its stdout, less
/// Figure 16, against the committed digest and returns it.
fn pass(
    ctx: &Ctx,
    dir: &Path,
    tag: &str,
    traced: bool,
    tally: &mut Tally,
) -> Result<(ChildRun, String), String> {
    let trace_out = dir.join(format!("{tag}.json"));
    let mut cmd = Command::new(&ctx.repro);
    cmd.args(["--scale", "tiny", "--jobs"])
        .arg(ctx.nproc.to_string())
        .arg("--cache-dir")
        .arg(dir.join("cache"));
    if traced {
        cmd.arg("--metrics").arg("--trace-out").arg(&trace_out);
    }
    cmd.arg("all");
    let run = run_child(cmd, dir, tag)?;
    tally.ops(1);
    let stripped = strip_fig16(&run.stdout);
    let digest = text_digest(&stripped);
    tally.check(
        digest == TINY_DIGEST,
        format_args!("repro {tag} pass digest {digest:#018x}, expected {TINY_DIGEST:#018x}"),
    );
    Ok((run, stripped))
}

/// A cold pass on the fresh cache directory, then a warm pass over it;
/// their outputs must agree outside Figure 16.
fn pair(
    ctx: &Ctx,
    dir: &Path,
    traced: bool,
    tally: &mut Tally,
) -> Result<(ChildRun, ChildRun), String> {
    let (cold, cold_text) = pass(ctx, dir, "cold", traced, tally)?;
    let (warm, warm_text) = pass(ctx, dir, "warm", traced, tally)?;
    tally.check(
        cold_text == warm_text,
        format_args!("repro cold and warm stdout differ outside Figure 16"),
    );
    Ok((cold, warm))
}

/// The end-to-end run: cold and warm passes in turn until `--seconds`
/// have passed, each cold pass on a fresh cache directory and each warm
/// pass over the latest one, so both kinds are timed across the whole
/// run. When the next cold pass would not fit, warm passes fill the rest.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (mut cold, mut warm, mut peak_mb) = (vec![], vec![], vec![]);
    // the latest cold pass's cache directory and its stdout less Figure 16
    let mut latest: Option<(PathBuf, String)> = None;
    let (mut cold_time, mut warm_time) = (Duration::ZERO, None);
    let setups = crate::repeat_within(
        ctx,
        |_| setup(ctx),
        |i, (), room| {
            match &latest {
                Some((dir, cold_text)) if warm.len() < cold.len() || cold_time > room => {
                    let (w, text) = pass(ctx, dir, "warm", false, &mut tally)?;
                    tally.check(
                        text == *cold_text,
                        format_args!("repro cold and warm stdout differ outside Figure 16"),
                    );
                    warm.push(w.wall.as_secs_f64());
                    warm_time = Some(w.wall);
                }
                _ => {
                    let dir = fresh_dir(&ctx.work.join(format!("cold{i}")))?;
                    let (c, text) = pass(ctx, &dir, "cold", false, &mut tally)?;
                    cold.push(c.wall.as_secs_f64());
                    peak_mb.push(c.peak_rss_kib as f64 / 1024.0);
                    cold_time = c.wall;
                    latest = Some((dir, text));
                }
            }
            // the shortest pass that may come next; until a warm pass is
            // timed, take it as long as a cold one
            Ok(warm_time.map_or(cold_time, |w: Duration| w.min(cold_time)))
        },
    )?;
    Ok(tally.finish(vec![
        Metric::median("setup_s", "s", &setups),
        Metric::median("wall_s", "s", &cold),
        Metric::median("warm_wall_s", "s", &warm),
        Metric::median("peak_rss_mb", "MB", &peak_mb),
    ]))
}

/// Parses a `{:.1?}` duration such as `62.7µs`, `8.4ms` or `2.0s`.
fn parse_debug_duration(s: &str) -> Option<f64> {
    let split = s.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let (num, unit) = s.split_at(split);
    let scale = match unit {
        "ns" => 1e-9,
        "µs" => 1e-6,
        "ms" => 1e-3,
        "s" => 1.0,
        _ => return None,
    };
    num.parse::<f64>().ok().map(|v| v * scale)
}

/// Per-experiment seconds from `[X done in D]` lines.
fn artifact_seconds(stderr: &str) -> Vec<(String, f64)> {
    stderr
        .lines()
        .filter_map(|l| {
            let body = l.strip_prefix('[')?.strip_suffix(']')?;
            let (name, d) = body.split_once(" done in ")?;
            Some((name.to_owned(), parse_debug_duration(d)?))
        })
        .collect()
}

/// A counter value from a `--metrics` text snapshot (0 if absent).
pub fn snapshot_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// The traced run: one untraced pair for the base wall time, one traced
/// pair, and the layer costs over the tiny suite's `train` inputs.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    setup(ctx)?;
    let dir = fresh_dir(&ctx.work.join("untraced"))?;
    let (base, _) = pass(ctx, &dir, "cold", false, &mut tally)?;

    let dir = fresh_dir(&ctx.work.join("traced"))?;
    let root = Span::child_of(TraceContext::NONE, "bench.repro_pair");
    let trace = root.trace();
    let (cold, _) = pair(ctx, &dir, true, &mut tally)?;
    drop(root);

    // each pass exported its own trace; summarise them apart so the cold
    // pass's figures stay separable
    let exported = |tag: &str| -> Result<Vec<ExportSpan>, String> {
        let path = dir.join(format!("{tag}.json"));
        let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let events = parse_events(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(events.iter().filter_map(spans::from_chrome).collect())
    };
    let own = collector().collect_trace(trace);
    let (cold_spans, warm_spans) = (exported("cold")?, exported("warm")?);
    let span_count = own.len() + cold_spans.len() + warm_spans.len();
    spans::write_chrome(
        &ctx.trace_out,
        &[
            ("perfbench", &own),
            ("repro cold", &cold_spans),
            ("repro warm", &warm_spans),
        ],
    )?;
    let cold_names = spans::summarize(&cold_spans);
    let mut by_name = spans::summarize(&own);
    spans::merge(&mut by_name, cold_names.clone());
    spans::merge(&mut by_name, spans::summarize(&warm_spans));

    let metrics_text = &cold.stderr;
    let counter = |name: &str| snapshot_value(metrics_text, name);
    let replays = counter("trace_replay_total");
    let bitsliced = counter("engine_bitslice_jobs_total");
    let sweep_s = cold
        .stderr
        .lines()
        .find_map(|l| {
            let rest = l.strip_prefix("[engine] sweep of ")?;
            let d = rest.split(" in ").nth(1)?.split(':').next()?;
            parse_debug_duration(d)
        })
        .unwrap_or(0.0);
    let secs = |us: u64| us as f64 / 1e6;
    let stat = |name: &str| cold_names.get(name).copied().unwrap_or_default();
    let mut m = vec![
        Metric::value("engine.sweep_s", "s", sweep_s),
        Metric::value(
            "engine.jobs_computed",
            "count",
            counter("engine_job_micros_count"),
        ),
        Metric::value(
            "engine.jobs_cached",
            "count",
            counter("engine_cache_hits_total"),
        ),
        Metric::value(
            "engine.memo_hits",
            "count",
            counter("engine_cache_memo_hits_total"),
        ),
        Metric::value(
            "engine.trace_records",
            "count",
            counter("trace_record_total"),
        ),
        Metric::value("engine.bitslice_jobs", "count", bitsliced),
        Metric::value(
            "engine.lane_share",
            "ratio",
            if replays == 0.0 {
                0.0
            } else {
                bitsliced / replays
            },
        ),
        Metric::value(
            "context.prewarm_s",
            "s",
            secs(stat("context.prewarm").total_us),
        ),
        Metric::value(
            "context.resolve_s",
            "s",
            secs(stat("context.resolve").total_us),
        ),
        Metric::value(
            "context.resolve_count",
            "count",
            stat("context.resolve").count as f64,
        ),
        Metric::value(
            "repro.cpu_util",
            "ratio",
            base.cpu_s / (base.wall.as_secs_f64() * ctx.nproc as f64),
        ),
        Metric::value("repro.unattributed_s", "s", secs(stat("repro.run").self_us)),
    ];
    for (name, s) in artifact_seconds(&cold.stderr) {
        if ARTIFACTS.contains(&name.as_str()) {
            m.push(Metric::value(format!("experiments.{name}_s"), "s", s));
        }
    }
    m.extend(crate::engine_self_times(&cold_names));
    m.push(Metric::value(
        "obs.trace_overhead_frac",
        "ratio",
        cold.wall.as_secs_f64() / base.wall.as_secs_f64() - 1.0,
    ));
    m.push(Metric::value("obs.span_count", "count", span_count as f64));

    m.extend(layers::measure(&crate::train_inputs(&workloads::suite(
        Scale::Tiny,
    ))));
    crate::print_span_summary(&by_name);
    Ok(tally.finish(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_durations_parse() {
        assert_eq!(parse_debug_duration("2.0s"), Some(2.0));
        assert_eq!(parse_debug_duration("8.5ms"), Some(0.0085));
        assert!((parse_debug_duration("62.7µs").unwrap() - 62.7e-6).abs() < 1e-12);
        assert_eq!(parse_debug_duration("fast"), None);
        let lines = "[engine] 2 worker(s)\n[fig2 done in 62.7µs]\n[fig16 done in 2.0s]\n";
        let names: Vec<String> = artifact_seconds(lines)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, ["fig2", "fig16"]);
    }
}
