//! The benchmark's own spans and the self-time summariser.
//!
//! The benchmark opens a `twodprof_obs::trace::Span` around every call it
//! makes into a layer, only in the traced part of a traced run. Its spans
//! land in the process-wide collector next to the program's in-process
//! spans, on the same clock and with ids from the same generator. The
//! summariser folds them, together with the spans the program exports
//! (Chrome trace JSON from `repro --trace-out`, `fetch_trace` from a
//! daemon), into per-name count, total and self time.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use twodprof_obs::chrome::{to_json, ChromeEvent};
use twodprof_obs::trace::{ExportSpan, Span, TraceContext};

/// Opens a span named `name` under `parent`, or none when `parent` is
/// not an active trace (the untraced passes).
pub fn child(parent: TraceContext, name: &'static str) -> Option<Span> {
    parent.is_active().then(|| Span::child_of(parent, name))
}

/// The context children of `span` attach, or the empty context.
pub fn context(span: &Option<Span>) -> TraceContext {
    span.as_ref().map_or(TraceContext::NONE, Span::context)
}

/// Converts an event read back from Chrome trace JSON; `None` if its
/// trace, span or parent id is not hexadecimal.
pub fn from_chrome(e: &ChromeEvent) -> Option<ExportSpan> {
    let hex = |s: &str| u64::from_str_radix(s, 16).ok();
    Some(ExportSpan {
        trace: u128::from_str_radix(&e.trace, 16).ok()?,
        id: hex(&e.span)?,
        parent: hex(&e.parent)?,
        name: e.name.clone(),
        start_us: e.ts,
        dur_us: e.dur,
        tid: e.tid,
        pid: e.pid,
    })
}

/// Count, total time and self time of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameStats {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_us: u64,
    /// Sum of their self times.
    pub self_us: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (parallel
/// workers under one batch span) or run past the parent; only the union
/// of their intervals, clipped to the parent, is subtracted.
pub fn self_times(spans: &[ExportSpan]) -> Vec<u64> {
    let end = |s: &ExportSpan| s.start_us + s.dur_us;
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.dur_us;
            };
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_us.max(s.start_us), end(c).min(end(s)))
                })
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_us;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_us - covered
        })
        .collect()
}

/// Folds `spans` into per-name statistics.
pub fn summarize(spans: &[ExportSpan]) -> BTreeMap<String, NameStats> {
    let mut out: BTreeMap<String, NameStats> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name.clone()).or_default();
        e.count += 1;
        e.total_us += s.dur_us;
        e.self_us += self_us;
    }
    out
}

/// Writes span sets as one Chrome trace-event JSON document (for
/// `chrome://tracing` or Perfetto), one process lane per named set.
pub fn write_chrome(path: &Path, lanes: &[(&str, &[ExportSpan])]) -> Result<(), String> {
    let mut spans = Vec::new();
    for (pid, (_, set)) in (1u32..).zip(lanes) {
        spans.extend(set.iter().map(|s| ExportSpan { pid, ..s.clone() }));
    }
    let names: Vec<(u32, &str)> = (1u32..).zip(lanes.iter().map(|(n, _)| *n)).collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, to_json(&spans, &names))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# trace {} ({} spans)", path.display(), spans.len());
    Ok(())
}

/// Adds `other` into `into`, name by name.
pub fn merge(into: &mut BTreeMap<String, NameStats>, other: BTreeMap<String, NameStats>) {
    for (name, s) in other {
        let e = into.entry(name).or_default();
        e.count += s.count;
        e.total_us += s.total_us;
        e.self_us += s.self_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_us: u64, dur_us: u64) -> ExportSpan {
        ExportSpan {
            trace: 1,
            id,
            parent,
            name: name.to_owned(),
            start_us,
            dur_us,
            tid: 0,
            pid: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // run [0,100) > job [10,60) > decode [20,30); job2 [70,90)
        let spans = [
            span(1, 0, "run", 0, 100),
            span(2, 1, "job", 10, 50),
            span(3, 2, "decode", 20, 10),
            span(4, 1, "job", 70, 20),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let by_name = summarize(&spans);
        assert_eq!(
            by_name["job"],
            NameStats {
                count: 2,
                total_us: 70,
                self_us: 60
            }
        );
        assert_eq!(by_name["run"].self_us, 30);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // two parallel workers under one batch: [10,60) and [40,80)
        // cover [10,80), so the batch's own time is 30 of 100
        let spans = [
            span(1, 0, "batch", 0, 100),
            span(2, 1, "worker", 10, 50),
            span(3, 1, "worker", 40, 40),
        ];
        assert_eq!(self_times(&spans)[0], 30);
        // a child running past its parent is clipped to the parent
        let spans = [span(1, 0, "call", 0, 50), span(2, 1, "remote", 30, 100)];
        assert_eq!(self_times(&spans), vec![30, 100]);
        // a child inside another child's interval adds nothing
        let spans = [
            span(1, 0, "p", 0, 100),
            span(2, 1, "a", 0, 90),
            span(3, 1, "b", 10, 20),
        ];
        assert_eq!(self_times(&spans)[0], 10);
    }
}
