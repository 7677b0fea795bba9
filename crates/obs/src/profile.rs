//! Span profiling: collapsed-stack (folded) flamegraph output, top-k
//! self-time tables, and a live per-name aggregate for the HTTP exporter.
//!
//! The span tree `crates/obs/src/span.rs` collects per run is aggregated
//! two ways at run end (`nazar_bench::ObsRun` → [`crate::finish_run_full`]):
//!
//! * [`folded`] renders `parent;child;leaf self_ns` lines — the collapsed
//!   stack format `flamegraph.pl` / speedscope / inferno consume directly;
//! * [`top_self`] ranks span names by **self time** (duration minus the
//!   duration of direct children), the quantity that actually identifies
//!   hot stages rather than just deep ones.
//!
//! While the run executes, every span close also folds into a per-name
//! `(count, total_ns)` aggregate that `/spans.json` serves live; it is
//! reset by [`crate::telemetry::begin_run`]. Both rendered forms are
//! sorted, so output order is deterministic even though timings are not.

use crate::json;
use crate::span::SpanRecord;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};

/// Aggregated self-time of one span name across a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelfTime {
    /// Span name (stage).
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Total self time (duration minus direct children), ns.
    pub self_ns: u64,
    /// Total inclusive duration, ns.
    pub total_ns: u64,
}

/// Computes each span's self time: its duration minus the summed durations
/// of its direct children (clamped at zero for clock skew).
fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns;
        }
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Renders the spans as collapsed stacks: one `a;b;c self_ns` line per
/// distinct root-to-span path, aggregated and sorted by path. Spans whose
/// parent is absent root their own stack.
pub fn folded(spans: &[SpanRecord]) -> String {
    let idx: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let selfs = self_times(spans);
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut path = vec![s.name.as_str()];
        let mut cursor = s.parent;
        // The parent chain is acyclic by construction (ids are unique and
        // assigned before children open); the hop cap is belt-and-braces.
        for _ in 0..spans.len() {
            let Some(p) = cursor.and_then(|p| idx.get(&p)) else {
                break;
            };
            path.push(spans[*p].name.as_str());
            cursor = spans[*p].parent;
        }
        path.reverse();
        *agg.entry(path.join(";")).or_default() += selfs[i];
    }
    let mut out = String::new();
    for (path, ns) in &agg {
        out.push_str(path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// The `k` span names with the largest total self time, descending (name
/// breaks ties, for deterministic order).
pub fn top_self(spans: &[SpanRecord], k: usize) -> Vec<SelfTime> {
    let selfs = self_times(spans);
    let mut agg: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = agg.entry(s.name.as_str()).or_default();
        e.0 += 1;
        e.1 += selfs[i];
        e.2 += s.dur_ns;
    }
    let mut rows: Vec<SelfTime> = agg
        .into_iter()
        .map(|(name, (count, self_ns, total_ns))| SelfTime {
            name: name.to_string(),
            count,
            self_ns,
            total_ns,
        })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
    rows.truncate(k);
    rows
}

fn live() -> &'static Mutex<BTreeMap<&'static str, (u64, u64)>> {
    static LIVE: OnceLock<Mutex<BTreeMap<&'static str, (u64, u64)>>> = OnceLock::new();
    LIVE.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Folds one closed span into the live per-name aggregate (called from the
/// span guard's drop; the guard only carries state while observability is
/// enabled, so this adds nothing to the disabled path).
pub(crate) fn record_close(name: &'static str, dur_ns: u64) {
    let mut live = live().lock().expect("live span aggregate poisoned");
    let e = live.entry(name).or_insert((0, 0));
    e.0 += 1;
    e.1 += dur_ns;
}

/// Clears the live aggregate (run start).
pub(crate) fn reset_live() {
    live().lock().expect("live span aggregate poisoned").clear();
}

/// The live aggregate as a JSON array (the `/spans.json` HTTP route):
/// `[{"name":...,"count":...,"total_ns":...}, ...]`, sorted by name.
pub fn live_json() -> String {
    let live = live().lock().expect("live span aggregate poisoned");
    let mut out = String::from("[");
    for (i, (name, (count, total_ns))) in live.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        json::write_str(&mut out, name);
        out.push_str(",\"count\":");
        out.push_str(&count.to_string());
        out.push_str(",\"total_ns\":");
        out.push_str(&total_ns.to_string());
        out.push('}');
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, name: &str, start_ns: u64, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: name.to_string(),
            detail: None,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn folded_aggregates_paths_with_self_time() {
        let spans = vec![
            rec(1, None, "run", 0, 100),
            rec(2, Some(1), "window", 0, 60),
            rec(3, Some(2), "detect", 0, 25),
            rec(4, Some(2), "detect", 30, 15),
            rec(5, Some(999), "orphan", 50, 5),
        ];
        let text = folded(&spans);
        // run self = 100 - 60; window self = 60 - 40; detects aggregate.
        assert_eq!(
            text,
            "orphan 5\nrun 40\nrun;window 20\nrun;window;detect 40\n"
        );
    }

    #[test]
    fn top_self_ranks_by_self_time() {
        let spans = vec![
            rec(1, None, "run", 0, 100),
            rec(2, Some(1), "window", 0, 90),
            rec(3, Some(2), "detect", 0, 80),
        ];
        let top = top_self(&spans, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "detect");
        assert_eq!(top[0].self_ns, 80);
        assert_eq!(top[0].total_ns, 80);
        assert_eq!(top[1].name, "run");
        assert_eq!(top[1].self_ns, 10);
    }

    #[test]
    fn live_aggregate_renders_sorted_json() {
        // Spans closed by concurrently running tests land in the same
        // process-global aggregate.
        let _guard = crate::tests::test_lock();
        reset_live();
        record_close("window", 10);
        record_close("detect", 5);
        record_close("detect", 7);
        assert_eq!(
            live_json(),
            "[{\"name\":\"detect\",\"count\":2,\"total_ns\":12},{\"name\":\"window\",\"count\":1,\"total_ns\":10}]"
        );
        reset_live();
        assert_eq!(live_json(), "[]");
    }
}
