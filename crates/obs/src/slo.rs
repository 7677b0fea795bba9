//! Declarative SLOs evaluated at every telemetry snapshot.
//!
//! Rules arrive through `NAZAR_OBS_SLO` (or [`arm`] programmatically), are
//! checked by [`crate::telemetry::snapshot`] against the metrics registry,
//! and every violation is recorded as a [`Breach`], emitted as an
//! `slo_breach` event, and counted in `nazar_obs_slo_breaches_total`.
//! `nazar_bench::ObsRun` turns accumulated breaches into a non-zero exit
//! code at the end of a run, which is how CI gates on them.
//!
//! # Rule syntax
//!
//! Rules are `;`-separated; each rule is `expr op threshold`:
//!
//! ```text
//! expr      := atom [ '/' atom ]
//! atom      := func '(' metric ')' | metric
//! func      := p50 | p95 | p99 | rate
//! metric    := name [ '{' key '=' value { ',' key '=' value } '}' ]
//! op        := <= | < | >= | >
//! threshold := floating-point literal
//! ```
//!
//! A rule states the *requirement*; it breaches when the comparison does
//! not hold. Examples (README "SLO rules" has the full reference):
//!
//! ```text
//! nazar_cloud_quarantined_uploads_total / nazar_device_uploads_total <= 0.25
//! p99(nazar_net_retries_total) <= 64
//! rate(nazar_log_ingest_rows_total) >= 10
//! nazar_registry_selects_total{result=miss} <= 100
//! ```
//!
//! Semantics, all deterministic on the virtual clock:
//!
//! * a bare `metric` sums every series whose labels are a superset of the
//!   selector's, as **run-scoped** values (counter/histogram-count deltas
//!   from the run baseline; gauges read raw);
//! * `p50/p95/p99(h)` interpolate quantiles from the run-scoped bucket
//!   deltas of histogram `h` (series merged);
//! * `rate(m)` is the per-virtual-second delta since the previous
//!   snapshot; it is skipped when no virtual time has elapsed;
//! * missing metrics evaluate to 0, and `0/0` ratios evaluate to 0.

use crate::metrics::{quantile_from_buckets, MetricKind, MetricSnapshot, SnapshotValue};
use crate::telemetry::SeriesKey;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

static BREACH_COUNT: crate::LazyCounter = crate::LazyCounter::new_volatile(
    "nazar_obs_slo_breaches_total",
    "SLO rule violations detected at telemetry snapshots",
    &[],
);

/// Selects metric series by family name and a label subset.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSel {
    /// Family name.
    pub name: String,
    /// Labels a series must carry (subset match; empty matches all).
    pub labels: Vec<(String, String)>,
}

/// One operand of a rule expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// Run-scoped value of the selected series, summed.
    Value(MetricSel),
    /// Quantile estimate over the selected histogram's run-scoped buckets.
    Quantile(f64, MetricSel),
    /// Per-virtual-second delta since the previous snapshot.
    Rate(MetricSel),
}

/// Comparison operator of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `>=`
    Ge,
    /// `>`
    Gt,
}

impl Cmp {
    fn holds(self, v: f64, t: f64) -> bool {
        match self {
            Cmp::Le => v <= t,
            Cmp::Lt => v < t,
            Cmp::Ge => v >= t,
            Cmp::Gt => v > t,
        }
    }
}

/// One parsed SLO rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// The rule's source text (used in breach reports).
    pub text: String,
    /// Numerator atom.
    pub num: Atom,
    /// Optional denominator atom (ratio rules).
    pub den: Option<Atom>,
    /// Required comparison.
    pub cmp: Cmp,
    /// Threshold the comparison is made against.
    pub threshold: f64,
}

/// One recorded SLO violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Breach {
    /// Source text of the violated rule.
    pub rule: String,
    /// Virtual time of the violating snapshot, µs.
    pub t_us: u64,
    /// The expression's value at that snapshot.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
}

#[derive(Debug, Default)]
struct SloState {
    rules: Vec<Rule>,
    breaches: Vec<Breach>,
}

fn state() -> &'static Mutex<SloState> {
    static STATE: OnceLock<Mutex<SloState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(SloState::default()))
}

/// Parses a `;`-separated rule list (the `NAZAR_OBS_SLO` format).
///
/// # Errors
///
/// Returns a description of the first malformed rule.
pub fn parse_rules(spec: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        rules.push(parse_rule(part)?);
    }
    Ok(rules)
}

fn parse_rule(text: &str) -> Result<Rule, String> {
    let (cmp, op) = if let Some(i) = text.find("<=") {
        (Cmp::Le, (i, 2))
    } else if let Some(i) = text.find(">=") {
        (Cmp::Ge, (i, 2))
    } else if let Some(i) = text.find('<') {
        (Cmp::Lt, (i, 1))
    } else if let Some(i) = text.find('>') {
        (Cmp::Gt, (i, 1))
    } else {
        return Err(format!("rule `{text}` has no comparison operator"));
    };
    let expr = text[..op.0].trim();
    let threshold: f64 = text[op.0 + op.1..]
        .trim()
        .parse()
        .map_err(|_| format!("rule `{text}` has a non-numeric threshold"))?;
    // Split the expression on a '/' outside braces (label values keep `/`).
    let mut depth = 0usize;
    let mut slash = None;
    for (i, c) in expr.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            '/' if depth == 0 => {
                if slash.is_some() {
                    return Err(format!("rule `{text}` has more than one `/`"));
                }
                slash = Some(i);
            }
            _ => {}
        }
    }
    let (num, den) = match slash {
        Some(i) => (
            parse_atom(expr[..i].trim(), text)?,
            Some(parse_atom(expr[i + 1..].trim(), text)?),
        ),
        None => (parse_atom(expr, text)?, None),
    };
    Ok(Rule {
        text: text.to_string(),
        num,
        den,
        cmp,
        threshold,
    })
}

fn parse_atom(atom: &str, rule: &str) -> Result<Atom, String> {
    for (prefix, q) in [("p50(", 0.5), ("p95(", 0.95), ("p99(", 0.99)] {
        if let Some(inner) = atom.strip_prefix(prefix) {
            let inner = inner
                .strip_suffix(')')
                .ok_or_else(|| format!("rule `{rule}`: unclosed `{prefix}`"))?;
            return Ok(Atom::Quantile(q, parse_sel(inner.trim(), rule)?));
        }
    }
    if let Some(inner) = atom.strip_prefix("rate(") {
        let inner = inner
            .strip_suffix(')')
            .ok_or_else(|| format!("rule `{rule}`: unclosed `rate(`"))?;
        return Ok(Atom::Rate(parse_sel(inner.trim(), rule)?));
    }
    Ok(Atom::Value(parse_sel(atom, rule)?))
}

fn parse_sel(sel: &str, rule: &str) -> Result<MetricSel, String> {
    let (name, labels) = match sel.find('{') {
        Some(i) => {
            let body = sel[i..]
                .strip_prefix('{')
                .and_then(|s| s.strip_suffix('}'))
                .ok_or_else(|| format!("rule `{rule}`: malformed labels in `{sel}`"))?;
            let mut labels = Vec::new();
            for pair in body.split(',') {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("rule `{rule}`: label `{pair}` is not key=value"))?;
                labels.push((k.trim().to_string(), v.trim().trim_matches('"').to_string()));
            }
            (&sel[..i], labels)
        }
        None => (sel, Vec::new()),
    };
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("rule `{rule}`: bad metric name `{name}`"));
    }
    Ok(MetricSel {
        name: name.to_string(),
        labels,
    })
}

/// Installs `rules` as the armed SLO set and clears prior breaches.
pub fn arm(rules: Vec<Rule>) {
    let mut s = state().lock().expect("slo state poisoned");
    s.rules = rules;
    s.breaches.clear();
}

/// Removes all rules and breaches.
pub fn disarm() {
    arm(Vec::new());
}

/// Whether any SLO rules are armed.
pub fn armed() -> bool {
    !state().lock().expect("slo state poisoned").rules.is_empty()
}

/// All breaches recorded since the rules were armed (or the run began).
pub fn breaches() -> Vec<Breach> {
    state().lock().expect("slo state poisoned").breaches.clone()
}

/// Clears recorded breaches, keeping the armed rules (run start).
pub(crate) fn reset_breaches() {
    state().lock().expect("slo state poisoned").breaches.clear();
}

fn sel_matches(sel: &MetricSel, m: &MetricSnapshot) -> bool {
    m.name == sel.name
        && sel
            .labels
            .iter()
            .all(|want| m.labels.iter().any(|have| have == want))
}

fn scalar(v: &SnapshotValue) -> f64 {
    match v {
        SnapshotValue::Counter(c) => *c as f64,
        SnapshotValue::Gauge(g) => *g,
        SnapshotValue::Histogram { count, .. } => *count as f64,
    }
}

fn lookup<'a>(
    map: &'a BTreeMap<SeriesKey, SnapshotValue>,
    m: &MetricSnapshot,
) -> Option<&'a SnapshotValue> {
    // Borrow-free key probe would need a lookup pair; clone is fine at
    // snapshot frequency (a handful per window).
    map.get(&(m.name.clone(), m.labels.clone()))
}

fn eval_atom(
    atom: &Atom,
    cur: &[MetricSnapshot],
    base: &BTreeMap<SeriesKey, SnapshotValue>,
    prev: &BTreeMap<SeriesKey, SnapshotValue>,
    dt_secs: f64,
) -> Option<f64> {
    match atom {
        Atom::Value(sel) => {
            let mut total = 0.0;
            for m in cur.iter().filter(|m| sel_matches(sel, m)) {
                total += match m.kind {
                    MetricKind::Gauge => scalar(&m.value),
                    _ => scalar(&m.value) - lookup(base, m).map(scalar).unwrap_or(0.0),
                };
            }
            Some(total)
        }
        Atom::Quantile(q, sel) => {
            let mut merged_bounds: Vec<f64> = Vec::new();
            let mut merged: Vec<u64> = Vec::new();
            for m in cur.iter().filter(|m| sel_matches(sel, m)) {
                let SnapshotValue::Histogram { bounds, counts, .. } = &m.value else {
                    continue;
                };
                let (b_counts, _, _) = match lookup(base, m) {
                    Some(SnapshotValue::Histogram {
                        counts: bc,
                        sum,
                        count,
                        ..
                    }) if bc.len() == counts.len() => (bc.clone(), *sum, *count),
                    _ => (vec![0; counts.len()], 0.0, 0),
                };
                if merged.is_empty() {
                    merged_bounds = bounds.clone();
                    merged = vec![0; counts.len()];
                }
                if merged.len() != counts.len() {
                    continue; // mismatched bucket layouts are not mergeable
                }
                for (acc, (c, b)) in merged.iter_mut().zip(counts.iter().zip(&b_counts)) {
                    *acc += c.saturating_sub(*b);
                }
            }
            Some(quantile_from_buckets(&merged_bounds, &merged, *q))
        }
        Atom::Rate(sel) => {
            if dt_secs <= 0.0 {
                return None;
            }
            let mut delta = 0.0;
            for m in cur.iter().filter(|m| sel_matches(sel, m)) {
                delta += scalar(&m.value) - lookup(prev, m).map(scalar).unwrap_or(0.0);
            }
            Some(delta / dt_secs)
        }
    }
}

/// Evaluates one rule against a snapshot; `None` means "not applicable at
/// this snapshot" (e.g. a rate with no elapsed virtual time).
pub fn eval_rule(
    rule: &Rule,
    cur: &[MetricSnapshot],
    base: &BTreeMap<SeriesKey, SnapshotValue>,
    prev: &BTreeMap<SeriesKey, SnapshotValue>,
    dt_secs: f64,
) -> Option<f64> {
    let num = eval_atom(&rule.num, cur, base, prev, dt_secs)?;
    let value = match &rule.den {
        None => num,
        Some(den) => {
            let den = eval_atom(den, cur, base, prev, dt_secs)?;
            let ratio = num / den;
            if ratio.is_nan() {
                0.0
            } else {
                ratio
            }
        }
    };
    Some(value)
}

/// Checks every armed rule against the snapshot `cur` taken at `t_us`;
/// violations are recorded, counted and emitted as `slo_breach` events.
/// Called by [`crate::telemetry::snapshot`].
pub(crate) fn evaluate_at(
    t_us: u64,
    dt_secs: f64,
    cur: &[MetricSnapshot],
    base: &BTreeMap<SeriesKey, SnapshotValue>,
    prev: &BTreeMap<SeriesKey, SnapshotValue>,
) {
    let rules = state().lock().expect("slo state poisoned").rules.clone();
    if rules.is_empty() {
        return;
    }
    let mut new = Vec::new();
    for rule in &rules {
        let Some(value) = eval_rule(rule, cur, base, prev, dt_secs) else {
            continue;
        };
        if !rule.cmp.holds(value, rule.threshold) {
            new.push(Breach {
                rule: rule.text.clone(),
                t_us,
                value,
                threshold: rule.threshold,
            });
        }
    }
    if new.is_empty() {
        return;
    }
    for b in &new {
        BREACH_COUNT.inc();
        crate::event_fields(
            "slo_breach",
            &[
                ("rule", b.rule.clone()),
                ("t_us", b.t_us.to_string()),
                ("value", format!("{}", b.value)),
                ("threshold", format!("{}", b.threshold)),
            ],
        );
    }
    state()
        .lock()
        .expect("slo state poisoned")
        .breaches
        .extend(new);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    #[test]
    fn parses_the_documented_grammar() {
        let rules = parse_rules(
            "a_total / b_total <= 0.25; p99(h_bytes) < 100; \
             rate(c_total) >= 10 ; x_total{op=scan, keys=\"2\"} > 0",
        )
        .expect("valid rules");
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].cmp, Cmp::Le);
        assert!(rules[0].den.is_some());
        assert_eq!(
            rules[1].num,
            Atom::Quantile(
                0.99,
                MetricSel {
                    name: "h_bytes".into(),
                    labels: vec![]
                }
            )
        );
        assert!(matches!(rules[2].num, Atom::Rate(_)));
        assert_eq!(
            rules[3].num,
            Atom::Value(MetricSel {
                name: "x_total".into(),
                labels: vec![("op".into(), "scan".into()), ("keys".into(), "2".into())],
            })
        );
        assert!(parse_rules("a_total").is_err());
        assert!(parse_rules("a_total <= many").is_err());
        assert!(parse_rules("p95(a_total <= 1").is_err());
        assert!(parse_rules("bad name <= 1").is_err());
    }

    fn counter_snap(name: &str, labels: &[(&str, &str)], v: u64) -> MetricSnapshot {
        MetricSnapshot {
            name: name.to_string(),
            help: String::new(),
            kind: MetricKind::Counter,
            volatile: false,
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: SnapshotValue::Counter(v),
        }
    }

    #[test]
    fn evaluates_ratios_rates_and_label_subsets() {
        let cur = vec![
            counter_snap("q_total", &[], 30),
            counter_snap("u_total", &[("dir", "up")], 100),
            counter_snap("u_total", &[("dir", "down")], 100),
        ];
        let base = BTreeMap::new();
        let mut prev = BTreeMap::new();
        prev.insert(
            ("q_total".to_string(), Vec::new()),
            SnapshotValue::Counter(10),
        );
        let rules =
            parse_rules("q_total / u_total{dir=up} <= 0.25; rate(q_total) <= 1").expect("rules");
        let v = eval_rule(&rules[0], &cur, &base, &prev, 10.0).expect("applicable");
        assert!((v - 0.3).abs() < 1e-12);
        assert!(
            !rules[0].cmp.holds(v, rules[0].threshold),
            "0.3 breaches <= 0.25"
        );
        // rate: (30-10)/10s = 2/s, breaches <= 1.
        let r = eval_rule(&rules[1], &cur, &base, &prev, 10.0).expect("applicable");
        assert!((r - 2.0).abs() < 1e-12);
        // No elapsed virtual time: rate rules are skipped.
        assert!(eval_rule(&rules[1], &cur, &base, &prev, 0.0).is_none());
        // Missing metrics and 0/0 evaluate to 0.
        let empty = parse_rules("nope_total / also_nope_total <= 0.5").expect("rule");
        assert_eq!(eval_rule(&empty[0], &cur, &base, &prev, 1.0), Some(0.0));
    }

    #[test]
    fn armed_rules_record_breaches_at_snapshots() {
        let _guard = test_lock();
        crate::testing::enable_memory_sink();
        arm(parse_rules("nazar_test_slo_total <= 2").expect("rule"));
        static C: crate::LazyCounter =
            crate::LazyCounter::new("nazar_test_slo_total", "slo unit counter", &[]);
        crate::telemetry::begin_run_with_capacity(8);
        C.add(1);
        crate::telemetry::snapshot(1_000_000, "window_close");
        assert!(breaches().is_empty(), "1 <= 2 holds");
        C.add(5);
        crate::telemetry::snapshot(2_000_000, "window_close");
        let b = breaches();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].t_us, 2_000_000);
        assert!((b[0].value - 6.0).abs() < 1e-12);
        let lines = crate::sink::memory_lines();
        assert!(lines.iter().any(|l| l.contains("\"name\":\"slo_breach\"")));
        disarm();
        crate::testing::disable();
    }
}
