//! `nazar-cycle`: end-to-end and per-layer benchmark of one Nazar cycle
//! (device inference + detection → upload → drift-log ingest → root-cause
//! analysis → per-cause and clean adaptation → deploy).
//!
//! ```text
//! nazar-cycle --workload <vision_cycle|fleet_detect|text_durable>
//!             --seed <n> --seconds <s> --trace <0|1> [--digest]
//! ```
//!
//! * `--trace 0` sets the workload up twice (median set-up time),
//!   then runs whole `Orchestrator::run` simulations until `--seconds`
//!   have passed, each beside a host-speed [`Meter`], and reports the
//!   end-to-end metrics (medians over runs).
//! * `--trace 1` runs `Orchestrator::run` once, then replays the same
//!   window loop from the benchmark with a span around every layer call,
//!   checks that the replay's outputs equal the orchestrator's, and reports
//!   the per-layer metrics.
//! * `--digest` runs the orchestrator once and prints its output digest
//!   (used to check thread-count invariance).
//!
//! The last line of standard output is the result object; the line before
//! it, prefixed `record: `, carries every measured detail.

mod probe;
mod replay;
mod trace;
mod workload;

use nazar_cloud::RunResult;
use nazar_device::WindowStats;
use probe::Meter;
use replay::Replay;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use trace::{layer_of, Recorder};
use workload::{setup, Workload};

/// Set-ups per `--trace 0` run; the reported set-up time is their median.
const SETUP_REPEATS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    digest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut digest = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--digest" {
            digest = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        digest,
    })
}

/// Refuses to run with environment knobs that would change the inputs or
/// the program's behaviour. Tracing inside the program (`NAZAR_OBS`) and
/// non-default SIMD tiers are not part of the benchmark.
fn check_environment() -> Result<(), String> {
    for (key, value) in std::env::vars() {
        let set = !value.is_empty();
        let bad = match key.as_str() {
            "NAZAR_OBS" => set && value != "0" && value != "off",
            "NAZAR_TENSOR_SIMD" => set && value != "exact",
            "NAZAR_STORE_DIR" => set,
            _ => key.starts_with("NAZAR_NET_") && set,
        };
        if bad {
            return Err(format!(
                "{key}={value} is set; the benchmark runs without it"
            ));
        }
    }
    Ok(())
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a over everything a run computes except its wall-clock timings.
fn digest(r: &RunResult) -> String {
    let text = format!(
        "{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}",
        r.per_window,
        r.version_counts,
        r.causes_per_window,
        r.log_rows,
        r.patch_bytes_shipped,
        r.patch_scalar_bytes,
        r.full_model_bytes_equivalent,
        r.net
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Failed operations the untraced run can see: upload frames abandoned or
/// dropped, and deploy transfers that never completed.
fn transport_failures(r: &RunResult) -> u64 {
    r.net.upload_failures + r.net.outbox_dropped + r.net.stragglers_dropped + r.net.deploy_failures
}

fn merged(r: &RunResult) -> WindowStats {
    let mut all = WindowStats::default();
    for w in &r.per_window {
        all.merge(w);
    }
    all
}

/// The metrics of one result object, in order: `(name, value, unit)`.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// What one run measured.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    /// Details for the record line: `(key, JSON value)`.
    extra: Vec<(&'static str, String)>,
}

fn result_line(o: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn record_line(args: &Args, o: &Outcome) -> String {
    let mut out = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"threads\": {}, \"simd_tier\": \"{}\", \"avx512f\": {}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        nazar_tensor::parallel::num_threads(),
        nazar_tensor::simd::env_tier().as_str(),
        nazar_tensor::simd::available(),
    );
    for (k, v) in &o.extra {
        let _ = write!(out, ", \"{k}\": {v}");
    }
    out.push_str(", \"metrics\": {");
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(out, "{sep}\"{name}\": [{value:?}, \"{unit}\"]");
    }
    out.push_str("}}");
    out
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// `--trace 0`: set-up time and whole-run metrics, tracing off.
fn end_to_end(args: &Args) -> Outcome {
    let mut setup_wall_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let meter = Meter::start();
        let t = Instant::now();
        let (p, orch, scratch, _) = setup(args.workload, args.seed);
        let secs = t.elapsed().as_secs_f64();
        setup_s.push(secs * probe::REFERENCE_UNIT_S / meter.stop());
        setup_wall_s.push(secs);
        drop((orch, scratch));
        prepared = Some(p);
    }
    let prepared = prepared.expect("at least one set-up");

    let mut run_s = Vec::new();
    let mut probe_s = Vec::new();
    let mut first: Option<(RunResult, String)> = None;
    let mut correct = true;
    let warmup = args.workload.warmup_runs();
    let mut runs = 0;
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    let mut start = Instant::now();
    while runs < warmup + args.workload.min_runs() || start.elapsed() < budget {
        let (mut orch, scratch) = prepared.orchestrator();
        let meter = Meter::start();
        let t = Instant::now();
        let result = orch.run(&prepared.streams);
        let secs = t.elapsed().as_secs_f64();
        let unit = meter.stop();
        if runs >= warmup {
            run_s.push(secs);
            probe_s.push(unit);
        }
        runs += 1;
        if runs == warmup {
            // `--seconds` counts timed runs only.
            start = Instant::now();
        }
        drop((orch, scratch));
        let d = digest(&result);
        match &first {
            None => first = Some((result, d)),
            // Every run over the same inputs must compute the same thing.
            Some((_, d0)) => correct &= *d0 == d,
        }
    }
    let (result, d) = first.expect("at least one run");
    // Each run against the host speed measured while it ran.
    let run_vs_probe: Vec<f64> = run_s.iter().zip(&probe_s).map(|(r, p)| r / p).collect();
    let all = merged(&result);
    let attempted = all.total as u64;
    let failed = transport_failures(&result);
    correct &= attempted > 0 && result.per_window.len() == prepared.config.windows;
    let peak_rss = nazar_device::peak_rss_bytes().unwrap_or(0) as f64;
    let metrics: Metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("run_vs_probe", median(&run_vs_probe), "ratio"),
        ("peak_rss_mb", peak_rss / 1e6, "MB"),
        ("wire_mb", result.net.wire_bytes() as f64 / 1e6, "MB"),
        (
            "accuracy_last7",
            f64::from(result.mean_accuracy_last(7)),
            "ratio",
        ),
        (
            "drifted_accuracy_last7",
            f64::from(result.mean_drifted_accuracy_last(7)),
            "ratio",
        ),
        ("detect_precision", f64::from(all.precision()), "ratio"),
        ("detect_recall", f64::from(all.recall()), "ratio"),
        (
            "ok_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    let extra = vec![
        ("digest", format!("\"{d}\"")),
        ("setup_samples_s", list(&setup_s)),
        ("setup_wall_samples_s", list(&setup_wall_s)),
        ("run_samples_s", list(&run_s)),
        ("run_s", format!("{:?}", median(&run_s))),
        ("probe_samples_s", list(&probe_s)),
        ("log_rows", result.log_rows.to_string()),
        ("patch_bytes", result.patch_bytes_shipped.to_string()),
    ];
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        extra,
    }
}

/// Field-by-field comparison of the replay against the orchestrator; the
/// names of the fields that differ.
fn differences(want: &RunResult, got: &RunResult) -> Vec<&'static str> {
    let mut diff = Vec::new();
    if want.per_window != got.per_window {
        diff.push("per_window");
    }
    if want.causes_per_window != got.causes_per_window {
        diff.push("causes_per_window");
    }
    if want.version_counts != got.version_counts {
        diff.push("version_counts");
    }
    if want.log_rows != got.log_rows {
        diff.push("log_rows");
    }
    if (
        want.patch_bytes_shipped,
        want.patch_scalar_bytes,
        want.full_model_bytes_equivalent,
    ) != (
        got.patch_bytes_shipped,
        got.patch_scalar_bytes,
        got.full_model_bytes_equivalent,
    ) {
        diff.push("patch_bytes");
    }
    if want.net != got.net {
        diff.push("net");
    }
    diff
}

/// `--trace 1`: one untraced orchestrator run, then the traced replay.
fn traced(args: &Args) -> (Outcome, Recorder) {
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let (prepared, mut orch, scratch, times) = setup(args.workload, args.seed);
    // Set-up spans, laid end to end from the measured phase durations.
    let base = rec.ns_at(t0);
    let setup_root = rec.push("setup", None, base, base + times.total().as_nanos() as u64);
    let mut at = base;
    for (name, d) in [
        ("setup.generate", times.generate),
        ("setup.train", times.train),
        ("setup.orchestrator", times.orchestrator),
    ] {
        let end = at + d.as_nanos() as u64;
        let _ = rec.push(name, Some(setup_root), at, end);
        at = end;
    }

    let t = Instant::now();
    let expected = orch.run(&prepared.streams);
    let untraced_run_s = t.elapsed().as_secs_f64();
    drop((orch, scratch));

    let mut replay = Replay::new(&prepared);
    let first_span = rec.spans().len();
    let t = Instant::now();
    let got = replay.run(&mut rec);
    let traced_run_s = t.elapsed().as_secs_f64();
    let counts = replay.counts;
    drop(replay);

    let diff = differences(&expected, &got);
    for field in &diff {
        eprintln!("nazar-cycle: traced replay differs from Orchestrator::run in `{field}`");
    }
    let correct = diff.is_empty() && counts.store_errors == 0;

    // Self time per layer: direct children of each window span, plus the
    // window's remainder charged to `cloud`.
    let spans = &rec.spans()[first_span..];
    let mut layer_self = std::collections::BTreeMap::<&str, f64>::new();
    for w in spans.iter().filter(|s| s.name == "window") {
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(w.id))
            .map(|s| {
                *layer_self.entry(layer_of(s.name)).or_default() += s.secs();
                s.secs()
            })
            .sum();
        *layer_self.entry("cloud").or_default() += w.secs() - children;
    }
    let coverage = layer_self.values().sum::<f64>() / traced_run_s;

    let span_s = |name: &str| rec.total(name).as_secs_f64();
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let net = got.net;
    let device_s = span_s("device.process_window_parts");
    let log_s = span_s("log.ingest_batch");
    let job_cpu_s = counts.adapt_job_busy_ns as f64 * 1e-9;
    let clean_s = span_s("adapt.clean");
    let deploy_net_s = span_s("net.deploy");
    let install_s = span_s("deploy.install_on");
    let first_attempt = net
        .frames_sent
        .saturating_sub(net.retries + net.chunk_resends);
    let metrics: Metrics = vec![
        ("device.busy_s", device_s, "s"),
        ("device.items", counts.items as f64, "count"),
        (
            "device.us_per_item",
            per(device_s * 1e6, counts.items),
            "us",
        ),
        ("device.flagged", counts.flagged as f64, "count"),
        ("device.max_versions", counts.max_versions as f64, "count"),
        ("net.upload_s", span_s("net.upload_window"), "s"),
        ("net.deploy_s", deploy_net_s, "s"),
        ("net.frames_sent", net.frames_sent as f64, "count"),
        ("net.frames_lost", net.frames_lost as f64, "count"),
        ("net.retries", net.retries as f64, "count"),
        ("net.chunk_resends", net.chunk_resends as f64, "count"),
        (
            "net.goodput_ratio",
            per(first_attempt as f64, net.frames_sent),
            "ratio",
        ),
        ("log.ingest_s", log_s, "s"),
        ("log.retain_s", span_s("log.retain_last"), "s"),
        ("log.rows", counts.log_rows as f64, "count"),
        ("log.us_per_row", per(log_s * 1e6, counts.log_rows), "us"),
        (
            "log.quarantined",
            counts.quarantined_entries as f64,
            "count",
        ),
        ("store.ingest_s", span_s("store.ingest_batch"), "s"),
        ("store.flush_s", span_s("store.flush"), "s"),
        ("store.retain_s", span_s("store.retain_last_amortized"), "s"),
        (
            "store.chunks_written",
            counts.store_chunks_written as f64,
            "count",
        ),
        (
            "store.rows_sealed",
            counts.store_rows_sealed as f64,
            "count",
        ),
        ("analysis.s", span_s("analysis.analyze_variant_with"), "s"),
        ("analysis.causes", counts.causes as f64, "count"),
        ("adapt.jobs", counts.adapt_jobs as f64, "count"),
        ("adapt.rows", counts.adapt_rows as f64, "count"),
        ("adapt.steps", counts.adapt_steps as f64, "count"),
        ("adapt.job_cpu_s", job_cpu_s, "s"),
        ("adapt.fanout_wall_s", span_s("adapt.fanout"), "s"),
        ("adapt.clean_s", clean_s, "s"),
        (
            "adapt.ms_per_step",
            per((job_cpu_s + clean_s) * 1e3, counts.adapt_steps),
            "ms",
        ),
        ("deploy.count", counts.deploys as f64, "count"),
        ("deploy.devices", counts.deploy_devices as f64, "count"),
        ("deploy.install_s", install_s, "s"),
        (
            "deploy.ms_per_deploy",
            per((deploy_net_s + install_s) * 1e3, counts.deploys),
            "ms",
        ),
        (
            "cloud.self_s",
            layer_self.get("cloud").copied().unwrap_or(0.0),
            "s",
        ),
        (
            "cloud.cycle_s",
            (expected.analysis_time + expected.adapt_time).as_secs_f64(),
            "s",
        ),
        (
            "cloud.quarantined_uploads",
            counts.quarantined_uploads as f64,
            "count",
        ),
        ("trace.coverage", coverage, "ratio"),
        (
            "trace.overhead_ratio",
            traced_run_s / untraced_run_s,
            "ratio",
        ),
        ("trace.run_s", traced_run_s, "s"),
        ("trace.untraced_run_s", untraced_run_s, "s"),
        ("setup.generate_s", times.generate.as_secs_f64(), "s"),
        ("setup.train_s", times.train.as_secs_f64(), "s"),
        (
            "setup.orchestrator_s",
            times.orchestrator.as_secs_f64(),
            "s",
        ),
    ];
    let attempted = counts.items;
    let failed = transport_failures(&got)
        + counts.quarantined_entries
        + counts.quarantined_uploads
        + counts.rejected_patches;
    let layers: Vec<String> = layer_self
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:?}"))
        .collect();
    let extra = vec![
        ("digest", format!("\"{}\"", digest(&expected))),
        ("replay_digest", format!("\"{}\"", digest(&got))),
        ("untraced_run_s", format!("{untraced_run_s:?}")),
        ("layer_self_s", format!("{{{}}}", layers.join(", "))),
    ];
    let outcome = Outcome {
        correct,
        attempted,
        failed,
        metrics,
        extra,
    };
    (outcome, rec)
}

fn write_spans(args: &Args, rec: &Recorder) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_jsonl()))
    {
        eprintln!("nazar-cycle: could not write {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nazar-cycle: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = check_environment() {
        eprintln!("nazar-cycle: {e}");
        std::process::exit(2);
    }
    if args.digest {
        let (prepared, mut orch, _scratch, _) = setup(args.workload, args.seed);
        let result = orch.run(&prepared.streams);
        println!("digest {}", digest(&result));
        let _ = std::fs::remove_dir_all(workload::SCRATCH_DIR);
        return;
    }
    let outcome = if args.trace {
        let (outcome, rec) = traced(&args);
        write_spans(&args, &rec);
        outcome
    } else {
        end_to_end(&args)
    };
    let _ = std::fs::remove_dir_all(workload::SCRATCH_DIR);
    println!("record: {}", record_line(&args, &outcome));
    println!("{}", result_line(&outcome));
}
