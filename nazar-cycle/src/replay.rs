//! The traced run: the orchestrator's window loop replayed from the
//! benchmark, one span around each call into a layer's public API.
//!
//! The replay follows `Orchestrator::run` on the transport path step by
//! step — the same RNG draws in the same order, the same ingest, retention,
//! analysis, adaptation, deploy and flush calls — so its outputs must equal
//! the orchestrator's bit for bit. `main` checks that they do; if they
//! differ, the per-layer numbers would not describe the program.

use crate::trace::{Open, Recorder};
use crate::workload::{Prepared, ScratchStore};
use nazar_adapt::{adapt_to_patch, AdaptMethod};
use nazar_analysis::{analyze_variant_with, RankedCause};
use nazar_cloud::{sanitize_uploads, CloudConfig, OperationMode, RunResult, Strategy};
use nazar_device::{FleetSim, UploadedSample, WindowStats, LOG_SCHEMA};
use nazar_log::{DriftLog, DriftLogEntry};
use nazar_net::Exchange;
use nazar_nn::{BnPatch, Layer, MlpResNet};
use nazar_registry::VersionMeta;
use nazar_store::DriftStore;
use nazar_tensor::{parallel, Tensor};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;

/// Work counts gathered at the layer boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub items: u64,
    pub flagged: u64,
    pub max_versions: u64,
    pub log_rows: u64,
    pub quarantined_entries: u64,
    pub quarantined_uploads: u64,
    pub store_chunks_written: u64,
    pub store_rows_sealed: u64,
    pub store_errors: u64,
    pub causes: u64,
    pub adapt_jobs: u64,
    pub adapt_rows: u64,
    pub adapt_steps: u64,
    /// Busy time of the per-cause jobs, summed over workers, ns.
    pub adapt_job_busy_ns: u64,
    pub deploys: u64,
    pub deploy_devices: u64,
    pub rejected_patches: u64,
}

/// One replay over a prepared workload.
pub struct Replay<'a> {
    prepared: &'a Prepared,
    config: CloudConfig,
    base_model: MlpResNet,
    rolling_model: MlpResNet,
    fleet: FleetSim,
    exchange: Exchange,
    drift_log: DriftLog,
    store: Option<DriftStore>,
    _scratch: Option<ScratchStore>,
    rng: SmallRng,
    model_scalars: u64,
    ledger: (u64, u64),
    scalar_ledger: u64,
    pub counts: Counts,
}

impl<'a> Replay<'a> {
    /// Builds the same state `Orchestrator::new` builds, from the layers'
    /// own constructors.
    pub fn new(prepared: &'a Prepared) -> Replay<'a> {
        let (config, scratch) = prepared.run_config();
        assert_eq!(
            config.mode,
            OperationMode::Autopilot,
            "the replay follows the autopilot path only"
        );
        let base_model = prepared.model.clone();
        let fleet = FleetSim::from_streams(&prepared.streams, &base_model, &config.device);
        let net = config
            .net
            .clone()
            .expect("every workload runs over the transport");
        let exchange = Exchange::new(fleet.device_ids(), net);
        let store = config
            .persist
            .clone()
            .map(|c| DriftStore::open_config(&LOG_SCHEMA, c).expect("fresh store directory opens"));
        let model_scalars = base_model.clone().num_params() as u64;
        Replay {
            prepared,
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            rolling_model: base_model.clone(),
            base_model,
            fleet,
            exchange,
            drift_log: DriftLog::new(&LOG_SCHEMA),
            store,
            _scratch: scratch,
            model_scalars,
            ledger: (0, 0),
            scalar_ledger: 0,
            counts: Counts::default(),
        }
    }

    /// Replays every window, recording spans into `rec`.
    pub fn run(&mut self, rec: &mut Recorder) -> RunResult {
        let streams = &self.prepared.streams;
        let windows = self.config.windows;
        let mut result = RunResult::default();
        for w in 0..windows {
            rec.set_trace(format!("w{w}"));
            let window = rec.open("window", None);
            let parent = Some(window);

            let parts = rec.time("device.process_window_parts", parent, || {
                self.fleet
                    .process_window_parts(streams, w, windows, &mut self.rng)
            });
            let mut stats = WindowStats::default();
            let mut batches = Vec::with_capacity(parts.len());
            for (id, part) in parts {
                stats.merge(&part.stats);
                batches.push((id, part.entries, part.uploads));
            }
            self.exchange.advance_clock_to(self.fleet.clock_us());
            let delivery = rec.time("net.upload_window", parent, || {
                self.exchange.upload_window(batches)
            });
            self.fleet.advance_clock_to(self.exchange.clock_us());
            let entries = delivery.entries;
            self.ingest(rec, parent, &entries);
            let before = delivery.uploads.len();
            let uploads = sanitize_uploads(delivery.uploads);
            self.counts.quarantined_uploads += (before - uploads.len()) as u64;
            result.log_rows = self.drift_log.num_rows();

            let causes = match self.prepared.strategy {
                Strategy::NoAdapt => Vec::new(),
                Strategy::Nazar => self.nazar_window(rec, parent, &entries, &uploads),
                Strategy::AdaptAll => unreachable!("no workload runs adapt-all"),
            };

            if let Some(store) = self.store.as_mut() {
                let flushed = rec.time("store.flush", parent, || store.flush());
                match flushed {
                    Ok(report) => {
                        self.counts.store_chunks_written += report.chunks_written as u64;
                        self.counts.store_rows_sealed += report.rows_sealed as u64;
                    }
                    Err(_) => self.counts.store_errors += 1,
                }
            }
            self.counts.items += stats.total as u64;
            self.counts.flagged += stats.flagged as u64;
            let versions = self.fleet.max_versions();
            self.counts.max_versions = self.counts.max_versions.max(versions as u64);
            result
                .causes_per_window
                .push(causes.iter().map(RankedCause::label).collect());
            result.version_counts.push(versions);
            result.per_window.push(stats);
            rec.close(window);
        }
        result.patch_bytes_shipped = self.ledger.0;
        result.patch_scalar_bytes = self.scalar_ledger;
        result.full_model_bytes_equivalent = self.ledger.1;
        result.net = *self.exchange.report();
        result
    }

    fn ingest(&mut self, rec: &mut Recorder, parent: Option<Open>, entries: &[DriftLogEntry]) {
        let batch = entries.to_vec();
        let report = rec.time("log.ingest_batch", parent, || {
            self.drift_log.ingest_batch(batch)
        });
        self.counts.log_rows += entries.len() as u64;
        self.counts.quarantined_entries += report.quarantined as u64;
        if let Some(store) = self.store.as_mut() {
            let batch = entries.to_vec();
            rec.time("store.ingest_batch", parent, || store.ingest_batch(batch));
        }
        if let Some(limit) = self.config.log_retention {
            rec.time("log.retain_last", parent, || {
                self.drift_log.retain_last(limit)
            });
            if let Some(store) = self.store.as_mut() {
                let retained = rec.time("store.retain_last_amortized", parent, || {
                    store.retain_last_amortized(limit)
                });
                if retained.is_err() {
                    self.counts.store_errors += 1;
                }
            }
        }
    }

    fn nazar_window(
        &mut self,
        rec: &mut Recorder,
        parent: Option<Open>,
        entries: &[DriftLogEntry],
        uploads: &[UploadedSample],
    ) -> Vec<RankedCause> {
        let mut window_log = DriftLog::new(&LOG_SCHEMA);
        let batch = entries.to_vec();
        rec.time("log.ingest_batch", parent, || {
            window_log.ingest_batch(batch)
        });
        self.counts.log_rows += entries.len() as u64;
        let config = &self.config;
        let mut causes = rec.time("analysis.analyze_variant_with", parent, || {
            analyze_variant_with(
                &window_log,
                &config.fim,
                config.analysis_variant,
                config.algorithm,
            )
        });
        drop(window_log);
        causes.truncate(self.config.max_causes_per_window);
        self.counts.causes += causes.len() as u64;

        // Gating and seed drawing, in cause order (cloud work).
        let mut adapted = Vec::new();
        let mut covered = vec![false; uploads.len()];
        let mut jobs: Vec<(RankedCause, Tensor, u64)> = Vec::new();
        for cause in causes {
            let matching: Vec<usize> = uploads
                .iter()
                .enumerate()
                .filter(|(_, u)| cause.attrs.iter().all(|a| u.attrs.contains(a)))
                .map(|(i, _)| i)
                .collect();
            if matching.len() < self.config.min_samples_per_cause {
                continue;
            }
            for &i in &matching {
                covered[i] = true;
            }
            let rows: Vec<Vec<f32>> = matching
                .iter()
                .map(|&i| uploads[i].features.clone())
                .collect();
            let data = Tensor::stack_rows(&rows).expect("uniform feature width");
            jobs.push((cause, data, self.rng.next_u64()));
        }

        // The per-cause fan-out: wall time as one span, each job's busy
        // time as a child span measured on its worker.
        for (_, data, _) in &jobs {
            self.count_adapt_job(data);
        }
        let fanout = rec.open("adapt.fanout", parent);
        let base_model = &self.base_model;
        let method = &self.config.method;
        let patches = parallel::par_map(jobs, |(cause, data, seed)| {
            let start = Instant::now();
            let mut job_rng = SmallRng::seed_from_u64(seed);
            let (patch, _) = adapt_to_patch(base_model, &data, method, &mut job_rng);
            (cause, patch, start, Instant::now())
        });
        rec.close(fanout);
        for (_, _, start, end) in &patches {
            let (s, e) = (rec.ns_at(*start), rec.ns_at(*end));
            self.counts.adapt_job_busy_ns += e - s;
            let _ = rec.push("adapt.job", Some(fanout), s, e);
        }
        for (cause, patch, _, _) in patches {
            let meta = VersionMeta::new(cause.attrs.clone(), cause.stats.risk_ratio);
            self.deploy(rec, parent, &meta, &patch);
            adapted.push(cause);
        }

        // The clean fallback over inputs no adapted cause covers.
        if self.config.adapt_clean {
            let clean_rows: Vec<Vec<f32>> = uploads
                .iter()
                .zip(&covered)
                .filter(|(_, &c)| !c)
                .map(|(u, _)| u.features.clone())
                .collect();
            if clean_rows.len() >= self.config.min_samples_per_cause {
                let data = Tensor::stack_rows(&clean_rows).expect("uniform feature width");
                self.count_adapt_job(&data);
                let (rolling, method, rng) =
                    (&self.rolling_model, &self.config.method, &mut self.rng);
                let (patch, _) = rec.time("adapt.clean", parent, || {
                    adapt_to_patch(rolling, &data, method, rng)
                });
                patch
                    .apply(&mut self.rolling_model)
                    .expect("same architecture");
                self.deploy(rec, parent, &VersionMeta::clean(), &patch);
            }
        }
        adapted
    }

    /// Counts one adaptation job: its rows and its TENT steps
    /// (epochs × ⌈rows / batch size⌉).
    fn count_adapt_job(&mut self, data: &Tensor) {
        let rows = data.nrows().unwrap_or(0) as u64;
        self.counts.adapt_jobs += 1;
        self.counts.adapt_rows += rows;
        if let AdaptMethod::Tent(cfg) = &self.config.method {
            self.counts.adapt_steps += cfg.epochs as u64 * rows.div_ceil(cfg.batch_size as u64);
        }
    }

    /// Broadcast deploy over the exchange, then install on every device
    /// whose transfer completed — the orchestrator's deploy path.
    fn deploy(
        &mut self,
        rec: &mut Recorder,
        parent: Option<Open>,
        meta: &VersionMeta,
        patch: &BnPatch,
    ) {
        if !patch.is_finite() {
            self.counts.rejected_patches += 1;
            return;
        }
        let targets = if self.config.targeted_deployment {
            self.fleet.target_ids(meta)
        } else {
            self.fleet.device_ids()
        };
        let exchange = &mut self.exchange;
        let delivery = rec.time("net.deploy", parent, || {
            exchange.deploy(&targets, meta, patch)
        });
        let devices = delivery.delivered.len() as u64;
        let fleet = &mut self.fleet;
        rec.time("deploy.install_on", parent, || {
            for (device, meta, patch) in delivery.delivered {
                fleet.install_on(&device, &meta, &patch);
            }
        });
        self.fleet.advance_clock_to(self.exchange.clock_us());
        self.counts.deploys += 1;
        self.counts.deploy_devices += devices;
        self.ledger.0 += devices * patch.encoded_len() as u64;
        self.ledger.1 += devices * self.model_scalars * 4;
        self.scalar_ledger += devices * patch.num_scalars() as u64 * 4;
    }
}
