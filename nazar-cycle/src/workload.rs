//! The three workloads and their hermetic set-up.
//!
//! The world of each workload — class space, weather, training split and
//! therefore the trained base model — is the dataset's default one, and the
//! program's own RNG seeds (cloud, link) keep their defaults. The benchmark
//! seed draws the traffic over that world: which stream items arrive.
//! Nothing is read from the `NAZAR_NET_*` / `NAZAR_STORE_*` environment or
//! from an on-disk model cache; the base model is trained in-process and
//! its cost is part of the set-up time.

use nazar_adapt::{AdaptMethod, TentConfig};
use nazar_cloud::experiment::train_base_model;
use nazar_cloud::{CloudConfig, Orchestrator, Strategy};
use nazar_data::{AnimalsConfig, AnimalsDataset, LocationStream, TextConfig, TextDataset};
use nazar_net::{stable_hash, LinkConfig, NetConfig, RetryPolicy};
use nazar_nn::{MlpResNet, ModelArch};
use nazar_store::StoreConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Scratch space for durable stores, relative to the benchmark's working
/// directory (the checkout root). Removed when the run ends.
pub const SCRATCH_DIR: &str = ".bench_out/tmp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Animals, 7 locations × 16 devices, full Nazar with TENT: the §5.8 cycle.
    VisionCycle,
    /// Drifting-topic text, 7 locations × 64 devices, no adaptation: device
    /// inference, detection, upload and ingest do the work.
    FleetDetect,
    /// Drifting-topic text, durable drift store, lossy link.
    TextDurable,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::VisionCycle => "vision_cycle",
            Workload::FleetDetect => "fleet_detect",
            Workload::TextDurable => "text_durable",
        }
    }

    /// Timed orchestrator runs a `--trace 0` run makes at least, whatever
    /// `--seconds` says. One `fleet_detect` run is twice as long as the
    /// others; `text_durable` set-up is short, so it affords a third run,
    /// which its host-speed ratio needs to stay steady.
    pub fn min_runs(self) -> usize {
        match self {
            Workload::VisionCycle => 2,
            Workload::FleetDetect => 1,
            Workload::TextDurable => 3,
        }
    }

    /// Untimed orchestrator runs before the timed ones. The first
    /// `vision_cycle` run in a process reads about 20% slower than the
    /// next ones while the heap grows; the other workloads show no such
    /// step.
    pub fn warmup_runs(self) -> usize {
        match self {
            Workload::VisionCycle => 1,
            Workload::FleetDetect | Workload::TextDurable => 0,
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "vision_cycle" => Some(Workload::VisionCycle),
            "fleet_detect" => Some(Workload::FleetDetect),
            "text_durable" => Some(Workload::TextDurable),
            _ => None,
        }
    }
}

/// Seed of the base-model training run (the experiment binaries' value for
/// the default Animals seed; the text model uses it too).
const TRAIN_SEED: u64 = 20_20 ^ 0xbeef;

/// Share of the world's stream items a seed keeps.
const KEEP_SHARE: f64 = 0.95;

/// Devices per location on `fleet_detect`.
pub const FLEET_DEVICES_PER_LOCATION: usize = 64;

/// The TENT configuration the experiment binaries use (`tent_method`).
fn tent_method() -> AdaptMethod {
    AdaptMethod::Tent(TentConfig {
        lr: 0.008,
        epochs: 3,
        ..TentConfig::default()
    })
}

/// A perfect link, spelled out so `NAZAR_NET_*` cannot leak in.
fn perfect_net() -> NetConfig {
    NetConfig::default()
}

/// 10% frame loss in both directions. The retry budget is large enough that
/// no upload frame or deploy transfer is abandoned: losses cost retries and
/// resends, never data.
fn lossy_net() -> NetConfig {
    NetConfig {
        link: LinkConfig {
            loss: 0.10,
            ..LinkConfig::perfect()
        },
        retry: RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        },
        ..NetConfig::default()
    }
}

/// Time spent in each set-up phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    pub train: Duration,
    pub orchestrator: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.train + self.orchestrator
    }
}

/// Generated inputs, a trained base model and the cloud configuration for
/// one workload and seed.
#[derive(Debug)]
pub struct Prepared {
    pub streams: Vec<LocationStream>,
    pub model: MlpResNet,
    pub strategy: Strategy,
    pub config: CloudConfig,
    durable: bool,
}

/// Dataset generation, then base-model training, each timed.
fn prepare(workload: Workload, seed: u64) -> (Prepared, SetupTimes) {
    let mut times = SetupTimes::default();
    let t0 = Instant::now();
    let (train, val, streams, arch) = match workload {
        Workload::VisionCycle => {
            let config = AnimalsConfig::default();
            let data = AnimalsDataset::generate(&config);
            let arch = ModelArch::resnet50_analog(config.dim, config.classes);
            (data.train, data.val, data.streams, arch)
        }
        Workload::FleetDetect | Workload::TextDurable => {
            let mut config = TextConfig::default();
            if workload == Workload::FleetDetect {
                config.devices_per_location = FLEET_DEVICES_PER_LOCATION;
            }
            let data = TextDataset::generate(&config);
            let arch = ModelArch::resnet50_analog(config.vocab, config.topics);
            (data.train, data.val, data.streams, arch)
        }
    };
    let streams = thin(streams, seed);
    times.generate = t0.elapsed();

    let t1 = Instant::now();
    let model = train_base_model(&train, &val, arch, TRAIN_SEED).model;
    times.train = t1.elapsed();

    let base = CloudConfig {
        windows: 8,
        method: tent_method(),
        min_samples_per_cause: 32,
        net: Some(perfect_net()),
        persist: None,
        log_retention: None,
        ..CloudConfig::default()
    };
    let (strategy, config, durable) = match workload {
        Workload::VisionCycle => (Strategy::Nazar, base, false),
        Workload::FleetDetect => (Strategy::NoAdapt, base, false),
        Workload::TextDurable => (
            Strategy::Nazar,
            CloudConfig {
                net: Some(lossy_net()),
                log_retention: Some(8192),
                ..base
            },
            true,
        ),
    };
    let prepared = Prepared {
        streams,
        model,
        strategy,
        config,
        durable,
    };
    (prepared, times)
}

/// The seed's traffic over the fixed world: every stream item is kept
/// with probability [`KEEP_SHARE`], drawn per location from the seed.
/// Thinning a Poisson arrival process leaves it Poisson, so each seed is
/// another day-to-day draw of the same fleet's traffic.
fn thin(streams: Vec<LocationStream>, seed: u64) -> Vec<LocationStream> {
    streams
        .into_iter()
        .map(|mut stream| {
            let mut rng = SmallRng::seed_from_u64(seed ^ stable_hash(stream.location.as_bytes()));
            stream.items.retain(|_| rng.gen_bool(KEEP_SHARE));
            stream
        })
        .collect()
}

/// A fresh directory for one durable store, removed on drop.
#[derive(Debug)]
pub struct ScratchStore {
    dir: PathBuf,
}

impl ScratchStore {
    fn new() -> ScratchStore {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH_DIR).join(format!("store-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ScratchStore { dir }
    }
}

impl Drop for ScratchStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Prepared {
    /// The cloud configuration for one run: durable workloads get a store in
    /// a fresh directory, returned alongside so the caller controls its
    /// lifetime.
    pub fn run_config(&self) -> (CloudConfig, Option<ScratchStore>) {
        let mut config = self.config.clone();
        let scratch = self.durable.then(ScratchStore::new);
        config.persist = scratch
            .as_ref()
            .map(|s| StoreConfig::at(s.dir.to_string_lossy().into_owned()));
        (config, scratch)
    }

    /// A fresh orchestrator over this workload.
    pub fn orchestrator(&self) -> (Orchestrator, Option<ScratchStore>) {
        let (config, scratch) = self.run_config();
        let orch = Orchestrator::new(self.model.clone(), &self.streams, self.strategy, config);
        (orch, scratch)
    }
}

/// Full set-up: generation, training and one orchestrator, each timed.
pub fn setup(
    workload: Workload,
    seed: u64,
) -> (Prepared, Orchestrator, Option<ScratchStore>, SetupTimes) {
    let (prepared, mut times) = prepare(workload, seed);
    let t = Instant::now();
    let (orch, scratch) = prepared.orchestrator();
    times.orchestrator = t.elapsed();
    (prepared, orch, scratch, times)
}
