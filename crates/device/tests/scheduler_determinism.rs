//! Property tests for the fleet scheduler's determinism contract: for any
//! randomized stream shape and seed, the event pop order and the fleet
//! output are identical at every worker count, and every window equals a
//! sequential reference built from whole [`Device`]s.
//!
//! The reference follows the seeding contract documented on
//! [`FleetSim::process_window_parts`] and nothing else: one `SmallRng` seed
//! per participating device drawn in sorted-id order, then
//! [`Device::process`] over that device's items in stream order. It has no
//! event queue, no struct-of-arrays state, no version arena and no worker
//! pool, so agreement pins all of those — including how `FleetSim` checks
//! the stateful zoo detectors out into batch jobs and merges them back —
//! for every [`DetectorKind`], f32 and i8 inference, and no, broadcast,
//! location-targeted or mixed multi-version deployments between windows.

use nazar_data::{LocationStream, Severity, SimDate, StreamItem, Weather};
use nazar_detect::DetectorKind;
use nazar_device::{Device, DeviceConfig, DeviceOutput, FleetSim, WindowOutput};
use nazar_log::Attribute;
use nazar_nn::{BnPatch, MlpResNet, Mode, ModelArch, QuantMode};
use nazar_registry::VersionMeta;
use nazar_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::collections::BTreeMap;

const DIM: usize = 6;
const CLASSES: usize = 4;
const LOCATIONS: usize = 3;
const WINDOWS: usize = 2;

fn location_of(device: usize) -> String {
    format!("loc-{}", device % LOCATIONS)
}

fn device_id(device: usize) -> String {
    format!("loc-{}-dev{device:02}", device % LOCATIONS)
}

/// Deterministic features, shifted on drifting weather so the statistical
/// detectors see a distribution change — proptest varies the stream
/// *shape*; giving it the float values too only slows case generation
/// without adding coverage.
fn features(device: usize, day: u16, weather: Weather) -> Vec<f32> {
    let shift = if weather.is_drifting() { 1.5 } else { 0.0 };
    (0..DIM)
        .map(|j| ((device * 31 + j * 7 + day as usize * 13) % 89) as f32 / 89.0 - 0.5 + shift)
        .collect()
}

/// Builds one stream per location from raw `(device, day, label, weather)`
/// tuples.
fn streams_from(raw: &[(usize, u16, usize, usize)]) -> Vec<LocationStream> {
    let mut streams: Vec<LocationStream> = (0..LOCATIONS)
        .map(|l| LocationStream {
            location: format!("loc-{l}"),
            items: Vec::new(),
        })
        .collect();
    for &(d, day, label, w) in raw {
        let weather = [Weather::Clear, Weather::Rain, Weather::Snow, Weather::Fog][w % 4];
        let day = day % SimDate::TOTAL_DAYS;
        streams[d % LOCATIONS].items.push(StreamItem {
            features: features(d, day, weather),
            label: label % CLASSES,
            date: SimDate::new(day),
            location: location_of(d),
            device_id: device_id(d),
            weather,
            true_cause: weather.corruption(),
            severity: if weather.is_drifting() {
                Severity::DEFAULT
            } else {
                Severity::NONE
            },
        });
    }
    streams
}

fn base_model() -> MlpResNet {
    MlpResNet::new(
        ModelArch::tiny(DIM, CLASSES),
        &mut SmallRng::seed_from_u64(11),
    )
}

fn donor_patch(seed: u64) -> BnPatch {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut donor = MlpResNet::new(ModelArch::tiny(DIM, CLASSES), &mut rng);
    let x = Tensor::rand_uniform(&mut rng, &[8, DIM], -1.0, 1.0);
    let _ = donor.logits(&x, Mode::Train);
    BnPatch::extract(&mut donor)
}

/// Distinct BN patches for the versions of one deployment (version `k`
/// gets patch `k`), so every version's verdicts differ from the others'.
fn donor_patches(seed: u64) -> Vec<BnPatch> {
    (0..3u64)
        .map(|k| donor_patch(seed.wrapping_add(k * 7919)))
        .collect()
}

/// The deployment that lands between the two windows.
#[derive(Debug, Clone, Copy)]
enum Deploy {
    None,
    Broadcast,
    /// Targeted at the first stream's location, through
    /// [`FleetSim::deploy_targeted`].
    TargetedByLocation,
    /// Two location-targeted versions (snow at the first location, rain at
    /// the second) plus a broadcast fog version. A virtual day's batch then
    /// spans up to three selected versions plus the base model, so the
    /// scheduler's grouping by version is exercised across devices and
    /// within one device's day.
    Mixed,
}

const DEPLOYS: [Deploy; 4] = [
    Deploy::None,
    Deploy::Broadcast,
    Deploy::TargetedByLocation,
    Deploy::Mixed,
];

/// The versions of `deploy`, in install order, each with whether it goes
/// out through [`FleetSim::deploy_targeted`] (else [`FleetSim::deploy`]).
fn deploy_versions(deploy: Deploy) -> Vec<(VersionMeta, bool)> {
    let broadcast = || {
        (
            VersionMeta::new(vec![Attribute::new("weather", "fog")], 1.5),
            false,
        )
    };
    let targeted = |device: usize, weather: &str, risk: f64| {
        (
            VersionMeta::new(
                vec![
                    Attribute::new("weather", weather),
                    Attribute::new("location", location_of(device)),
                ],
                risk,
            ),
            true,
        )
    };
    match deploy {
        Deploy::None => Vec::new(),
        Deploy::Broadcast => vec![broadcast()],
        Deploy::TargetedByLocation => vec![targeted(0, "snow", 2.0)],
        Deploy::Mixed => vec![
            targeted(0, "snow", 2.0),
            targeted(1, "rain", 2.5),
            broadcast(),
        ],
    }
}

/// Applies `deploy` to the fleet; returns how many installs it made.
fn deploy_to(sim: &mut FleetSim, deploy: Deploy, patches: &[BnPatch]) -> usize {
    deploy_versions(deploy)
        .into_iter()
        .zip(patches)
        .map(|((meta, targeted), patch)| {
            if targeted {
                sim.deploy_targeted(&meta, patch)
            } else {
                sim.deploy(&meta, patch);
                sim.len()
            }
        })
        .sum()
}

/// The sequential reference fleet: whole [`Device`]s keyed by id.
struct Reference {
    devices: BTreeMap<String, Device>,
}

impl Reference {
    fn from_streams(streams: &[LocationStream], model: &MlpResNet, config: &DeviceConfig) -> Self {
        let mut devices = BTreeMap::new();
        for item in streams.iter().flat_map(|s| &s.items) {
            devices.entry(item.device_id.clone()).or_insert_with(|| {
                Device::new(
                    item.device_id.clone(),
                    item.location.clone(),
                    model.clone(),
                    config.clone(),
                )
            });
        }
        Reference { devices }
    }

    /// The seeding contract: one seed per participating device in sorted-id
    /// order, then each device's items in stream order.
    fn process_window_parts(
        &mut self,
        streams: &[LocationStream],
        w: usize,
        rng: &mut SmallRng,
    ) -> Vec<(String, WindowOutput)> {
        let mut per_device: BTreeMap<&str, Vec<&StreamItem>> = BTreeMap::new();
        for item in streams.iter().flat_map(|s| s.window_items(w, WINDOWS)) {
            per_device.entry(&item.device_id).or_default().push(item);
        }
        let mut parts = Vec::new();
        for (id, items) in per_device {
            let mut device_rng = SmallRng::seed_from_u64(rng.next_u64());
            let device = self.devices.get_mut(id).expect("one device per id");
            let mut part = WindowOutput::default();
            for item in items {
                let out = device.process(item, &mut device_rng);
                tally(&mut part, item, out);
            }
            parts.push((id.to_string(), part));
        }
        parts
    }

    /// Installs each version of `deploy` on every device whose location
    /// and id match the version's `location`/`device_id` attributes (all
    /// devices when it names none); returns how many installs it made.
    fn deploy(&mut self, deploy: Deploy, patches: &[BnPatch]) -> usize {
        let mut installed = 0;
        for ((meta, _), patch) in deploy_versions(deploy).into_iter().zip(patches) {
            let matches = |key: &str, value: &str| {
                meta.attrs.iter().all(|a| a.key != key || a.value == value)
            };
            for device in self.devices.values_mut() {
                if matches("location", device.location()) && matches("device_id", device.id()) {
                    device.install(meta.clone(), patch.clone());
                    installed += 1;
                }
            }
        }
        installed
    }

    fn max_versions(&self) -> usize {
        self.devices
            .values()
            .map(Device::num_versions)
            .max()
            .unwrap_or(0)
    }
}

/// Folds one processed item into a window output.
fn tally(part: &mut WindowOutput, item: &StreamItem, out: DeviceOutput) {
    let stats = &mut part.stats;
    let (drift, correct) = (out.entry.drift, usize::from(out.correct));
    stats.total += 1;
    stats.correct += correct;
    stats.flagged += usize::from(drift);
    stats.false_positives += usize::from(drift && item.true_cause.is_none());
    stats.misses += usize::from(!drift && item.true_cause.is_some());
    if let Some(cause) = item.true_cause {
        stats.drifted_total += 1;
        stats.drifted_correct += correct;
        let e = stats.per_cause.entry(cause.name().to_string()).or_default();
        e.0 += correct;
        e.1 += 1;
    }
    part.entries.push(out.entry);
    part.uploads.extend(out.sample);
}

/// Runs `FleetSim` and the reference side by side over both windows, for
/// every detector kind and deployment, and fails on the first difference.
fn check_against_reference(
    seed: u64,
    raw: &[(usize, u16, usize, usize)],
    threshold: f32,
    quant: QuantMode,
) -> Result<(), TestCaseError> {
    let streams = streams_from(raw);
    let model = base_model();
    let patches = donor_patches(seed ^ 1);
    for detector in DetectorKind::ALL {
        for deploy in DEPLOYS {
            let config = DeviceConfig {
                detector,
                detection_threshold: threshold,
                quant,
                ..DeviceConfig::default()
            };
            let mut sim = FleetSim::from_streams(&streams, &model, &config);
            let mut reference = Reference::from_streams(&streams, &model, &config);
            let ids: Vec<String> = reference.devices.keys().cloned().collect();
            prop_assert_eq!(sim.device_ids(), ids);

            let mut rng_sim = SmallRng::seed_from_u64(seed);
            let mut rng_ref = SmallRng::seed_from_u64(seed);
            for w in 0..WINDOWS {
                // One worker: every device's arrivals of a day share one
                // batch, so a day's forward groups mix devices and versions
                // on any host.
                let got =
                    sim.process_window_parts_with_threads(&streams, w, WINDOWS, &mut rng_sim, 1);
                let want = reference.process_window_parts(&streams, w, &mut rng_ref);
                prop_assert!(
                    got == want,
                    "{:?}/{:?}/{:?}: window {} differs from the reference",
                    detector,
                    quant,
                    deploy,
                    w
                );
                if w == 0 {
                    prop_assert_eq!(
                        deploy_to(&mut sim, deploy, &patches),
                        reference.deploy(deploy, &patches)
                    );
                }
                prop_assert_eq!(sim.max_versions(), reference.max_versions());
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ identical event pop order *and* identical fleet output
    /// at 1 worker vs N workers, across both windows, any detector kind and
    /// any mid-run deployment.
    #[test]
    fn event_order_and_output_are_thread_invariant(
        seed in 0u64..1_000_000,
        threads in 2usize..=8,
        raw in proptest::collection::vec(
            (0usize..12, 0u16..SimDate::TOTAL_DAYS, 0usize..CLASSES, 0usize..4),
            1..40,
        ),
        detector in 0usize..DetectorKind::ALL.len(),
        deploy in 0usize..DEPLOYS.len(),
    ) {
        let streams = streams_from(&raw);
        let model = base_model();
        let config = DeviceConfig {
            detector: DetectorKind::ALL[detector],
            ..DeviceConfig::default()
        };
        let run = |workers: usize| {
            let mut sim = FleetSim::from_streams(&streams, &model, &config);
            sim.set_trace(true);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut all = Vec::new();
            for w in 0..WINDOWS {
                all.push(sim.process_window_parts_with_threads(
                    &streams, w, WINDOWS, &mut rng, workers,
                ));
                if w == 0 {
                    deploy_to(&mut sim, DEPLOYS[deploy], &donor_patches(seed));
                }
            }
            (sim.take_trace(), all, sim.clock_us())
        };
        let (trace_1, parts_1, clock_1) = run(1);
        let (trace_n, parts_n, clock_n) = run(threads);
        prop_assert_eq!(trace_1, trace_n);
        prop_assert_eq!(parts_1, parts_n);
        prop_assert_eq!(clock_1, clock_n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `FleetSim` reproduces the sequential reference bit-for-bit under f32
    /// inference. Three devices with ~70–200 items each, so the windowed
    /// (64 + 32 warmup) and sequential detectors get past their warmup.
    #[test]
    fn fleet_sim_matches_sequential_reference(
        seed in 0u64..1_000_000,
        raw in proptest::collection::vec(
            (0usize..3, 0u16..SimDate::TOTAL_DAYS, 0usize..CLASSES, 0usize..4),
            200..600,
        ),
        threshold in 0.3f32..0.95,
    ) {
        check_against_reference(seed, &raw, threshold, QuantMode::F32)?;
    }

    /// The same differential under [`QuantMode::I8`]: both sides route
    /// detection through the quantized mirror.
    #[test]
    fn fleet_sim_matches_sequential_reference_under_i8(
        seed in 0u64..1_000_000,
        raw in proptest::collection::vec(
            (0usize..3, 0u16..SimDate::TOTAL_DAYS, 0usize..CLASSES, 0usize..4),
            200..600,
        ),
        threshold in 0.3f32..0.95,
    ) {
        check_against_reference(seed, &raw, threshold, QuantMode::I8)?;
    }
}
