//! Integration of adaptation and deployment: patches produced by TENT must
//! flow through the registry onto devices and change their predictions on
//! matching inputs only.

use nazar::adapt::{adapt_to_patch, AdaptMethod, TentConfig};
use nazar::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn trained_world() -> (nazar::data::ClassSpace, MlpResNet) {
    let mut rng = SmallRng::seed_from_u64(9);
    let space = nazar::data::ClassSpace::new(&mut rng, 32, 8, 0.75, 0.5);
    let train: LabeledSet = space.sample_balanced(&mut rng, 60).into_iter().collect();
    let val: LabeledSet = space.sample_balanced(&mut rng, 12).into_iter().collect();
    let trained = train_base_model(&train, &val, ModelArch::tiny(32, 8), 6);
    (space, trained.model)
}

fn corrupt_matrix(
    space: &nazar::data::ClassSpace,
    c: Corruption,
    n: usize,
    seed: u64,
) -> (Tensor, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n {
        let s = space.sample(&mut rng, i % space.num_classes());
        rows.push(c.apply(&s.features, Severity::DEFAULT, &mut rng));
        labels.push(s.label);
    }
    (Tensor::stack_rows(&rows).expect("rows"), labels)
}

#[test]
fn by_cause_patch_beats_cross_cause_patch_via_device_selection() {
    let (space, base) = trained_world();
    let mut rng = SmallRng::seed_from_u64(1);
    let method = AdaptMethod::Tent(TentConfig {
        epochs: 3,
        batch_size: 32,
        ..TentConfig::default()
    });

    // Two divergent causes with their own patches.
    let (fog_x, fog_y) = corrupt_matrix(&space, Corruption::Fog, 96, 11);
    let (contrast_x, _) = corrupt_matrix(&space, Corruption::Contrast, 96, 12);
    let (fog_patch, _) = adapt_to_patch(&base, &fog_x, &method, &mut rng);
    let (contrast_patch, _) = adapt_to_patch(&base, &contrast_x, &method, &mut rng);

    // Evaluate on fog with each patch applied.
    let acc_with = |patch: &BnPatch| -> f32 {
        let mut m = base.clone();
        patch.apply(&mut m).expect("same arch");
        nazar::nn::train::evaluate(&mut m, &fog_x, &fog_y).accuracy
    };
    let fog_acc = acc_with(&fog_patch);
    let cross_acc = acc_with(&contrast_patch);
    assert!(
        fog_acc > cross_acc,
        "matching patch {fog_acc} !> cross-cause patch {cross_acc}"
    );
}

#[test]
fn device_serves_matching_inputs_with_the_matching_version() {
    let (space, base) = trained_world();
    let mut rng = SmallRng::seed_from_u64(2);
    let method = AdaptMethod::default();
    let (fog_x, _) = corrupt_matrix(&space, Corruption::Fog, 64, 13);
    let (fog_patch, _) = adapt_to_patch(&base, &fog_x, &method, &mut rng);

    let mut device = Device::new("d0", "quebec", base, DeviceConfig::default());
    device.install(
        VersionMeta::new(vec![Attribute::new("weather", "fog")], 2.5),
        fog_patch,
    );

    let foggy_item = StreamItem {
        features: fog_x.row(0).expect("row").to_vec(),
        label: 0,
        date: SimDate::new(3),
        location: "quebec".into(),
        device_id: "d0".into(),
        weather: Weather::Fog,
        true_cause: Some(Corruption::Fog),
        severity: Severity::DEFAULT,
    };
    let out = device.process(&foggy_item, &mut rng);
    assert!(
        out.version_used.is_some(),
        "fog input should use the fog version"
    );

    let clear_item = StreamItem {
        weather: Weather::Clear,
        ..foggy_item
    };
    let out = device.process(&clear_item, &mut rng);
    assert!(
        out.version_used.is_none(),
        "clear input should use the base model"
    );
}

#[test]
fn consolidation_keeps_fleet_pools_bounded_under_version_churn() {
    let (_, base) = trained_world();
    let mut device = Device::new(
        "d1",
        "quebec",
        base.clone(),
        DeviceConfig {
            pool_capacity: Some(3),
            ..DeviceConfig::default()
        },
    );
    let patch = {
        let mut m = base.clone();
        BnPatch::extract(&mut m)
    };
    for i in 0..12 {
        device.install(
            VersionMeta::new(
                vec![
                    Attribute::new("weather", ["rain", "snow", "fog"][i % 3].to_string()),
                    Attribute::new("location", format!("loc{i}")),
                ],
                1.0 + i as f64,
            ),
            patch.clone(),
        );
    }
    assert!(device.num_versions() <= 3);
}
