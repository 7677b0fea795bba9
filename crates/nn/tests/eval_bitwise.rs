//! Pins the tape-free eval forward to the autograd tape, bit for bit.
//!
//! `MlpResNet::logits(x, Mode::Eval)` runs straight from the parameter
//! tensors; `forward_with_features` still records every op on a `Tape`.
//! For random architectures (tiny, and the resnet18/50-analog widths with
//! 0–4 residual blocks), random BN patches (near-zero and zero variance
//! included), batch sizes 1–300 and rows holding ±0.0, subnormals, huge
//! magnitudes, NaN and ±inf, this suite asserts that
//!
//! * the tape-free logits equal the tape's logits bitwise, and
//! * row `r` of a batch equals the single-row forward of row `r` bitwise —
//!   the property that lets the fleet batch arrivals across devices.
//!
//! Kernels run at the process's `NAZAR_TENSOR_SIMD` tier on both sides;
//! CI runs this crate under `off` and `exact`.

use nazar_nn::{BnLayerState, BnPatch, MlpResNet, Mode, ModelArch};
use nazar_tensor::{Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Values that stress IEEE edge cases through every stage of the forward.
const SPECIALS: [f32; 12] = [
    0.0,
    -0.0,
    1e-40,
    -1e-40,
    f32::MIN_POSITIVE,
    1e30,
    -1e30,
    3.0e38,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0,
];

fn arch(kind: usize, input_dim: usize, classes: usize, blocks: usize) -> ModelArch {
    let base = match kind {
        0 => ModelArch::tiny(input_dim, classes),
        1 => ModelArch::resnet18_analog(input_dim, classes),
        _ => ModelArch::resnet50_analog(input_dim, classes),
    };
    // The tiny preset keeps its single block; the analog widths sweep depth.
    let blocks = if kind == 0 { base.blocks } else { blocks };
    ModelArch { blocks, ..base }
}

fn vector(rng: &mut SmallRng, n: usize, lo: f32, hi: f32) -> Tensor {
    Tensor::from_vec((0..n).map(|_| rng.gen_range(lo..hi)).collect(), &[n]).unwrap()
}

/// A BN patch with random affine parameters and running statistics; a
/// quarter of the variances are zero or tiny, so `sqrt(var + eps)` sits at
/// or near `sqrt(eps)`.
fn random_patch(model: &mut MlpResNet, rng: &mut SmallRng) -> BnPatch {
    let widths: Vec<usize> = BnPatch::extract(model)
        .layers()
        .iter()
        .map(|l| l.gamma.len())
        .collect();
    let layers = widths
        .into_iter()
        .map(|w| {
            let var = (0..w)
                .map(|_| match rng.gen_range(0..8u32) {
                    0 => 0.0,
                    1 => 1e-12,
                    _ => rng.gen_range(1e-3f32..4.0),
                })
                .collect();
            BnLayerState {
                gamma: vector(rng, w, -2.0, 2.0),
                beta: vector(rng, w, -1.0, 1.0),
                running_mean: vector(rng, w, -1.0, 1.0),
                running_var: Tensor::from_vec(var, &[w]).unwrap(),
            }
        })
        .collect();
    BnPatch::from_layers(layers)
}

/// `[n, d]` rows: mostly uniform values, with a sprinkling of [`SPECIALS`]
/// (about one element in eight) so some rows stay finite and some do not.
fn batch(rng: &mut SmallRng, n: usize, d: usize) -> Tensor {
    let data = (0..n * d)
        .map(|_| {
            if rng.gen_range(0..8u32) == 0 {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-3.0f32..3.0)
            }
        })
        .collect();
    Tensor::from_vec(data, &[n, d]).unwrap()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn tape_logits(model: &mut MlpResNet, x: &Tensor) -> Tensor {
    let tape = Tape::new();
    let xv = tape.leaf(x.clone());
    model
        .forward_with_features(&tape, &xv, Mode::Eval)
        .1
        .value()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tape_free_eval_is_bitwise_equal_to_the_tape(
        seed in 0u64..1_000_000,
        kind in 0usize..3,
        input_dim in 1usize..40,
        classes in 1usize..12,
        blocks in 0usize..=4,
        n in 1usize..=300,
        threads in 0usize..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut model = MlpResNet::new(arch(kind, input_dim, classes, blocks), &mut rng);
        random_patch(&mut model, &mut rng).apply(&mut model).unwrap();
        let x = batch(&mut rng, n, input_dim);

        let want = tape_logits(&mut model, &x);
        let got = model.logits(&x, Mode::Eval);
        prop_assert_eq!(got.dims(), want.dims());
        prop_assert!(bits(&got) == bits(&want), "batch of {} differs from the tape", n);
        let threaded = model.eval_logits_with_threads(&x, threads);
        prop_assert!(bits(&threaded) == bits(&want), "{} matmul threads moved a bit", threads);

        for r in 0..n {
            let row = Tensor::from_vec(x.row(r).unwrap().to_vec(), &[1, input_dim]).unwrap();
            let single = model.eval_logits_with_threads(&row, 1);
            prop_assert!(
                bits(&single) == want.row(r).unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "row {} of a batch of {} differs from its single-row forward",
                r,
                n
            );
        }
    }
}

#[test]
fn empty_batch_has_no_rows() {
    let mut rng = SmallRng::seed_from_u64(0);
    let mut model = MlpResNet::new(ModelArch::tiny(5, 3), &mut rng);
    let logits = model.logits(&Tensor::zeros(&[0, 5]), Mode::Eval);
    assert_eq!(logits.dims(), &[0, 3]);
}
