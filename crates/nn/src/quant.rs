//! i8-quantized device-side inference (DESIGN.md §14).
//!
//! The paper's on-device detection path runs one forward pass per input to
//! get both the prediction and the MSP score. On a phone-class CPU that
//! pass is the energy budget, so this module provides a quantized mirror of
//! [`MlpResNet`] for the *detection* path only:
//!
//! * **Weights** are quantized once per linear layer — per-tensor symmetric
//!   i8 (`scale = max|w| / 127`). BN-only adaptation never touches linear
//!   weights, so a [`BnPatch`] can be applied to a [`QuantizedMlp`] without
//!   requantizing anything.
//! * **Activations** are quantized dynamically per layer input with the
//!   same symmetric scheme, multiplied in exact `i8 × i8 → i32` integer
//!   arithmetic ([`nazar_tensor::kernels::matmul_i8_into`]), and
//!   dequantized with one fused scale. Integer accumulation is
//!   order-independent, so the quantized path is bitwise identical at
//!   every thread width *by construction*.
//! * **BatchNorm, skip connections and biases stay f32.** TENT adapts BN
//!   statistics and affine parameters in f32; quantizing them would fold
//!   adaptation noise into the very layer Nazar retrains. The BN transform
//!   is evaluated with the same `(x - mean) / std * gamma + beta` formula
//!   (and the same precomputed `std = sqrt(var + eps)`) as the f32 path.
//!
//! [`QuantMode`] is the configuration knob the fleet simulator threads
//! through `DeviceConfig`: `F32` keeps the reference path, `I8` routes
//! the device forward pass through this mirror, one row per call
//! (activation scales are per tensor, so batching would couple rows).

use crate::model::relu_assign;
use crate::{BatchNorm1d, BnPatch, Linear, MlpResNet, NnError, Result};
use nazar_tensor::{kernels, simd, Tensor};
use serde::{Deserialize, Serialize};

/// Numeric mode for the device-side detection forward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QuantMode {
    /// Full-precision f32 inference (the reference path).
    #[default]
    F32,
    /// i8-quantized linear layers with f32 BN/skip (this module).
    I8,
}

impl QuantMode {
    /// Stable lowercase name (metrics labels, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            QuantMode::F32 => "f32",
            QuantMode::I8 => "i8",
        }
    }
}

/// Per-tensor symmetric quantization: `q = round(x / scale)` clamped to
/// `[-127, 127]`, `scale = max|x| / 127`.
///
/// An all-zero (or all-non-finite) tensor gets scale 1.0 so dequantization
/// is well-defined. NaN inputs quantize to 0 (`clamp` propagates the NaN
/// and the `as i8` cast saturates NaN to zero).
pub fn quantize_symmetric(x: &[f32]) -> (Vec<i8>, f32) {
    let max_abs = x.iter().fold(0.0f32, |m, &v| {
        let a = v.abs();
        // NaN fails the comparison and is skipped.
        if a.is_finite() && a > m {
            a
        } else {
            m
        }
    });
    let scale = if max_abs > 0.0 { max_abs / 127.0 } else { 1.0 };
    let q = x
        .iter()
        .map(|&v| (v / scale).round().clamp(-127.0, 127.0) as i8)
        .collect();
    (q, scale)
}

/// A linear layer with i8 weights and an f32 bias.
#[derive(Debug, Clone)]
pub struct QuantLinear {
    /// Row-major `[fan_in, fan_out]` quantized weights.
    weight: Vec<i8>,
    /// Dequantization scale of `weight`.
    w_scale: f32,
    bias: Vec<f32>,
    fan_in: usize,
    fan_out: usize,
}

impl QuantLinear {
    /// Quantizes an f32 [`Linear`]'s weights (bias is kept in f32).
    pub fn from_linear(lin: &Linear) -> Self {
        let (weight, w_scale) = quantize_symmetric(lin.weight().value().data());
        QuantLinear {
            weight,
            w_scale,
            bias: lin.bias().value().data().to_vec(),
            fan_in: lin.fan_in(),
            fan_out: lin.fan_out(),
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// Weight dequantization scale (diagnostics/tests).
    pub fn w_scale(&self) -> f32 {
        self.w_scale
    }

    /// `out = dequant(quant(x) · weight) + bias` for row-major
    /// `x: [n, fan_in]`, writing `[n, fan_out]` into `out`. `threads == 0`
    /// uses the kernel's automatic worker policy; any result is bitwise
    /// identical regardless (exact integer accumulation).
    fn forward_into(&self, x: &[f32], n: usize, out: &mut [f32], threads: usize) {
        debug_assert_eq!(x.len(), n * self.fan_in);
        debug_assert_eq!(out.len(), n * self.fan_out);
        let (xq, x_scale) = quantize_symmetric(x);
        let mut acc = vec![0i32; n * self.fan_out];
        if threads == 0 {
            kernels::matmul_i8_into(&xq, &self.weight, n, self.fan_in, self.fan_out, &mut acc);
        } else {
            kernels::matmul_i8_into_threads(
                &xq,
                &self.weight,
                n,
                self.fan_in,
                self.fan_out,
                &mut acc,
                threads,
            );
        }
        let scale = x_scale * self.w_scale;
        for (row, arow) in out
            .chunks_exact_mut(self.fan_out)
            .zip(acc.chunks_exact(self.fan_out))
        {
            for ((o, &a), &b) in row.iter_mut().zip(arow).zip(&self.bias) {
                *o = a as f32 * scale + b;
            }
        }
    }
}

/// Precomputed eval-mode BN state: `y = (x - mean) / std * gamma + beta`
/// with `std = sqrt(running_var + eps)` — the same formula (and the same
/// single-rounding precompute) as the f32 eval path.
#[derive(Debug, Clone)]
pub struct BnEvalState {
    mean: Vec<f32>,
    std: Vec<f32>,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl BnEvalState {
    /// Captures a [`BatchNorm1d`]'s current eval-mode transform.
    pub fn from_bn(bn: &BatchNorm1d) -> Self {
        BnEvalState {
            mean: bn.running_mean().data().to_vec(),
            std: bn
                .running_var()
                .add_scalar(bn.eps())
                .map(f32::sqrt)
                .into_data(),
            gamma: bn.gamma().value().data().to_vec(),
            beta: bn.beta().value().data().to_vec(),
            eps: bn.eps(),
        }
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// Overwrites this state from one [`BnPatch`] layer.
    fn load(&mut self, layer: &crate::BnLayerState) -> std::result::Result<(), usize> {
        let d = self.width();
        if layer.gamma.len() != d
            || layer.beta.len() != d
            || layer.running_mean.len() != d
            || layer.running_var.len() != d
        {
            return Err(layer.gamma.len());
        }
        self.mean.copy_from_slice(layer.running_mean.data());
        for (s, &v) in self.std.iter_mut().zip(layer.running_var.data()) {
            *s = (v + self.eps).sqrt();
        }
        self.gamma.copy_from_slice(layer.gamma.data());
        self.beta.copy_from_slice(layer.beta.data());
        Ok(())
    }

    fn eval_into(&self, x: &[f32], out: &mut [f32], tier: simd::SimdTier) {
        kernels::bn_eval_into(
            x,
            self.width(),
            &self.mean,
            &self.std,
            &self.gamma,
            &self.beta,
            out,
            tier,
        );
    }
}

/// One quantized residual block (mirrors [`crate::ResidualBlock`]).
#[derive(Debug, Clone)]
pub struct QuantBlock {
    lin1: QuantLinear,
    bn1: BnEvalState,
    lin2: QuantLinear,
    bn2: BnEvalState,
}

/// An i8-quantized, eval-only mirror of [`MlpResNet`] for the device
/// detection path.
///
/// Built once from the base model with [`QuantizedMlp::from_model`]; BN
/// patches are applied with [`QuantizedMlp::apply_patch`] without touching
/// the (BN-invariant) quantized weights.
#[derive(Debug, Clone)]
pub struct QuantizedMlp {
    stem: QuantLinear,
    stem_bn: BnEvalState,
    blocks: Vec<QuantBlock>,
    head: QuantLinear,
    input_dim: usize,
    num_classes: usize,
}

impl QuantizedMlp {
    /// Quantizes a model's linear weights and captures its BN eval state.
    pub fn from_model(model: &MlpResNet) -> Self {
        QuantizedMlp {
            stem: QuantLinear::from_linear(model.stem()),
            stem_bn: BnEvalState::from_bn(model.stem_bn()),
            blocks: model
                .blocks()
                .iter()
                .map(|b| QuantBlock {
                    lin1: QuantLinear::from_linear(b.lin1()),
                    bn1: BnEvalState::from_bn(b.bn1()),
                    lin2: QuantLinear::from_linear(b.lin2()),
                    bn2: BnEvalState::from_bn(b.bn2()),
                })
                .collect(),
            head: QuantLinear::from_linear(model.head()),
            input_dim: model.arch().input_dim,
            num_classes: model.arch().num_classes,
        }
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of BN layers mirrored (stem + 2 per block).
    pub fn num_bn_layers(&self) -> usize {
        1 + 2 * self.blocks.len()
    }

    /// Replaces the BN eval state from a patch, in the same deterministic
    /// layer order as [`MlpResNet::visit_bn`] (stem, then per block).
    ///
    /// The quantized linear weights are untouched — BN-only patches cannot
    /// change them, which is exactly why device-side requantization is
    /// never needed.
    pub fn apply_patch(&mut self, patch: &BnPatch) -> Result<()> {
        let layers = patch.layers();
        if layers.len() != self.num_bn_layers() {
            return Err(NnError::PatchLayoutMismatch {
                patch_layers: layers.len(),
                model_layers: self.num_bn_layers(),
            });
        }
        let mut states: Vec<&mut BnEvalState> = Vec::with_capacity(layers.len());
        states.push(&mut self.stem_bn);
        for block in &mut self.blocks {
            states.push(&mut block.bn1);
            states.push(&mut block.bn2);
        }
        for (i, (state, layer)) in states.into_iter().zip(layers).enumerate() {
            state
                .load(layer)
                .map_err(|patch_width| NnError::PatchWidthMismatch {
                    layer: i,
                    patch_width,
                    model_width: self.stem.fan_out,
                })?;
        }
        Ok(())
    }

    /// Eval-mode logits for a row-major `[n, input_dim]` batch.
    pub fn logits(&self, x: &Tensor) -> Tensor {
        self.logits_with_threads(x, 0)
    }

    /// [`QuantizedMlp::logits`] with an explicit matmul worker count
    /// (`0` = automatic). Exact integer accumulation makes the result
    /// bitwise identical for every width; tests sweep this to prove it.
    pub fn logits_with_threads(&self, x: &Tensor, threads: usize) -> Tensor {
        let dims = x.dims();
        assert_eq!(dims.len(), 2, "quantized logits need a [n, d] batch");
        let (n, d) = (dims[0], dims[1]);
        assert_eq!(d, self.input_dim, "quantized logits input width");
        let tier = simd::env_tier();
        let width = self.stem.fan_out;

        let mut h = vec![0.0f32; n * width];
        let mut t1 = vec![0.0f32; n * width];
        let mut t2 = vec![0.0f32; n * width];

        // Stem: linear → BN → ReLU.
        self.forward_linear(&self.stem, x.data(), n, &mut t1, threads);
        self.stem_bn.eval_into(&t1, &mut h, tier);
        relu_assign(&mut h);

        for block in &self.blocks {
            // lin1 → bn1 → relu → lin2 → bn2 → (+ skip) → relu.
            self.forward_linear(&block.lin1, &h, n, &mut t1, threads);
            block.bn1.eval_into(&t1, &mut t2, tier);
            relu_assign(&mut t2);
            self.forward_linear(&block.lin2, &t2, n, &mut t1, threads);
            block.bn2.eval_into(&t1, &mut t2, tier);
            for (hv, &tv) in h.iter_mut().zip(&t2) {
                *hv = (*hv + tv).max(0.0);
            }
        }

        let mut logits = vec![0.0f32; n * self.num_classes];
        self.forward_linear(&self.head, &h, n, &mut logits, threads);
        Tensor::from_vec(logits, &[n, self.num_classes]).expect("logit shape")
    }

    fn forward_linear(
        &self,
        lin: &QuantLinear,
        x: &[f32],
        n: usize,
        out: &mut [f32],
        threads: usize,
    ) {
        lin.forward_into(x, n, out, threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, ModelArch};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model() -> MlpResNet {
        let mut rng = SmallRng::seed_from_u64(7);
        MlpResNet::new(ModelArch::resnet18_analog(12, 5), &mut rng)
    }

    fn batch(seed: u64, n: usize, d: usize) -> Tensor {
        let mut rng = SmallRng::seed_from_u64(seed);
        Tensor::rand_uniform(&mut rng, &[n, d], -2.0, 2.0)
    }

    #[test]
    fn quantize_symmetric_roundtrips_within_half_step() {
        let x = vec![-3.0f32, -0.5, 0.0, 0.25, 1.0, 2.9];
        let (q, scale) = quantize_symmetric(&x);
        for (&qi, &xi) in q.iter().zip(&x) {
            let back = f32::from(qi) * scale;
            assert!(
                (back - xi).abs() <= scale / 2.0 + 1e-6,
                "{xi} -> {qi} -> {back} (scale {scale})"
            );
        }
    }

    #[test]
    fn quantize_symmetric_handles_degenerate_inputs() {
        let (q, scale) = quantize_symmetric(&[0.0, 0.0]);
        assert_eq!(q, vec![0, 0]);
        assert_eq!(scale, 1.0);
        let (q, _) = quantize_symmetric(&[f32::NAN, f32::INFINITY, 1.0]);
        assert_eq!(q[0], 0, "NaN must quantize to zero");
        assert_eq!(q[1], 127, "inf saturates");
    }

    #[test]
    fn quantized_logits_track_f32_logits() {
        let mut m = model();
        let q = QuantizedMlp::from_model(&m);
        let x = batch(1, 32, 12);
        let f = m.logits(&x, Mode::Eval);
        let qi = q.logits(&x);
        assert_eq!(f.dims(), qi.dims());
        // Per-tensor i8 quantization at every layer: agreement is approximate
        // but the argmax must match on the overwhelming majority of rows.
        let fa = f.argmax_axis1().unwrap();
        let qa = qi.argmax_axis1().unwrap();
        let agree = fa.iter().zip(&qa).filter(|(a, b)| a == b).count();
        assert!(agree >= 31, "argmax agreement {agree}/32");
    }

    #[test]
    fn quantized_logits_are_thread_invariant_bitwise() {
        let m = model();
        let q = QuantizedMlp::from_model(&m);
        let x = batch(2, 16, 12);
        let base = q.logits_with_threads(&x, 1);
        for threads in [2, 4, 8] {
            assert_eq!(
                base,
                q.logits_with_threads(&x, threads),
                "i8 path must be bitwise at {threads} threads"
            );
        }
    }

    #[test]
    fn apply_patch_matches_rebuild_from_patched_model() {
        let mut m = model();
        // Perturb BN state by running a train-mode pass, then extract.
        let x = batch(3, 64, 12);
        let _ = m.logits(&x, Mode::Train);
        let patch = BnPatch::extract(&mut m);

        let mut q = QuantizedMlp::from_model(&model());
        q.apply_patch(&patch).unwrap();
        let rebuilt = QuantizedMlp::from_model(&m);

        let probe = batch(4, 8, 12);
        assert_eq!(
            q.logits(&probe),
            rebuilt.logits(&probe),
            "patched mirror must equal a mirror of the patched model"
        );
    }

    #[test]
    fn apply_patch_rejects_wrong_layout() {
        let mut small = {
            let mut rng = SmallRng::seed_from_u64(0);
            MlpResNet::new(ModelArch::tiny(4, 2), &mut rng)
        };
        let patch = BnPatch::extract(&mut small);
        let mut q = QuantizedMlp::from_model(&model());
        assert!(matches!(
            q.apply_patch(&patch),
            Err(NnError::PatchLayoutMismatch { .. })
        ));
    }

    #[test]
    fn quant_mode_serde_roundtrip() {
        for mode in [QuantMode::F32, QuantMode::I8] {
            let v = mode.to_value();
            let back = QuantMode::from_value(&v).unwrap();
            assert_eq!(mode, back);
            assert!(!mode.as_str().is_empty());
        }
    }
}
