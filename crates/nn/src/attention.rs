//! Multi-head attention (self- and cross-attention).
//!
//! Attention takes *two* inputs (queries and keys/values), so it does not
//! implement the single-input [`crate::Layer`] trait; the
//! [`crate::Transformer`] model composes it directly. The parameter
//! contract is the same, though: all weights are passed explicitly to both
//! passes, so asynchronous trainers can use different versions.

use rand::rngs::StdRng;

use pipemare_tensor::{kernels, Tensor};

use crate::cache::Cache;
use crate::layer::WeightUnit;
use crate::linear::add_bias_rows;

/// Attention masking modes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttnMask {
    /// No masking (full attention).
    None,
    /// Causal masking: position `i` may attend to positions `<= i`
    /// (requires equal query/key lengths).
    Causal,
    /// Per-batch-element key lengths: keys at positions `>= len[b]` are
    /// masked (padding).
    KeyLens(Vec<usize>),
    /// Causal *and* key-length masking.
    CausalKeyLens(Vec<usize>),
}

/// Multi-head scaled-dot-product attention with input/output projections.
///
/// Parameters are laid out as
/// `[Wq | bq | Wk | bk | Wv | bv | Wo | bo]`, each `W` of shape
/// `(dim, dim)` stored row-major as a `(in, out)` matmul operand.
#[derive(Clone, Copy, Debug)]
pub struct MultiHeadAttention {
    /// Model dimension (must be divisible by `heads`).
    pub dim: usize,
    /// Number of attention heads.
    pub heads: usize,
}

const MASK_NEG: f32 = -1e9;

impl MultiHeadAttention {
    /// Creates a multi-head attention module.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is not divisible by `heads`.
    pub fn new(dim: usize, heads: usize) -> Self {
        assert_eq!(dim % heads, 0, "attention dim {dim} not divisible by {heads} heads");
        MultiHeadAttention { dim, heads }
    }

    /// Total parameter count: four projections with biases.
    pub fn param_len(&self) -> usize {
        4 * (self.dim * self.dim + self.dim)
    }

    /// Initializes parameters (Xavier weights, zero biases).
    pub fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        let d = self.dim;
        let block = d * d + d;
        for p in 0..4 {
            let w = Tensor::xavier(&[d * d], d, d, rng);
            out[p * block..p * block + d * d].copy_from_slice(w.data());
            out[p * block + d * d..(p + 1) * block].fill(0.0);
        }
    }

    /// Weight units (one per projection).
    pub fn weight_units(&self) -> Vec<WeightUnit> {
        let d = self.dim;
        let block = d * d + d;
        ["wq", "wk", "wv", "wo"]
            .iter()
            .enumerate()
            .map(|(i, name)| WeightUnit { name: (*name).into(), offset: i * block, len: block })
            .collect()
    }

    fn proj<'p>(&self, params: &'p [f32], idx: usize) -> (&'p [f32], &'p [f32]) {
        let d = self.dim;
        let block = d * d + d;
        let base = idx * block;
        (&params[base..base + d * d], &params[base + d * d..base + block])
    }

    /// Applies projection `idx` to a flattened `(rows, dim)` input.
    fn apply_proj(&self, params: &[f32], idx: usize, x2: &Tensor) -> Tensor {
        let d = self.dim;
        let (w, b) = self.proj(params, idx);
        let rows = x2.shape()[0];
        // Kernel runs on the parameter slice directly — no weight copy.
        let mut y = Tensor::zeros(&[rows, d]);
        kernels::gemm(x2.data(), w, y.data_mut(), rows, d, d);
        add_bias_rows(y.data_mut(), b);
        y
    }

    /// Splits `(B, T, D)` into `(B*H, T, Dh)` head-major layout.
    fn split_heads(&self, x: &Tensor) -> Tensor {
        let (b, t, d) = (x.shape()[0], x.shape()[1], x.shape()[2]);
        let h = self.heads;
        let dh = d / h;
        x.reshape(&[b, t, h, dh]).permute(&[0, 2, 1, 3]).reshape(&[b * h, t, dh])
    }

    /// Merges `(B*H, T, Dh)` back to `(B, T, D)`.
    fn merge_heads(&self, x: &Tensor, batch: usize) -> Tensor {
        let h = self.heads;
        let t = x.shape()[1];
        let dh = x.shape()[2];
        x.reshape(&[batch, h, t, dh]).permute(&[0, 2, 1, 3]).reshape(&[batch, t, h * dh])
    }

    fn apply_mask(&self, scores: &mut Tensor, mask: &AttnMask, batch: usize) {
        let h = self.heads;
        let (bh, tq, tk) = (scores.shape()[0], scores.shape()[1], scores.shape()[2]);
        debug_assert_eq!(bh, batch * h);
        let (causal, lens) = match mask {
            AttnMask::None => return,
            AttnMask::Causal => (true, None),
            AttnMask::KeyLens(l) => (false, Some(l)),
            AttnMask::CausalKeyLens(l) => (true, Some(l)),
        };
        if causal {
            assert_eq!(tq, tk, "causal mask requires square attention");
        }
        if let Some(l) = lens {
            assert_eq!(l.len(), batch, "key-length mask: {} lens for batch {batch}", l.len());
        }
        for bhi in 0..bh {
            let bi = bhi / h;
            for i in 0..tq {
                for j in 0..tk {
                    let masked = (causal && j > i) || lens.is_some_and(|l| j >= l[bi]);
                    if masked {
                        scores.data_mut()[(bhi * tq + i) * tk + j] = MASK_NEG;
                    }
                }
            }
        }
    }

    /// Forward pass.
    ///
    /// `query`: `(B, Tq, D)`; `kv`: `(B, Tk, D)` (equal to `query` for
    /// self-attention). Returns `(output (B, Tq, D), cache)`.
    pub fn forward(
        &self,
        params: &[f32],
        query: &Tensor,
        kv: &Tensor,
        mask: &AttnMask,
    ) -> (Tensor, Cache) {
        assert_eq!(query.ndim(), 3, "attention query must be (B,T,D)");
        assert_eq!(kv.ndim(), 3, "attention kv must be (B,T,D)");
        let (b, tq, d) = (query.shape()[0], query.shape()[1], query.shape()[2]);
        let tk = kv.shape()[1];
        assert_eq!(d, self.dim, "attention dim mismatch");
        assert_eq!(kv.shape()[0], b, "attention batch mismatch");
        assert_eq!(kv.shape()[2], d, "attention kv dim mismatch");
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let q2 = query.reshape(&[b * tq, d]);
        let kv2 = kv.reshape(&[b * tk, d]);
        let q = self.split_heads(&self.apply_proj(params, 0, &q2).reshape(&[b, tq, d]));
        let k = self.split_heads(&self.apply_proj(params, 1, &kv2).reshape(&[b, tk, d]));
        let v = self.split_heads(&self.apply_proj(params, 2, &kv2).reshape(&[b, tk, d]));

        let mut scores = q.bmm_nt(&k).scale(scale); // (B*H, Tq, Tk)
        self.apply_mask(&mut scores, mask, b);
        let a = scores.softmax_last();
        let ctx = a.bmm(&v); // (B*H, Tq, Dh)
        let ctx2 = self.merge_heads(&ctx, b).reshape(&[b * tq, d]);
        let y = self.apply_proj(params, 3, &ctx2).reshape(&[b, tq, d]);

        let mut cache = Cache::with_tensors(vec![q2, kv2, q, k, v, a, ctx2]);
        cache.indices = vec![b, tq, tk];
        (y, cache)
    }

    /// Backward pass.
    ///
    /// Returns `(dquery, dkv, dparams)`. For self-attention, the caller
    /// adds `dquery + dkv`.
    pub fn backward(
        &self,
        params: &[f32],
        cache: &Cache,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let d = self.dim;
        let (b, tq, tk) = (cache.indices[0], cache.indices[1], cache.indices[2]);
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let (q2, kv2, q, k, v, a, ctx2) = (
            cache.tensor(0),
            cache.tensor(1),
            cache.tensor(2),
            cache.tensor(3),
            cache.tensor(4),
            cache.tensor(5),
            cache.tensor(6),
        );
        let mut grads = vec![0.0f32; self.param_len()];
        let block = d * d + d;

        // Output projection. dW accumulates straight into the zeroed
        // gradient buffer; dx reads the weight slice transposed in place.
        let dy2 = dy.reshape(&[b * tq, d]);
        let (wo, _) = self.proj(params, 3);
        let mut dctx2 = Tensor::zeros(&[b * tq, d]);
        kernels::gemm_nt(dy2.data(), wo, dctx2.data_mut(), b * tq, d, d);
        kernels::gemm_tn(
            ctx2.data(),
            dy2.data(),
            &mut grads[3 * block..3 * block + d * d],
            d,
            b * tq,
            d,
        );
        grads[3 * block + d * d..4 * block].copy_from_slice(dy2.sum_axis(0).data());

        // Back through head merge.
        let dctx = self.split_heads(&dctx2.reshape(&[b, tq, d])); // (B*H, Tq, Dh)

        // ctx = a @ v
        let da = dctx.bmm_nt(v); // (B*H, Tq, Tk)
        let dv = a.bmm_tn(&dctx); // (B*H, Tk, Dh)

        // Softmax backward per attention row: masked positions have a = 0,
        // so their ds is automatically 0.
        let mut ds = Tensor::zeros(&[b * self.heads, tq, tk]);
        for r in 0..b * self.heads * tq {
            let a_row = &a.data()[r * tk..(r + 1) * tk];
            let da_row = &da.data()[r * tk..(r + 1) * tk];
            let dot: f32 = a_row.iter().zip(da_row.iter()).map(|(&x, &y)| x * y).sum();
            let out = &mut ds.data_mut()[r * tk..(r + 1) * tk];
            for j in 0..tk {
                out[j] = a_row[j] * (da_row[j] - dot);
            }
        }
        let ds = ds.scale(scale);

        // scores = q @ k^T
        let dq = ds.bmm(k); // (B*H, Tq, Dh)
        let dk = ds.bmm_tn(q); // ds^T @ q -> (B*H, Tk, Dh)

        // Back through projections. dq/dk/dv are head-split; merge first.
        let dq2 = self.merge_heads(&dq, b).reshape(&[b * tq, d]);
        let dk2 = self.merge_heads(&dk, b).reshape(&[b * tk, d]);
        let dv2 = self.merge_heads(&dv, b).reshape(&[b * tk, d]);

        let back_proj = |idx: usize, dproj: &Tensor, input: &Tensor, grads: &mut [f32]| {
            let (w, _) = self.proj(params, idx);
            let rows = input.shape()[0];
            // dW = input^T @ dproj accumulates into the gradient slice.
            kernels::gemm_tn(
                input.data(),
                dproj.data(),
                &mut grads[idx * block..idx * block + d * d],
                d,
                rows,
                d,
            );
            let db = dproj.sum_axis(0);
            for (g, &x) in grads[idx * block + d * d..(idx + 1) * block].iter_mut().zip(db.data()) {
                *g += x;
            }
            let mut dx = Tensor::zeros(&[rows, d]);
            kernels::gemm_nt(dproj.data(), w, dx.data_mut(), rows, d, d);
            dx
        };
        let dquery2 = back_proj(0, &dq2, q2, &mut grads);
        let mut dkv2 = back_proj(1, &dk2, kv2, &mut grads);
        dkv2.axpy(1.0, &back_proj(2, &dv2, kv2, &mut grads));
        (dquery2.reshape(&[b, tq, d]), dkv2.reshape(&[b, tk, d]), grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn_gradient;
    use rand::SeedableRng;

    fn init(mha: &MultiHeadAttention, seed: u64) -> (Vec<f32>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = vec![0.0f32; mha.param_len()];
        mha.init_params(&mut p, &mut rng);
        (p, rng)
    }

    #[test]
    fn output_shape_self_attention() {
        let mha = MultiHeadAttention::new(8, 2);
        let (p, mut rng) = init(&mha, 1);
        let x = Tensor::randn(&[2, 5, 8], &mut rng);
        let (y, _) = mha.forward(&p, &x, &x, &AttnMask::None);
        assert_eq!(y.shape(), &[2, 5, 8]);
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // With the output projection set to identity and Wv to identity,
        // each output position lies in the convex hull of the values.
        let mha = MultiHeadAttention::new(4, 1);
        let mut p = vec![0.0f32; mha.param_len()];
        // Wq = Wk = 0 (uniform attention), Wv = I, Wo = I.
        let d = 4;
        let block = d * d + d;
        for i in 0..d {
            p[2 * block + i * d + i] = 1.0; // Wv
            p[3 * block + i * d + i] = 1.0; // Wo
        }
        let x = Tensor::from_vec(
            vec![
                1.0, 0.0, 0.0, 0.0, //
                0.0, 1.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.0,
            ],
            &[1, 3, 4],
        );
        let (y, _) = mha.forward(&p, &x, &x, &AttnMask::None);
        // Uniform attention: every output row is the mean of the values.
        for ti in 0..3 {
            for di in 0..3 {
                assert!((y.at(&[0, ti, di]) - 1.0 / 3.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn causal_mask_blocks_future() {
        let mha = MultiHeadAttention::new(4, 2);
        let (p, mut rng) = init(&mha, 2);
        let x = Tensor::randn(&[1, 4, 4], &mut rng);
        let (y1, _) = mha.forward(&p, &x, &x, &AttnMask::Causal);
        // Changing a future token must not change earlier outputs.
        let mut x2 = x.clone();
        for di in 0..4 {
            x2.data_mut()[3 * 4 + di] += 1.0; // perturb position 3
        }
        let (y2, _) = mha.forward(&p, &x2, &x2, &AttnMask::Causal);
        for ti in 0..3 {
            for di in 0..4 {
                assert!(
                    (y1.at(&[0, ti, di]) - y2.at(&[0, ti, di])).abs() < 1e-6,
                    "position {ti} changed by a future perturbation"
                );
            }
        }
    }

    #[test]
    fn key_len_mask_ignores_padding() {
        let mha = MultiHeadAttention::new(4, 1);
        let (p, mut rng) = init(&mha, 3);
        let kv = Tensor::randn(&[1, 5, 4], &mut rng);
        let q = Tensor::randn(&[1, 2, 4], &mut rng);
        let mask = AttnMask::KeyLens(vec![3]);
        let (y1, _) = mha.forward(&p, &q, &kv, &mask);
        // Changing masked keys (positions 3, 4) must not change outputs.
        let mut kv2 = kv.clone();
        for t in 3..5 {
            for di in 0..4 {
                kv2.data_mut()[t * 4 + di] = 99.0;
            }
        }
        let (y2, _) = mha.forward(&p, &q, &kv2, &mask);
        pipemare_tensor::assert_close(y1.data(), y2.data(), 1e-5, 1e-5);
    }

    #[test]
    fn param_gradcheck_self_attention() {
        let mha = MultiHeadAttention::new(4, 2);
        let (p, mut rng) = init(&mha, 4);
        let x = Tensor::randn(&[2, 3, 4], &mut rng);
        let (y, cache) = mha.forward(&p, &x, &x, &AttnMask::Causal);
        let (_, _, grads) = mha.backward(&p, &cache, &y);
        check_scalar_fn_gradient(
            &mut |params| {
                let (y, _) = mha.forward(params, &x, &x, &AttnMask::Causal);
                0.5 * y.sq_norm()
            },
            &p,
            &grads,
            1e-2,
            5e-2,
            24,
        );
    }

    #[test]
    fn input_gradcheck_cross_attention() {
        let mha = MultiHeadAttention::new(4, 1);
        let (p, mut rng) = init(&mha, 5);
        let q = Tensor::randn(&[1, 2, 4], &mut rng);
        let kv = Tensor::randn(&[1, 3, 4], &mut rng);
        let (y, cache) = mha.forward(&p, &q, &kv, &AttnMask::None);
        let (dq, dkv, _) = mha.backward(&p, &cache, &y);
        // Check dquery by finite differences.
        let mut loss_q = |qd: &[f32]| {
            let qt = Tensor::from_vec(qd.to_vec(), &[1, 2, 4]);
            let (y, _) = mha.forward(&p, &qt, &kv, &AttnMask::None);
            0.5 * y.sq_norm()
        };
        check_scalar_fn_gradient(&mut loss_q, q.data(), dq.data(), 1e-2, 5e-2, 8);
        // Check dkv by finite differences.
        let mut loss_kv = |kd: &[f32]| {
            let kt = Tensor::from_vec(kd.to_vec(), &[1, 3, 4]);
            let (y, _) = mha.forward(&p, &q, &kt, &AttnMask::None);
            0.5 * y.sq_norm()
        };
        check_scalar_fn_gradient(&mut loss_kv, kv.data(), dkv.data(), 1e-2, 5e-2, 12);
    }

    #[test]
    fn weight_units_cover_params() {
        let mha = MultiHeadAttention::new(8, 2);
        crate::layer::validate_units(&mha.weight_units(), mha.param_len()).unwrap();
    }
}
