//! 2-D convolution via im2col.

use rand::rngs::StdRng;

use pipemare_tensor::{col2im, im2col, kernels, Conv2dGeometry, Tensor};

use crate::cache::Cache;
use crate::layer::{Layer, WeightUnit};
use crate::linear::add_bias_rows;

/// A 2-D convolution over `(B, C, H, W)` inputs with square kernels.
///
/// Implemented as `im2col` followed by a matmul against the flattened
/// kernel, which makes the forward/backward passes reuse the tensor
/// crate's GEMM.
#[derive(Clone, Copy, Debug)]
pub struct Conv2d {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel size (square).
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Whether a per-channel bias is added.
    pub bias: bool,
}

impl Conv2d {
    /// Creates a convolution with bias.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2d { in_channels, out_channels, kernel, stride, padding, bias: true }
    }

    /// Creates a convolution without bias (the usual choice before a
    /// batch-norm layer).
    pub fn new_no_bias(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2d { bias: false, ..Conv2d::new(in_channels, out_channels, kernel, stride, padding) }
    }

    fn weight_len(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    fn geometry(&self, h: usize, w: usize) -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: self.in_channels,
            in_h: h,
            in_w: w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }
}

impl Layer for Conv2d {
    fn param_len(&self) -> usize {
        self.weight_len() + if self.bias { self.out_channels } else { 0 }
    }

    fn init_params(&self, out: &mut [f32], rng: &mut StdRng) {
        let fan_in = self.patch_len();
        let w = Tensor::kaiming(&[self.weight_len()], fan_in, rng);
        out[..self.weight_len()].copy_from_slice(w.data());
        if self.bias {
            out[self.weight_len()..].fill(0.0);
        }
    }

    fn forward(&self, params: &[f32], x: &Tensor) -> (Tensor, Cache) {
        assert_eq!(x.ndim(), 4, "Conv2d input must be (B,C,H,W), got {:?}", x.shape());
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        assert_eq!(c, self.in_channels, "Conv2d: channel mismatch");
        let geom = self.geometry(h, w);
        let cols = im2col(x, &geom); // (B*oh*ow, patch_len)
        let geom_rows = b * geom.out_h() * geom.out_w();
        // y = cols · K^T with K in its stored (out_c, patch_len) layout:
        // the NT kernel reads the transpose in place, so no kernel-matrix
        // copy is needed.
        let mut y = Tensor::zeros(&[geom_rows, self.out_channels]);
        kernels::gemm_nt(
            cols.data(),
            &params[..self.weight_len()],
            y.data_mut(),
            geom_rows,
            self.patch_len(),
            self.out_channels,
        );
        if self.bias {
            add_bias_rows(y.data_mut(), &params[self.weight_len()..]);
        }
        let (oh, ow) = (geom.out_h(), geom.out_w());
        // (B, oh, ow, out_c) -> (B, out_c, oh, ow)
        let y = y.reshape(&[b, oh, ow, self.out_channels]).permute(&[0, 3, 1, 2]);
        let mut cache = Cache::with_tensors(vec![cols]);
        cache.indices = vec![b, h, w];
        (y, cache)
    }

    fn backward(&self, params: &[f32], cache: &Cache, dy: &Tensor) -> (Tensor, Vec<f32>) {
        let cols = cache.tensor(0);
        let (b, h, w) = (cache.indices[0], cache.indices[1], cache.indices[2]);
        let geom = self.geometry(h, w);
        let (oh, ow) = (geom.out_h(), geom.out_w());
        // dy: (B, out_c, oh, ow) -> (B*oh*ow, out_c)
        let dy2 = dy.permute(&[0, 2, 3, 1]).reshape(&[b * oh * ow, self.out_channels]);
        // dW = dy2^T @ cols — forward activations — written directly into
        // the gradient buffer in its stored (out_c, patch_len) layout.
        let mut grads = vec![0.0f32; self.param_len()];
        kernels::gemm_tn(
            dy2.data(),
            cols.data(),
            &mut grads[..self.weight_len()],
            self.out_channels,
            b * oh * ow,
            self.patch_len(),
        );
        if self.bias {
            let db = dy2.sum_axis(0);
            grads[self.weight_len()..].copy_from_slice(db.data());
        }
        // dcols = dy2 @ K with K read in its stored (out_c, patch_len)
        // layout — uses the backward-pass weights.
        let mut dcols = Tensor::zeros(&[b * oh * ow, self.patch_len()]);
        kernels::gemm(
            dy2.data(),
            &params[..self.weight_len()],
            dcols.data_mut(),
            b * oh * ow,
            self.out_channels,
            self.patch_len(),
        );
        let dx = col2im(&dcols, &geom, b);
        (dx, grads)
    }

    fn weight_units(&self) -> Vec<WeightUnit> {
        vec![WeightUnit { name: "conv".into(), offset: 0, len: self.param_len() }]
    }

    fn output_shape(&self, input: &[usize]) -> Vec<usize> {
        let geom = self.geometry(input[2], input[3]);
        vec![input[0], self.out_channels, geom.out_h(), geom.out_w()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;
    use pipemare_tensor::assert_close;

    #[test]
    fn identity_1x1_conv() {
        // A 1x1 conv with identity kernel maps each channel to itself.
        let conv = Conv2d::new_no_bias(2, 2, 1, 1, 0);
        let params = vec![1.0, 0.0, 0.0, 1.0]; // (out_c=2, patch=2) identity
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]);
        let (y, _) = conv.forward(&params, &x);
        assert_eq!(y, x);
    }

    #[test]
    fn conv_3x3_sum_kernel() {
        // All-ones 3x3 kernel with padding 1 computes local sums.
        let conv = Conv2d::new_no_bias(1, 1, 3, 1, 1);
        let params = vec![1.0f32; 9];
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let (y, _) = conv.forward(&params, &x);
        // Center sees 9 ones; corners see 4; edges see 6.
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
        assert_eq!(y.at(&[0, 0, 0, 1]), 6.0);
    }

    #[test]
    fn output_shape_matches_forward() {
        let conv = Conv2d::new(3, 8, 3, 2, 1);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let mut p = vec![0.0; conv.param_len()];
        conv.init_params(&mut p, &mut rng);
        let (y, _) = conv.forward(&p, &x);
        assert_eq!(y.shape(), conv.output_shape(x.shape()).as_slice());
        assert_eq!(y.shape(), &[2, 8, 4, 4]);
    }

    #[test]
    fn gradcheck_with_bias() {
        let conv = Conv2d::new(2, 3, 3, 1, 1);
        check_layer_gradients(&conv, &[2, 2, 4, 4], 21, 5e-2);
    }

    #[test]
    fn gradcheck_strided_no_bias() {
        let conv = Conv2d::new_no_bias(2, 2, 3, 2, 1);
        check_layer_gradients(&conv, &[1, 2, 5, 5], 22, 5e-2);
    }

    #[test]
    fn stride_equivalent_to_downsampled_dense_positions() {
        // Strided conv output equals dense conv output sampled at stride
        // positions.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let dense = Conv2d::new_no_bias(1, 1, 3, 1, 1);
        let strided = Conv2d::new_no_bias(1, 1, 3, 2, 1);
        let mut p = vec![0.0; dense.param_len()];
        dense.init_params(&mut p, &mut rng);
        let x = Tensor::randn(&[1, 1, 6, 6], &mut rng);
        let (yd, _) = dense.forward(&p, &x);
        let (ys, _) = strided.forward(&p, &x);
        for oy in 0..3 {
            for ox in 0..3 {
                assert_close(
                    &[ys.at(&[0, 0, oy, ox])],
                    &[yd.at(&[0, 0, 2 * oy, 2 * ox])],
                    1e-6,
                    1e-5,
                );
            }
        }
    }
}
