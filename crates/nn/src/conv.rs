//! 2-D convolution.

use mhfl_tensor::{SeededRng, Tensor, TensorArena};

use crate::layer::join_name;
use crate::{AxisRole, Layer, NnError, Param, Result};

mod kernel;
use kernel::Geometry;

/// A 2-D convolution over `[batch, in_channels, h, w]` feature maps.
///
/// The weight has shape `[out_channels, in_channels, k, k]` with axis roles
/// `[OutFeatures, InFeatures, Fixed, Fixed]`, so width-heterogeneous
/// extraction slices channels but never the spatial kernel.
///
/// Forward and backward are direct convolutions whose innermost loop runs
/// over independent accumulators kept in registers: an 8-wide chunk of an
/// output row for four output channels at once (forward), of an input row
/// for four input channels (dX), or eight output channels for four input
/// channels (dW). The reduction loops outside it keep the order of the
/// plain per-output loops — an output adds its bias, then `x·w` over
/// in-bounds taps in ascending `(ic, ky, kx)`; dX sums over ascending
/// `(oc, oy, ox)`; dW and db over ascending `(n, oy, ox)`; zero gradients
/// are skipped — so every result is bit-identical to those loops (a
/// randomised test checks it against them). Out-of-bounds taps are masked
/// out, never multiplied by a padding zero. See the `kernel` module.
#[derive(Debug)]
pub struct Conv2d {
    weight: Param,
    bias: Param,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights.
    ///
    /// # Errors
    /// Returns [`NnError::InvalidConfig`] for zero-sized channels, kernel or stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut SeededRng,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(format!(
                "conv2d sizes must be positive (in={in_channels}, out={out_channels}, k={kernel}, stride={stride})"
            )));
        }
        let fan_in = in_channels * kernel * kernel;
        let weight = Param::new(
            "weight",
            Tensor::kaiming(&[out_channels, in_channels, kernel, kernel], fan_in, rng),
            vec![
                AxisRole::OutFeatures,
                AxisRole::InFeatures,
                AxisRole::Fixed,
                AxisRole::Fixed,
            ],
        );
        let bias = Param::new(
            "bias",
            Tensor::zeros(&[out_channels]),
            vec![AxisRole::OutFeatures],
        );
        Ok(Conv2d {
            weight,
            bias,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            cached_input: None,
        })
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output spatial size for a given input spatial size.
    pub fn output_size(&self, input: usize) -> usize {
        (input + 2 * self.padding).saturating_sub(self.kernel) / self.stride + 1
    }

    /// The shapes of a call on an input of `dims` (`[batch, in, h, w]`).
    fn geometry(&self, dims: &[usize]) -> Geometry {
        Geometry {
            batch: dims[0],
            in_ch: self.in_channels,
            out_ch: self.out_channels,
            h: dims[2],
            w: dims[3],
            oh: self.output_size(dims[2]),
            ow: self.output_size(dims[3]),
            k: self.kernel,
            s: self.stride,
            p: self.padding,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let dims = input.dims();
        // Every output must read at least one real input element: the
        // padded map has to hold a whole kernel, and the map itself must
        // not be empty.
        let min_side = self.kernel.saturating_sub(2 * self.padding).max(1);
        if input.rank() != 4
            || dims[1] != self.in_channels
            || dims[2] < min_side
            || dims[3] < min_side
        {
            return Err(NnError::BadInput {
                layer: "Conv2d".into(),
                expected: format!(
                    "[batch, {}, h, w] input with h, w >= {min_side} (kernel {}, padding {})",
                    self.in_channels, self.kernel, self.padding
                ),
                got: dims.to_vec(),
            });
        }
        let g = self.geometry(dims);
        let mut out = TensorArena::global().lease_zeroed(g.batch * g.out_ch * g.oh * g.ow);
        g.forward(
            input.as_slice(),
            self.weight.value.as_slice(),
            self.bias.value.as_slice(),
            &mut out,
        );
        self.cached_input = Some(input.clone());
        Ok(Tensor::from_pool(out, &[g.batch, g.out_ch, g.oh, g.ow])?)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache("Conv2d".into()))?;
        let g = self.geometry(input.dims());
        let expected = [g.batch, g.out_ch, g.oh, g.ow];
        if grad_output.dims() != expected {
            return Err(NnError::BadInput {
                layer: "Conv2d".into(),
                expected: format!("grad_output of shape {expected:?}"),
                got: grad_output.dims().to_vec(),
            });
        }
        let x = input.as_slice();
        let dy = grad_output.as_slice();
        let mut dx = TensorArena::global().lease_zeroed(x.len());
        g.input_grad(dy, self.weight.value.as_slice(), &mut dx);
        g.weight_grad(
            x,
            dy,
            self.weight.grad.as_mut_slice(),
            self.bias.grad.as_mut_slice(),
        );
        Ok(Tensor::from_pool(dx, input.dims())?)
    }

    fn visit_params(&self, prefix: &str, f: &mut dyn FnMut(&str, &Param)) {
        f(&join_name(prefix, "weight"), &self.weight);
        f(&join_name(prefix, "bias"), &self.bias);
    }

    fn visit_params_mut(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut Param)) {
        f(&join_name(prefix, "weight"), &mut self.weight);
        f(&join_name(prefix, "bias"), &mut self.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The direct per-output loops the kernels must reproduce bit for bit.
    mod reference {
        use super::Geometry;

        pub fn forward(g: &Geometry, x: &[f32], wgt: &[f32], b: &[f32]) -> Vec<f32> {
            let (k, s, p) = (g.k, g.s, g.p as isize);
            let mut out = vec![0.0; g.batch * g.out_ch * g.oh * g.ow];
            for n in 0..g.batch {
                for oc in 0..g.out_ch {
                    for oy in 0..g.oh {
                        for ox in 0..g.ow {
                            let mut acc = b[oc];
                            for ic in 0..g.in_ch {
                                for ky in 0..k {
                                    let iy = (oy * s + ky) as isize - p;
                                    if iy < 0 || iy >= g.h as isize {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = (ox * s + kx) as isize - p;
                                        if ix < 0 || ix >= g.w as isize {
                                            continue;
                                        }
                                        let xv = x[((n * g.in_ch + ic) * g.h + iy as usize) * g.w
                                            + ix as usize];
                                        let wv = wgt[((oc * g.in_ch + ic) * k + ky) * k + kx];
                                        acc += xv * wv;
                                    }
                                }
                            }
                            out[((n * g.out_ch + oc) * g.oh + oy) * g.ow + ox] = acc;
                        }
                    }
                }
            }
            out
        }

        /// Returns dX; accumulates into `dw` and `db`.
        pub fn backward(
            g: &Geometry,
            x: &[f32],
            wgt: &[f32],
            dy: &[f32],
            dw: &mut [f32],
            db: &mut [f32],
        ) -> Vec<f32> {
            let (k, s, p) = (g.k, g.s, g.p as isize);
            let mut dx = vec![0.0; x.len()];
            for n in 0..g.batch {
                for oc in 0..g.out_ch {
                    for oy in 0..g.oh {
                        for ox in 0..g.ow {
                            let gv = dy[((n * g.out_ch + oc) * g.oh + oy) * g.ow + ox];
                            if gv == 0.0 {
                                continue;
                            }
                            db[oc] += gv;
                            for ic in 0..g.in_ch {
                                for ky in 0..k {
                                    let iy = (oy * s + ky) as isize - p;
                                    if iy < 0 || iy >= g.h as isize {
                                        continue;
                                    }
                                    for kx in 0..k {
                                        let ix = (ox * s + kx) as isize - p;
                                        if ix < 0 || ix >= g.w as isize {
                                            continue;
                                        }
                                        let x_idx = ((n * g.in_ch + ic) * g.h + iy as usize) * g.w
                                            + ix as usize;
                                        let w_idx = ((oc * g.in_ch + ic) * k + ky) * k + kx;
                                        dw[w_idx] += gv * x[x_idx];
                                        dx[x_idx] += gv * wgt[w_idx];
                                    }
                                }
                            }
                        }
                    }
                }
            }
            dx
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// `randn` with roughly a quarter of the entries set to exact zeros
    /// (half of them negative zeros).
    fn sparse_randn(dims: &[usize], rng: &mut SeededRng) -> Tensor {
        let mut t = Tensor::randn(dims, 1.0, rng);
        for v in t.as_mut_slice() {
            match rng.index(8) {
                0 => *v = 0.0,
                1 => *v = -0.0,
                _ => {}
            }
        }
        t
    }

    #[test]
    fn kernels_match_reference_bit_for_bit() {
        let mut rng = SeededRng::new(11);
        let mut cases = 0;
        for k in [1usize, 3, 5] {
            for stride in [1usize, 2] {
                for padding in [0usize, 1, 2] {
                    for _ in 0..3 {
                        let pick =
                            |rng: &mut SeededRng, lo: usize, hi: usize| lo + rng.index(hi - lo + 1);
                        let min = k.saturating_sub(2 * padding).max(1);
                        let h = pick(&mut rng, min, min + 9);
                        let w = h + pick(&mut rng, 1, 6);
                        let (h, w) = if rng.bernoulli(0.5) { (h, w) } else { (w, h) };
                        let batch = pick(&mut rng, 2, 3);
                        let in_ch = [1, 3, 5][pick(&mut rng, 0, 2)];
                        let out_ch = [1, 3, 5, 7, 9][pick(&mut rng, 0, 4)];
                        let mut conv =
                            Conv2d::new(in_ch, out_ch, k, stride, padding, &mut rng).unwrap();
                        let mut bias = Tensor::randn(&[out_ch], 1.0, &mut rng);
                        bias.as_mut_slice()[0] = -0.0;
                        conv.bias.value = bias;
                        conv.weight.value = sparse_randn(conv.weight.value.dims(), &mut rng);
                        conv.weight.grad = Tensor::randn(conv.weight.value.dims(), 1.0, &mut rng);
                        conv.bias.grad = Tensor::randn(&[out_ch], 1.0, &mut rng);
                        let x = sparse_randn(&[batch, in_ch, h, w], &mut rng);
                        let g = conv.geometry(x.dims());
                        let case = format!("{g:?}");

                        let y = conv.forward(&x, true).unwrap();
                        let want = reference::forward(
                            &g,
                            x.as_slice(),
                            conv.weight.value.as_slice(),
                            conv.bias.value.as_slice(),
                        );
                        assert_eq!(bits(y.as_slice()), bits(&want), "forward, {case}");

                        // One output channel gets only (signed) zero
                        // gradients: its skipped terms must leave a -0.0
                        // gradient as -0.0, and must not multiply its
                        // infinite weight into dX.
                        let mut dy = sparse_randn(y.dims(), &mut rng);
                        let dead = rng.index(out_ch);
                        let (plane, taps) = (g.oh * g.ow, in_ch * k * k);
                        for (i, v) in dy.as_mut_slice().iter_mut().enumerate() {
                            if (i / plane) % out_ch == dead {
                                *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                            }
                        }
                        conv.weight.value.as_mut_slice()[dead * taps] = f32::INFINITY;
                        conv.weight.grad.as_mut_slice()[dead * taps..][..taps].fill(-0.0);
                        conv.bias.grad.as_mut_slice()[dead] = -0.0;
                        let mut want_dw = conv.weight.grad.as_slice().to_vec();
                        let mut want_db = conv.bias.grad.as_slice().to_vec();
                        let want_dx = reference::backward(
                            &g,
                            x.as_slice(),
                            conv.weight.value.as_slice(),
                            dy.as_slice(),
                            &mut want_dw,
                            &mut want_db,
                        );
                        let dx = conv.backward(&dy).unwrap();
                        assert_eq!(bits(dx.as_slice()), bits(&want_dx), "dX, {case}");
                        assert_eq!(
                            bits(conv.weight.grad.as_slice()),
                            bits(&want_dw),
                            "dW, {case}"
                        );
                        assert_eq!(
                            bits(conv.bias.grad.as_slice()),
                            bits(&want_db),
                            "db, {case}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 54);
    }

    #[test]
    fn malformed_grad_output_is_bad_input() {
        let mut rng = SeededRng::new(13);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng).unwrap();
        let y = conv.forward(&Tensor::zeros(&[2, 2, 5, 4]), true).unwrap();
        assert_eq!(y.dims(), &[2, 3, 5, 4]);
        for dims in [
            &[2, 3, 5][..],
            &[2, 3, 5, 4, 1],
            &[2, 3, 4, 5],
            &[1, 3, 5, 4],
            &[2, 2, 5, 4],
            &[2, 3, 5, 5],
        ] {
            let err = conv.backward(&Tensor::zeros(dims)).unwrap_err();
            assert!(matches!(err, NnError::BadInput { .. }), "{dims:?}: {err:?}");
        }
        assert!(conv.backward(&Tensor::zeros(&[2, 3, 5, 4])).is_ok());
    }

    #[test]
    fn input_smaller_than_kernel_is_bad_input() {
        let mut rng = SeededRng::new(14);
        let mut conv = Conv2d::new(1, 1, 5, 1, 1, &mut rng).unwrap();
        for dims in [[1, 1, 2, 8], [1, 1, 8, 2], [1, 1, 2, 2]] {
            let err = conv.forward(&Tensor::zeros(&dims), true).unwrap_err();
            assert!(matches!(err, NnError::BadInput { .. }), "{dims:?}: {err:?}");
        }
        // h + 2·padding == kernel is the smallest valid input: a 1×1 output.
        let y = conv.forward(&Tensor::zeros(&[1, 1, 3, 3]), true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        // Padding wider than the kernel still needs a non-empty map.
        let mut wide = Conv2d::new(1, 1, 3, 1, 2, &mut rng).unwrap();
        for dims in [[1, 1, 0, 4], [1, 1, 4, 0]] {
            let err = wide.forward(&Tensor::zeros(&dims), true).unwrap_err();
            assert!(matches!(err, NnError::BadInput { .. }), "{dims:?}: {err:?}");
        }
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = SeededRng::new(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng).unwrap();
        // Set weight to a delta kernel.
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.set(&[0, 0, 1, 1], 1.0).unwrap();
        conv.weight.value = w;
        conv.bias.value = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((1..=16).map(|v| v as f32).collect(), &[1, 1, 4, 4]).unwrap();
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn output_shape_with_stride() {
        let mut rng = SeededRng::new(1);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng).unwrap();
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let y = conv.forward(&x, true).unwrap();
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
        assert_eq!(conv.output_size(8), 4);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut rng = SeededRng::new(2);
        assert!(Conv2d::new(0, 4, 3, 1, 1, &mut rng).is_err());
        assert!(Conv2d::new(4, 4, 0, 1, 1, &mut rng).is_err());
    }

    #[test]
    fn wrong_channel_count_rejected() {
        let mut rng = SeededRng::new(3);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng).unwrap();
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 4, 4]), true).is_err());
    }

    #[test]
    fn gradient_check_small_conv() {
        let mut rng = SeededRng::new(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng).unwrap();
        let x = Tensor::randn(&[1, 2, 4, 4], 1.0, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        let loss_weights = Tensor::randn(y.dims(), 1.0, &mut rng);
        let dx = conv.backward(&loss_weights).unwrap();
        let dw_analytic = conv.weight.grad.clone();

        let eps = 1e-2;
        // Check a handful of input positions.
        for idx in [0usize, 7, 20, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fp = conv
                .forward(&xp, true)
                .unwrap()
                .mul(&loss_weights)
                .unwrap()
                .sum();
            let fm = conv
                .forward(&xm, true)
                .unwrap()
                .mul(&loss_weights)
                .unwrap()
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 5e-2,
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
        // Check a handful of weight positions.
        for idx in [0usize, 10, 25, 50] {
            let orig = conv.weight.value.as_slice()[idx];
            conv.weight.value.as_mut_slice()[idx] = orig + eps;
            let fp = conv
                .forward(&x, true)
                .unwrap()
                .mul(&loss_weights)
                .unwrap()
                .sum();
            conv.weight.value.as_mut_slice()[idx] = orig - eps;
            let fm = conv
                .forward(&x, true)
                .unwrap()
                .mul(&loss_weights)
                .unwrap()
                .sum();
            conv.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (dw_analytic.as_slice()[idx] - numeric).abs() < 5e-2,
                "dw[{idx}]: {} vs {numeric}",
                dw_analytic.as_slice()[idx]
            );
        }
    }

    #[test]
    fn axis_roles_mark_channels_only() {
        let mut rng = SeededRng::new(5);
        let conv = Conv2d::new(4, 8, 3, 1, 1, &mut rng).unwrap();
        conv.visit_params("c1", &mut |name, p| {
            if name.ends_with("weight") {
                assert_eq!(
                    p.roles,
                    vec![
                        AxisRole::OutFeatures,
                        AxisRole::InFeatures,
                        AxisRole::Fixed,
                        AxisRole::Fixed
                    ]
                );
            } else {
                assert_eq!(p.roles, vec![AxisRole::OutFeatures]);
            }
        });
    }
}
