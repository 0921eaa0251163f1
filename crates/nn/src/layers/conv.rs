//! 2-D convolution layer.

use super::panel::{lane_blocks, WeightPanel};
use super::{Layer, ParamSlice};
use crate::init::he_uniform;
use crate::tensor::Tensor;
use rand::Rng;
use std::ops::Range;

/// A 2-D convolution over `[C, H, W]` tensors with square kernels.
///
/// Output shape is `[out_ch, H', W']` with
/// `H' = (H + 2·pad − k) / stride + 1` (and likewise for `W'`).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// `[out_ch × in_ch × k × k]`.
    weight: Vec<f32>,
    /// `weight` interleaved for the forward kernel.
    panel: WeightPanel,
    bias: Vec<f32>,
    grad_weight: Vec<f32>,
    grad_bias: Vec<f32>,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with He-uniform weights.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_ch`, `out_ch`, `k`, `stride` is zero.
    pub fn new<R: Rng + ?Sized>(
        in_ch: usize,
        out_ch: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_ch > 0 && out_ch > 0 && k > 0 && stride > 0);
        let n = out_ch * in_ch * k * k;
        let mut weight = vec![0.0; n];
        he_uniform(rng, in_ch * k * k, &mut weight);
        Conv2d {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            weight,
            panel: WeightPanel::default(),
            bias: vec![0.0; out_ch],
            grad_weight: vec![0.0; n],
            grad_bias: vec![0.0; out_ch],
            cached_input: None,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad - self.k) / self.stride + 1;
        let ow = (w + 2 * self.pad - self.k) / self.stride + 1;
        (oh, ow)
    }

    #[inline]
    fn w_idx(&self, o: usize, c: usize, ky: usize, kx: usize) -> usize {
        ((o * self.in_ch + c) * self.k + ky) * self.k + kx
    }

    /// Interior range `[lo, hi)` of output indices along one spatial axis
    /// (input size `n`, output size `on`): outputs whose whole `k`-tap
    /// window lands in-bounds.
    fn interior(&self, n: usize, on: usize) -> (usize, usize) {
        let lo = self.pad.div_ceil(self.stride).min(on);
        let hi = if n + self.pad >= self.k {
            ((n + self.pad - self.k) / self.stride + 1).min(on)
        } else {
            lo
        };
        (lo, hi.max(lo))
    }

    /// One output element via the general (edge-tolerant) scalar path.
    #[inline]
    fn accumulate_one(&self, x: &[f32], h: usize, w: usize, o: usize, oy: usize, ox: usize) -> f32 {
        let mut acc = self.bias[o];
        let y0 = (oy * self.stride) as isize - self.pad as isize;
        let x0 = (ox * self.stride) as isize - self.pad as isize;
        for c in 0..self.in_ch {
            for ky in 0..self.k {
                let iy = y0 + ky as isize;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..self.k {
                    let ix = x0 + kx as isize;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    let xi = x[(c * h + iy as usize) * w + ix as usize];
                    acc += self.weight[self.w_idx(o, c, ky, kx)] * xi;
                }
            }
        }
        acc
    }

    /// The kernel offsets of output index `o` whose taps land inside an
    /// input axis of size `n`, and the input index of the first of them
    /// (clamped to `n` when none does).
    fn taps_in_bounds(&self, o: usize, n: usize) -> (Range<usize>, usize) {
        let start = (o * self.stride) as isize - self.pad as isize;
        let k = self.k as isize;
        let lo = (-start).clamp(0, k);
        let hi = (n as isize - start).clamp(lo, k);
        (lo as usize..hi as usize, ((start + lo) as usize).min(n))
    }

    /// Computes output channels `first..first + L` for every output
    /// pixel — the lane-batched hot path.
    ///
    /// Lanes run across *independent output channels*: one input load
    /// feeds `L` multiply-adds whose weights are one contiguous `[f32; L]`
    /// of the packed panel, and each lane's accumulator walks the taps
    /// that land in bounds (ascending `c`, `ky`, `kx`) in the exact
    /// scalar order, so per-lane results are bit-identical to
    /// [`Self::accumulate_one`]. Each pixel's in-bounds taps are a window
    /// clipped once, so no tap tests bounds. Pixels whose columns clip
    /// nothing go two horizontally adjacent pixels per pass, for two
    /// independent sets of accumulators; the clipped border columns go
    /// one at a time.
    fn forward_block<const L: usize>(
        &self,
        x: &[f32],
        (h, w): (usize, usize),
        (oh, ow): (usize, usize),
        (ox_lo, ox_hi): (usize, usize),
        first: usize,
        y: &mut [f32],
    ) {
        let taps = self.panel.block::<L>(first, self.in_ch * self.k * self.k);
        let biases: [f32; L] = std::array::from_fn(|l| self.bias[first + l]);
        let mut store = |oy: usize, ox: usize, acc: &[f32; L]| {
            for (l, a) in acc.iter().enumerate() {
                y[((first + l) * oh + oy) * ow + ox] = *a;
            }
        };
        for oy in 0..oh {
            let rows = self.taps_in_bounds(oy, h);
            let mut ox = 0;
            while ox < ow {
                let cols = self.taps_in_bounds(ox, w);
                if ox >= ox_lo && ox + 2 <= ox_hi {
                    let [a, b] = self.pixels::<L, 2>(x, (h, w), rows.clone(), cols, taps, biases);
                    store(oy, ox, &a);
                    store(oy, ox + 1, &b);
                    ox += 2;
                } else {
                    let [acc] = self.pixels::<L, 1>(x, (h, w), rows.clone(), cols, taps, biases);
                    store(oy, ox, &acc);
                    ox += 1;
                }
            }
        }
    }

    /// Output pixels `ox..ox + P` of one row, for one lane block, over
    /// the in-bounds taps `(ky, iy)` and `(kx, ix)` of the first pixel
    /// (see [`Self::taps_in_bounds`]); pixel `p` reads `p · stride`
    /// columns further, so every pixel must clip the same taps.
    #[inline(always)]
    fn pixels<const L: usize, const P: usize>(
        &self,
        x: &[f32],
        (h, w): (usize, usize),
        (ky, iy): (Range<usize>, usize),
        (kx, ix): (Range<usize>, usize),
        taps: &[[f32; L]],
        biases: [f32; L],
    ) -> [[f32; L]; P] {
        let (k, stride) = (self.k, self.stride);
        let span = (P - 1) * stride + kx.len();
        let mut acc = [biases; P];
        for c in 0..self.in_ch {
            for (dy, ky) in ky.clone().enumerate() {
                let start = (c * h + iy + dy) * w + ix;
                let window = &x[start..start + span];
                let row_taps = &taps[(c * k + ky) * k + kx.start..][..kx.len()];
                for (dx, wl) in row_taps.iter().enumerate() {
                    for (p, acc) in acc.iter_mut().enumerate() {
                        let xi = window[p * stride + dx];
                        for (a, &wl) in acc.iter_mut().zip(wl) {
                            *a += wl * xi;
                        }
                    }
                }
            }
        }
        acc
    }

    /// Scalar reference forward — the pre-blocking loop nest, retained as
    /// the differential oracle for the lane-batched kernel (mirrors the
    /// camera's `render_into_reference`). Never caches.
    pub fn forward_reference(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 3, "conv2d expects [C, H, W]");
        assert_eq!(shape[0], self.in_ch, "channel mismatch");
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = self.out_hw(h, w);
        let x = input.data();
        let mut y = vec![0.0f32; self.out_ch * oh * ow];
        for o in 0..self.out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    y[(o * oh + oy) * ow + ox] = self.accumulate_one(x, h, w, o, oy, ox);
                }
            }
        }
        Tensor::from_vec(y, vec![self.out_ch, oh, ow])
    }
}

impl Layer for Conv2d {
    /// Blocked, lane-batched forward: output channels are split into lane
    /// blocks (16 wide, then 8, then single; see `Conv2d::forward_block`)
    /// that read their weights from the packed panel, two output pixels
    /// per pass where neither clips a column of taps. Bit-identical to
    /// [`Conv2d::forward_reference`] by construction — lanes are
    /// independent outputs and the per-output reduction order is
    /// untouched.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 3, "conv2d expects [C, H, W]");
        assert_eq!(shape[0], self.in_ch, "channel mismatch");
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = self.out_hw(h, w);
        let cols = self.interior(w, ow);
        self.panel
            .refresh(&self.weight, self.in_ch * self.k * self.k);
        let x = input.data();
        let mut y = vec![0.0f32; self.out_ch * oh * ow];
        for (first, lanes) in lane_blocks(self.out_ch) {
            let block = match lanes {
                16 => Self::forward_block::<16>,
                8 => Self::forward_block::<8>,
                _ => Self::forward_block::<1>,
            };
            block(self, x, (h, w), (oh, ow), cols, first, &mut y);
        }
        self.cached_input = if train { Some(input.clone()) } else { None };
        Tensor::from_vec(y, vec![self.out_ch, oh, ow])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward");
        let shape = input.shape().to_vec();
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(grad_out.shape(), &[self.out_ch, oh, ow]);
        let x = input.data();
        let gy = grad_out.data();
        let mut gx = vec![0.0f32; x.len()];
        for o in 0..self.out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = gy[(o * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_bias[o] += g;
                    let y0 = (oy * self.stride) as isize - self.pad as isize;
                    let x0 = (ox * self.stride) as isize - self.pad as isize;
                    for c in 0..self.in_ch {
                        for ky in 0..self.k {
                            let iy = y0 + ky as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..self.k {
                                let ix = x0 + kx as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi_idx = (c * h + iy as usize) * w + ix as usize;
                                let wi = self.w_idx(o, c, ky, kx);
                                self.grad_weight[wi] += g * x[xi_idx];
                                gx[xi_idx] += g * self.weight[wi];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(gx, shape)
    }

    fn params(&mut self) -> Vec<ParamSlice<'_>> {
        self.panel.mark_stale();
        vec![
            ParamSlice {
                name: "weight".to_string(),
                values: &mut self.weight,
                grads: &mut self.grad_weight,
            },
            ParamSlice {
                name: "bias".to_string(),
                values: &mut self.bias,
                grads: &mut self.grad_bias,
            },
        ]
    }

    fn kind(&self) -> &'static str {
        "conv2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::check_input_gradient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_kernel_passes_through() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        {
            let mut ps = conv.params();
            ps[0].values.fill(0.0);
            ps[0].values[4] = 1.0; // center tap
            ps[1].values.fill(0.0);
        }
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), vec![1, 4, 4]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 4, 4]);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn output_shape_with_stride() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(vec![3, 24, 32]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[8, 12, 16]);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 5 * 4)
                .map(|v| ((v % 7) as f32 - 3.0) * 0.2)
                .collect(),
            vec![2, 5, 4],
        );
        check_input_gradient(&mut conv, &x, 2e-2);
    }

    #[test]
    fn bias_shifts_every_output() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        {
            let mut ps = conv.params();
            ps[0].values[0] = 0.0;
            ps[1].values[0] = 2.5;
        }
        let y = conv.forward(&Tensor::zeros(vec![1, 2, 2]), false);
        assert!(y.data().iter().all(|v| (*v - 2.5).abs() < 1e-6));
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channels() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut conv = Conv2d::new(3, 1, 3, 1, 1, &mut rng);
        let _ = conv.forward(&Tensor::zeros(vec![1, 4, 4]), false);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn inference_forward_does_not_cache() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(vec![1, 4, 4]);
        let y = conv.forward(&x, false);
        let _ = conv.backward(&y);
    }

    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn inference_forward_clears_training_cache() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(vec![1, 4, 4]);
        let _ = conv.forward(&x, true);
        // An inference pass must not leave a stale training cache behind.
        let y = conv.forward(&x, false);
        let _ = conv.backward(&y);
    }
}
