//! 2-D convolution layer.

use super::{Layer, ParamSlice};
use crate::init::he_uniform;
use crate::tensor::Tensor;
use rand::Rng;

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
    /// window lands in-bounds, so the kernel loop needs no edge branches.
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

    /// Computes `L` consecutive output channels (`o0..o0 + L`) for every
    /// output pixel — the lane-batched hot path.
    ///
    /// Lanes run across *independent output channels*: every lane shares
    /// the same input load (one broadcast feeds `L` multiply-adds) while
    /// each lane's accumulator walks the reduction (ascending `c`, `ky`,
    /// `kx`, skipping out-of-bounds taps) in the exact scalar order, so
    /// per-lane results are bit-identical to [`Self::accumulate_one`].
    /// Interior pixels (receptive field fully in-bounds) take a
    /// branch-free inner loop with a sequential weight offset; border
    /// pixels share the scalar path's bounds tests across all lanes.
    fn forward_block<const L: usize>(
        &self,
        x: &[f32],
        (h, w): (usize, usize),
        (oh, ow): (usize, usize),
        ((oy_lo, oy_hi), (ox_lo, ox_hi)): ((usize, usize), (usize, usize)),
        o0: usize,
        y: &mut [f32],
    ) {
        let (k, stride, pad) = (self.k, self.stride, self.pad);
        let ickk = self.in_ch * k * k;
        let wrows: [&[f32]; L] =
            std::array::from_fn(|l| &self.weight[(o0 + l) * ickk..(o0 + l + 1) * ickk]);
        let biases: [f32; L] = std::array::from_fn(|l| self.bias[o0 + l]);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = biases;
                if oy >= oy_lo && oy < oy_hi && ox >= ox_lo && ox < ox_hi {
                    let y0 = oy * stride - pad;
                    let x0 = ox * stride - pad;
                    let mut off = 0;
                    for c in 0..self.in_ch {
                        let plane = &x[c * h * w..(c + 1) * h * w];
                        for ky in 0..k {
                            let row = &plane[(y0 + ky) * w..(y0 + ky) * w + w];
                            for &xi in &row[x0..x0 + k] {
                                for (l, a) in acc.iter_mut().enumerate() {
                                    *a += wrows[l][off] * xi;
                                }
                                off += 1;
                            }
                        }
                    }
                } else {
                    let y0 = (oy * stride) as isize - pad as isize;
                    let x0 = (ox * stride) as isize - pad as isize;
                    for c in 0..self.in_ch {
                        for ky in 0..k {
                            let iy = y0 + ky as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = x0 + kx as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let xi = x[(c * h + iy as usize) * w + ix as usize];
                                let off = (c * k + ky) * k + kx;
                                for (l, a) in acc.iter_mut().enumerate() {
                                    *a += wrows[l][off] * xi;
                                }
                            }
                        }
                    }
                }
                for (l, a) in acc.iter().enumerate() {
                    y[((o0 + l) * oh + oy) * ow + ox] = *a;
                }
            }
        }
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
    /// Blocked, lane-batched forward: output channels are processed in
    /// blocks of 8, then 4, then singly (see `Conv2d::forward_block`);
    /// an interior/border split keeps edge-clipping branches out of the
    /// hot loop. Bit-identical to [`Conv2d::forward_reference`] by
    /// construction — lanes are independent outputs and the per-output
    /// reduction order is untouched.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 3, "conv2d expects [C, H, W]");
        assert_eq!(shape[0], self.in_ch, "channel mismatch");
        let (h, w) = (shape[1], shape[2]);
        let (oh, ow) = self.out_hw(h, w);
        let oy_r = self.interior(h, oh);
        let ox_r = self.interior(w, ow);
        let x = input.data();
        let mut y = vec![0.0f32; self.out_ch * oh * ow];
        let mut o = 0;
        while o + 8 <= self.out_ch {
            self.forward_block::<8>(x, (h, w), (oh, ow), (oy_r, ox_r), o, &mut y);
            o += 8;
        }
        while o + 4 <= self.out_ch {
            self.forward_block::<4>(x, (h, w), (oh, ow), (oy_r, ox_r), o, &mut y);
            o += 4;
        }
        for o in o..self.out_ch {
            for oy in 0..oh {
                for ox in 0..ow {
                    y[(o * oh + oy) * ow + ox] = self.accumulate_one(x, h, w, o, oy, ox);
                }
            }
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
