//! Camera preprocessing for the imitation network.

use avfi_nn::Tensor;
use avfi_sim::sensors::{Image, PixelFootprint};

/// Width of the network input image, pixels.
pub const NET_WIDTH: usize = 32;
/// Height of the network input image, pixels.
pub const NET_HEIGHT: usize = 24;

/// Normalization divisor for the speed scalar appended at the head input.
pub const SPEED_SCALE: f64 = 10.0;

/// The source index that output index `i` samples when a nearest-neighbor
/// resample maps `src` pixels onto `dst`.
#[inline]
fn nearest(i: usize, src: usize, dst: usize) -> usize {
    i * src / dst
}

/// Converts a camera image into the network input tensor
/// `[1, NET_HEIGHT, NET_WIDTH]`: nearest-neighbor downsample, grayscale
/// (Rec. 601 luma), zero-centered (`luma − 0.5`). It reads only the
/// pixels of [`net_footprint`].
pub fn image_to_tensor(image: &Image) -> Tensor {
    let (w, h) = (image.width(), image.height());
    let mut gray = Vec::with_capacity(NET_WIDTH * NET_HEIGHT);
    for y in 0..NET_HEIGHT {
        let sy = nearest(y, h, NET_HEIGHT);
        for x in 0..NET_WIDTH {
            let p = image.pixel(nearest(x, w, NET_WIDTH), sy);
            gray.push(0.299 * p[0] + 0.587 * p[1] + 0.114 * p[2] - 0.5);
        }
    }
    Tensor::from_vec(gray, vec![1, NET_HEIGHT, NET_WIDTH])
}

/// The pixels of a `width × height` camera image that [`image_to_tensor`]
/// reads: the grid of its nearest-neighbor sample.
pub fn net_footprint(width: usize, height: usize) -> PixelFootprint {
    PixelFootprint::grid(
        width,
        height,
        (0..NET_WIDTH).map(|x| nearest(x, width, NET_WIDTH)),
        (0..NET_HEIGHT).map(|y| nearest(y, height, NET_HEIGHT)),
    )
}

/// Normalizes a speed (m/s) for the head input.
pub fn normalize_speed(speed: f64) -> f32 {
    (speed / SPEED_SCALE) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_shape_and_centering() {
        let img = Image::filled(64, 48, [1.0, 1.0, 1.0]);
        let t = image_to_tensor(&img);
        assert_eq!(t.shape(), &[1, NET_HEIGHT, NET_WIDTH]);
        // White → luma 1.0 → centered 0.5.
        assert!(t.data().iter().all(|v| (*v - 0.5).abs() < 1e-4));
    }

    #[test]
    fn no_resize_needed_case() {
        let img = Image::filled(NET_WIDTH, NET_HEIGHT, [0.0, 0.0, 0.0]);
        let t = image_to_tensor(&img);
        assert!(t.data().iter().all(|v| (*v + 0.5).abs() < 1e-6));
    }

    /// Random channels in `[-0.25, 1.25]`: faults can leave values
    /// outside `[0, 1]` before the agent reads them.
    fn random_image(width: usize, height: usize, seed: u64) -> Image {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut img = Image::new(width, height);
        for v in img.data_mut() {
            *v = rng.random_range(-0.25f32..1.25);
        }
        img
    }

    const SIZES: [(usize, usize); 4] = [(64, 48), (32, 24), (63, 47), (17, 5)];

    #[test]
    fn tensor_matches_the_resize_then_grayscale_oracle_bitwise() {
        // The conversion as it was before it sampled pixels in place: a
        // resized copy (none at the network size), then a grayscale
        // buffer, then centering.
        let oracle = |image: &Image| -> Vec<u32> {
            let small = if image.width() == NET_WIDTH && image.height() == NET_HEIGHT {
                image.clone()
            } else {
                image.resized(NET_WIDTH, NET_HEIGHT)
            };
            small
                .to_grayscale()
                .iter()
                .map(|v| (v - 0.5).to_bits())
                .collect()
        };
        for (w, h) in SIZES {
            for seed in 0..4 {
                let img = random_image(w, h, seed);
                let bits: Vec<u32> = image_to_tensor(&img)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(bits, oracle(&img), "{w}x{h} seed {seed}");
            }
        }
    }

    #[test]
    fn footprint_is_exactly_the_pixels_the_tensor_reads() {
        for (w, h) in SIZES {
            let img = random_image(w, h, 9);
            let base = image_to_tensor(&img);
            let footprint = net_footprint(w, h);
            for y in 0..h {
                for x in 0..w {
                    let mut probe = img.clone();
                    probe.set_pixel(x, y, [7.0, 7.0, 7.0]);
                    let read = image_to_tensor(&probe).data() != base.data();
                    let inside = footprint.row(y) && footprint.col(x);
                    assert_eq!(read, inside, "{w}x{h} pixel ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn speed_normalization() {
        assert_eq!(normalize_speed(5.0), 0.5);
        assert_eq!(normalize_speed(0.0), 0.0);
    }
}
