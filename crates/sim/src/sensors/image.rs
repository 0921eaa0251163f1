//! RGB image buffer used by the camera sensor and the fault injectors.

use serde::{Deserialize, Serialize};

/// A linear-RGB color with components in `[0, 1]`.
pub type Rgb = [f32; 3];

/// A row-major RGB image with `f32` channels in `[0, 1]`.
///
/// This is the payload AVFI's input fault injectors mutate (Gaussian noise,
/// salt & pepper, occlusions, water drops), so it exposes direct pixel
/// access as well as bulk channel access.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Image {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        Image {
            width,
            height,
            data: vec![0.0; width * height * 3],
        }
    }

    /// Creates an image filled with a color.
    pub fn filled(width: usize, height: usize, color: Rgb) -> Self {
        let mut img = Image::new(width, height);
        for px in img.data.chunks_exact_mut(3) {
            px.copy_from_slice(&color);
        }
        img
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixels.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Raw channel buffer (row-major, RGB interleaved).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw channel buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reshapes the buffer in place to `width × height`, reusing the
    /// allocation when capacity allows. Pixel contents are unspecified
    /// afterwards: a caller overwrites the pixels its readers need
    /// ([`Camera::render_into`](crate::sensors::Camera::render_into)
    /// writes only the rows of its footprint).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn reshape(&mut self, width: usize, height: usize) {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        self.width = width;
        self.height = height;
        self.data.resize(width * height * 3, 0.0);
    }

    /// Makes `self` an exact copy of `src`, reusing the allocation when
    /// capacity allows (unlike `Clone::clone`, which always reallocates).
    pub fn copy_from(&mut self, src: &Image) {
        self.reshape(src.width, src.height);
        self.data.copy_from_slice(&src.data);
    }

    #[inline]
    fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.width && y < self.height);
        (y * self.width + x) * 3
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> Rgb {
        let i = self.idx(x, y);
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, c: Rgb) {
        let i = self.idx(x, y);
        self.data[i..i + 3].copy_from_slice(&c);
    }

    /// Blends `c` over the pixel with opacity `alpha ∈ [0, 1]`.
    #[inline]
    pub fn blend_pixel(&mut self, x: usize, y: usize, c: Rgb, alpha: f32) {
        let i = self.idx(x, y);
        for (k, ch) in c.iter().enumerate() {
            self.data[i + k] = self.data[i + k] * (1.0 - alpha) + ch * alpha;
        }
    }

    /// Fills an axis-aligned rectangle (clipped to the image).
    pub fn fill_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, c: Rgb) {
        let (x0, x1) = (x0.min(x1), x0.max(x1));
        let (y0, y1) = (y0.min(y1), y0.max(y1));
        let xs = x0.max(0) as usize;
        let ys = y0.max(0) as usize;
        let xe = (x1.max(0) as usize).min(self.width);
        let ye = (y1.max(0) as usize).min(self.height);
        for y in ys..ye {
            for x in xs..xe {
                self.set_pixel(x, y, c);
            }
        }
    }

    /// Blends a rectangle with opacity `alpha` (clipped to the image).
    pub fn blend_rect(&mut self, x0: i64, y0: i64, x1: i64, y1: i64, c: Rgb, alpha: f32) {
        let (x0, x1) = (x0.min(x1), x0.max(x1));
        let (y0, y1) = (y0.min(y1), y0.max(y1));
        let xs = x0.max(0) as usize;
        let ys = y0.max(0) as usize;
        let xe = (x1.max(0) as usize).min(self.width);
        let ye = (y1.max(0) as usize).min(self.height);
        for y in ys..ye {
            for x in xs..xe {
                self.blend_pixel(x, y, c, alpha);
            }
        }
    }

    /// Converts to a grayscale buffer (Rec. 601 luma), row-major.
    pub fn to_grayscale(&self) -> Vec<f32> {
        self.data
            .chunks_exact(3)
            .map(|p| 0.299 * p[0] + 0.587 * p[1] + 0.114 * p[2])
            .collect()
    }

    /// Mean luma over the whole image.
    pub fn mean_luma(&self) -> f32 {
        let g = self.to_grayscale();
        g.iter().sum::<f32>() / g.len().max(1) as f32
    }

    /// Nearest-neighbor downsample to `w × h`.
    pub fn resized(&self, w: usize, h: usize) -> Image {
        assert!(w > 0 && h > 0);
        let mut out = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let sx = x * self.width / w;
                let sy = y * self.height / h;
                out.set_pixel(x, y, self.pixel(sx, sy));
            }
        }
        out
    }

    /// Renders the image as ASCII art (for terminal debugging).
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let mut s = String::with_capacity((self.width + 1) * self.height);
        for y in 0..self.height {
            for x in 0..self.width {
                let p = self.pixel(x, y);
                let luma = 0.299 * p[0] + 0.587 * p[1] + 0.114 * p[2];
                let i = ((luma.clamp(0.0, 1.0)) * (RAMP.len() - 1) as f32).round() as usize;
                s.push(RAMP[i] as char);
            }
            s.push('\n');
        }
        s
    }
}

/// The pixels of an image that its reader looks at: every pixel whose row
/// is in a row mask and whose column is in a column mask. A fault whose
/// output only that reader sees may compute these pixels alone and leave
/// the rest unspecified, and the camera renders only the footprint's rows
/// ([`Camera::render_into`](crate::sensors::Camera::render_into)). The
/// default footprint holds no pixel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PixelFootprint {
    rows: Vec<bool>,
    cols: Vec<bool>,
}

impl PixelFootprint {
    /// Every pixel of a `width × height` image.
    pub fn whole(width: usize, height: usize) -> Self {
        PixelFootprint {
            rows: vec![true; height],
            cols: vec![true; width],
        }
    }

    /// The pixels of a `width × height` image in one of `cols` and one of
    /// `rows`.
    ///
    /// # Panics
    ///
    /// Panics if a column is not below `width` or a row not below
    /// `height`.
    pub fn grid(
        width: usize,
        height: usize,
        cols: impl IntoIterator<Item = usize>,
        rows: impl IntoIterator<Item = usize>,
    ) -> Self {
        let mut footprint = PixelFootprint {
            rows: vec![false; height],
            cols: vec![false; width],
        };
        for x in cols {
            footprint.cols[x] = true;
        }
        for y in rows {
            footprint.rows[y] = true;
        }
        footprint
    }

    /// Whether row `y` is in the row mask.
    #[inline]
    pub fn row(&self, y: usize) -> bool {
        self.rows.get(y) == Some(&true)
    }

    /// Whether column `x` is in the column mask.
    #[inline]
    pub fn col(&self, x: usize) -> bool {
        self.cols.get(x) == Some(&true)
    }

    /// Whether the footprint holds no pixel: its row mask or its column
    /// mask is empty.
    pub fn is_empty(&self) -> bool {
        !self.rows.contains(&true) || !self.cols.contains(&true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_roundtrip() {
        let mut img = Image::new(4, 3);
        img.set_pixel(2, 1, [0.1, 0.5, 0.9]);
        assert_eq!(img.pixel(2, 1), [0.1, 0.5, 0.9]);
        assert_eq!(img.pixel(0, 0), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn fill_rect_clips() {
        let mut img = Image::new(4, 4);
        img.fill_rect(-5, -5, 100, 2, [1.0, 1.0, 1.0]);
        assert_eq!(img.pixel(0, 0), [1.0, 1.0, 1.0]);
        assert_eq!(img.pixel(3, 1), [1.0, 1.0, 1.0]);
        assert_eq!(img.pixel(0, 2), [0.0, 0.0, 0.0]);
    }

    #[test]
    fn blend_is_partial() {
        let mut img = Image::filled(2, 2, [0.0, 0.0, 0.0]);
        img.blend_pixel(0, 0, [1.0, 1.0, 1.0], 0.25);
        let p = img.pixel(0, 0);
        assert!((p[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn grayscale_white_is_one() {
        let img = Image::filled(2, 2, [1.0, 1.0, 1.0]);
        let g = img.to_grayscale();
        for v in g {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn resize_preserves_fill() {
        let img = Image::filled(8, 8, [0.3, 0.6, 0.9]);
        let small = img.resized(4, 2);
        assert_eq!(small.width(), 4);
        assert_eq!(small.height(), 2);
        assert_eq!(small.pixel(3, 1), [0.3, 0.6, 0.9]);
    }

    #[test]
    fn footprint_is_the_product_of_its_masks() {
        let grid = PixelFootprint::grid(6, 4, [1, 4], [0, 3]);
        let pixels: Vec<(usize, usize)> = (0..4)
            .flat_map(|y| (0..6).map(move |x| (x, y)))
            .filter(|&(x, y)| grid.row(y) && grid.col(x))
            .collect();
        assert_eq!(pixels, vec![(1, 0), (4, 0), (1, 3), (4, 3)]);
        let whole = PixelFootprint::whole(6, 4);
        assert!((0..4).all(|y| whole.row(y)) && (0..6).all(|x| whole.col(x)));
        assert!(!whole.row(4) && !whole.col(6));
        assert!(!grid.is_empty() && !whole.is_empty());
        let empty = PixelFootprint::default();
        assert!(!empty.row(0) && !empty.col(0) && empty.is_empty());
        assert!(PixelFootprint::grid(6, 4, [1], []).is_empty());
        assert!(PixelFootprint::grid(6, 4, [], [2]).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_size_rejected() {
        let _ = Image::new(0, 4);
    }
}
