//! Generic row-major 2-D pixel container.

use crate::error::ImageError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A rectangular, row-major image whose pixels are any `Clone` type.
///
/// The tone-mapping pipeline instantiates this with `f32` (HDR luminance),
/// [`Rgb<f32>`](crate::Rgb) (HDR colour), fixed-point samples from the
/// `apfixed` crate, and `u8` (tone-mapped output). Pixels are addressed as
/// `(x, y)` with `(0, 0)` in the top-left corner, matching the raster order
/// in which the hardware accelerator streams pixels from DDR.
///
/// # Example
///
/// ```
/// use hdr_image::ImageBuffer;
///
/// let ramp = ImageBuffer::from_fn(4, 2, |x, y| (x + 4 * y) as f32);
/// assert_eq!(ramp.get(3, 1), Some(&7.0));
/// assert_eq!(ramp.rows().count(), 2);
/// let doubled = ramp.map(|&v| v * 2.0);
/// assert_eq!(doubled.get(3, 1), Some(&14.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageBuffer<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

impl<T> ImageBuffer<T> {
    /// Creates an image from raw pixel data in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] if either dimension is zero
    /// and [`ImageError::DataSizeMismatch`] if `data.len() != width * height`.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Result<Self, ImageError> {
        if width == 0 || height == 0 {
            return Err(ImageError::InvalidDimensions { width, height });
        }
        let expected = width
            .checked_mul(height)
            .ok_or(ImageError::InvalidDimensions { width, height })?;
        if data.len() != expected {
            return Err(ImageError::DataSizeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(ImageBuffer {
            width,
            height,
            data,
        })
    }

    /// Creates an image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn<F>(width: usize, height: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize) -> T,
    {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        ImageBuffer {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    pub const fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub const fn height(&self) -> usize {
        self.height
    }

    /// Total number of pixels (`width * height`).
    pub const fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// `(width, height)` pair.
    pub const fn dimensions(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Returns a reference to the pixel at `(x, y)`, or `None` when out of
    /// bounds.
    pub fn get(&self, x: usize, y: usize) -> Option<&T> {
        if x < self.width && y < self.height {
            Some(&self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Returns a mutable reference to the pixel at `(x, y)`, or `None` when
    /// out of bounds.
    pub fn get_mut(&mut self, x: usize, y: usize) -> Option<&mut T> {
        if x < self.width && y < self.height {
            Some(&mut self.data[y * self.width + x])
        } else {
            None
        }
    }

    /// Returns the pixel at `(x, y)` with the coordinates clamped into the
    /// image, the boundary handling used by the Gaussian blur.
    pub fn get_clamped(&self, x: isize, y: isize) -> &T {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        &self.data[cy * self.width + cx]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    pub fn set(&mut self, x: usize, y: usize, value: T) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x}, {y}) out of bounds for {}x{} image",
            self.width,
            self.height
        );
        self.data[y * self.width + x] = value;
    }

    /// The underlying row-major pixel slice.
    pub fn pixels(&self) -> &[T] {
        &self.data
    }

    /// The underlying row-major pixel slice, mutably.
    pub fn pixels_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the image and returns the raw pixel vector.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Iterator over rows, each yielded as a slice of `width` pixels.
    pub fn rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.width)
    }

    /// Iterator over `(x, y, &pixel)` triples in raster order — the order in
    /// which the restructured accelerator streams pixels from DDR.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let width = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, p)| (i % width, i / width, p))
    }

    /// Applies `f` to every pixel, producing a new image of the same size.
    pub fn map<U, F>(&self, f: F) -> ImageBuffer<U>
    where
        F: FnMut(&T) -> U,
    {
        self.map_into(f, Vec::new())
    }

    /// [`ImageBuffer::map`], writing the new image into `frame`: a frame
    /// with room for every pixel is overwritten in place, without a fill,
    /// and any other frame grows to fit.
    pub fn map_into<U, F>(&self, f: F, mut frame: Vec<U>) -> ImageBuffer<U>
    where
        F: FnMut(&T) -> U,
    {
        frame.clear();
        frame.extend(self.data.iter().map(f));
        ImageBuffer {
            width: self.width,
            height: self.height,
            data: frame,
        }
    }

    /// Applies `f(x, y, &pixel)` to every pixel, producing a new image.
    pub fn map_with_coords<U, F>(&self, mut f: F) -> ImageBuffer<U>
    where
        F: FnMut(usize, usize, &T) -> U,
    {
        let mut data = Vec::with_capacity(self.data.len());
        for (i, p) in self.data.iter().enumerate() {
            data.push(f(i % self.width, i / self.width, p));
        }
        ImageBuffer {
            width: self.width,
            height: self.height,
            data,
        }
    }

    /// Combines two images of identical dimensions pixel-by-pixel.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::DimensionMismatch`] if the dimensions differ.
    pub fn zip_map<U, V, F>(
        &self,
        other: &ImageBuffer<U>,
        mut f: F,
    ) -> Result<ImageBuffer<V>, ImageError>
    where
        F: FnMut(&T, &U) -> V,
    {
        if self.dimensions() != other.dimensions() {
            return Err(ImageError::DimensionMismatch {
                left: self.dimensions(),
                right: other.dimensions(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| f(a, b))
            .collect();
        Ok(ImageBuffer {
            width: self.width,
            height: self.height,
            data,
        })
    }

    /// Extracts a rectangular sub-image. The rectangle is clipped to the
    /// image bounds.
    ///
    /// # Panics
    ///
    /// Panics if the clipped rectangle is empty (origin outside the image).
    pub fn crop(&self, x0: usize, y0: usize, w: usize, h: usize) -> Self
    where
        T: Clone,
    {
        assert!(
            x0 < self.width && y0 < self.height,
            "crop origin ({x0}, {y0}) outside {}x{} image",
            self.width,
            self.height
        );
        let w = w.min(self.width - x0);
        let h = h.min(self.height - y0);
        ImageBuffer::from_fn(w, h, |x, y| {
            self.data[(y0 + y) * self.width + (x0 + x)].clone()
        })
    }
}

impl<T: Clone> ImageBuffer<T> {
    /// Creates an image with every pixel set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        ImageBuffer {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Transposes the image (used by the separable blur to reuse the
    /// horizontal pass for the vertical direction).
    #[must_use]
    pub fn transpose(&self) -> Self {
        ImageBuffer::from_fn(self.height, self.width, |x, y| {
            self.data[x * self.width + y].clone()
        })
    }
}

impl ImageBuffer<f32> {
    /// Minimum and maximum pixel values. Returns `(0.0, 0.0)` only for an
    /// all-zero image; NaN pixels are ignored.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            if v.is_nan() {
                continue;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo.is_infinite() {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Arithmetic mean of the pixel values.
    pub fn mean(&self) -> f64 {
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// The dynamic range of the image: ratio between the brightest pixel and
    /// the darkest strictly-positive pixel. This is the quantity a
    /// high-dynamic-range image is defined by in Section II of the paper.
    pub fn dynamic_range(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for &v in &self.data {
            let v = v as f64;
            if v > 0.0 {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if hi == 0.0 || lo.is_infinite() {
            1.0
        } else {
            hi / lo
        }
    }

    /// Converts a normalised (`[0, 1]`) image to an 8-bit display image,
    /// clamping out-of-range values.
    pub fn to_ldr(&self) -> ImageBuffer<u8> {
        self.map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
    }
}

impl<T> fmt::Display for ImageBuffer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} image ({} pixels)",
            self.width,
            self.height,
            self.pixel_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_dimensions() {
        assert!(ImageBuffer::from_vec(0, 4, Vec::<f32>::new()).is_err());
        assert!(ImageBuffer::from_vec(2, 2, vec![1.0f32; 3]).is_err());
        assert!(ImageBuffer::from_vec(2, 2, vec![1.0f32; 4]).is_ok());
    }

    #[test]
    fn from_fn_fills_in_raster_order() {
        let img = ImageBuffer::from_fn(3, 2, |x, y| (x, y));
        assert_eq!(img.pixels()[0], (0, 0));
        assert_eq!(img.pixels()[2], (2, 0));
        assert_eq!(img.pixels()[3], (0, 1));
        assert_eq!(img.pixels()[5], (2, 1));
    }

    #[test]
    fn get_and_set_round_trip() {
        let mut img = ImageBuffer::filled(4, 4, 0u8);
        img.set(2, 3, 99);
        assert_eq!(img.get(2, 3), Some(&99));
        assert_eq!(img.get(4, 0), None);
        assert_eq!(img.get(0, 4), None);
        *img.get_mut(1, 1).unwrap() = 5;
        assert_eq!(img.get(1, 1), Some(&5));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn set_out_of_bounds_panics() {
        let mut img = ImageBuffer::filled(2, 2, 0u8);
        img.set(2, 0, 1);
    }

    #[test]
    fn get_clamped_replicates_border() {
        let img = ImageBuffer::from_fn(3, 3, |x, y| (x + 10 * y) as i32);
        assert_eq!(*img.get_clamped(-5, 0), 0);
        assert_eq!(*img.get_clamped(7, 0), 2);
        assert_eq!(*img.get_clamped(1, -1), 1);
        assert_eq!(*img.get_clamped(1, 99), 21);
    }

    #[test]
    fn rows_and_enumerate_agree() {
        let img = ImageBuffer::from_fn(4, 3, |x, y| x + 100 * y);
        assert_eq!(img.rows().count(), 3);
        for (x, y, &v) in img.enumerate_pixels() {
            assert_eq!(v, x + 100 * y);
        }
    }

    #[test]
    fn map_and_zip_map() {
        let a = ImageBuffer::from_fn(2, 2, |x, _| x as f32);
        let b = a.map(|&v| v + 1.0);
        let sum = a.zip_map(&b, |&x, &y| x + y).unwrap();
        assert_eq!(sum.pixels(), &[1.0, 3.0, 1.0, 3.0]);

        let other = ImageBuffer::filled(3, 3, 1.0f32);
        assert!(a.zip_map(&other, |&x, &y| x + y).is_err());
    }

    #[test]
    fn map_into_overwrites_a_frame_of_the_right_length_in_place() {
        let a = ImageBuffer::from_fn(2, 2, |x, y| (x + 2 * y) as f32);
        let frame = vec![f32::NAN; 4];
        let ptr = frame.as_ptr();
        let b = a.map_into(|&v| v * 2.0, frame);
        assert_eq!(b.pixels(), &[0.0, 2.0, 4.0, 6.0]);
        assert_eq!(b.pixels().as_ptr(), ptr);
        // A frame of another length is resized to fit.
        let c = a.map_into(|&v| v, vec![9.0; 7]);
        assert_eq!(c, a);
    }

    #[test]
    fn transpose_is_involutive() {
        let img = ImageBuffer::from_fn(5, 3, |x, y| x * 7 + y);
        let t = img.transpose();
        assert_eq!(t.dimensions(), (3, 5));
        assert_eq!(t.get(2, 4), img.get(4, 2).copied().as_ref());
        assert_eq!(t.transpose(), img);
    }

    #[test]
    fn crop_clips_to_bounds() {
        let img = ImageBuffer::from_fn(8, 8, |x, y| x + 8 * y);
        let c = img.crop(6, 6, 5, 5);
        assert_eq!(c.dimensions(), (2, 2));
        assert_eq!(c.get(0, 0), Some(&(6 + 48)));
    }

    #[test]
    fn min_max_mean_dynamic_range() {
        let img = ImageBuffer::from_vec(2, 2, vec![0.001f32, 0.5, 10.0, 0.0]).unwrap();
        let (lo, hi) = img.min_max();
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 10.0);
        assert!((img.mean() - 2.62525).abs() < 1e-4);
        assert!((img.dynamic_range() - 10000.0).abs() < 1.0);
    }

    #[test]
    fn min_max_ignores_nan_and_handles_all_nan() {
        let img = ImageBuffer::from_vec(2, 1, vec![f32::NAN, 3.0]).unwrap();
        assert_eq!(img.min_max(), (3.0, 3.0));
        let allnan = ImageBuffer::from_vec(1, 1, vec![f32::NAN]).unwrap();
        assert_eq!(allnan.min_max(), (0.0, 0.0));
    }

    #[test]
    fn to_ldr_clamps_and_scales() {
        let img = ImageBuffer::from_vec(2, 2, vec![-0.5f32, 0.0, 0.5, 2.0]).unwrap();
        let ldr = img.to_ldr();
        assert_eq!(ldr.pixels(), &[0, 0, 128, 255]);
    }

    #[test]
    fn display_mentions_dimensions() {
        let img = ImageBuffer::filled(10, 20, 0u8);
        assert_eq!(format!("{img}"), "10x20 image (200 pixels)");
    }
}
