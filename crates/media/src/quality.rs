//! Image quality metrics: MSE and PSNR.
//!
//! PSNR is the scalar SOS's degradation policy steers by: the paper's
//! SPARE data may "slightly degrade in quality over time", and the
//! experiments (E7/E11) report PSNR of media stored approximately on PLC
//! as wear and retention accumulate.

use crate::image::Image;

/// Mean squared error between two equally-sized images.
///
/// # Panics
///
/// Panics if the image dimensions differ.
pub fn mse(a: &Image, b: &Image) -> f64 {
    assert_eq!(
        (a.width(), a.height()),
        (b.width(), b.height()),
        "image dimensions differ"
    );
    if a.byte_len() == 0 {
        return 0.0;
    }
    let sum: f64 = a
        .pixels()
        .iter()
        .zip(b.pixels())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum();
    sum / a.byte_len() as f64
}

/// Peak signal-to-noise ratio in dB (`inf` for identical images).
pub fn psnr(a: &Image, b: &Image) -> f64 {
    let e = mse(a, b);
    if e == 0.0 {
        f64::INFINITY
    } else {
        10.0 * (255.0f64 * 255.0 / e).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    fn img(pixels: Vec<u8>) -> Image {
        let n = pixels.len();
        Image::from_pixels(n, 1, pixels)
    }

    #[test]
    fn identical_images_have_infinite_psnr() {
        let a = img(vec![10, 20, 30]);
        assert_eq!(mse(&a, &a), 0.0);
        assert!(psnr(&a, &a).is_infinite());
    }

    #[test]
    fn known_mse() {
        let a = img(vec![0, 0, 0, 0]);
        let b = img(vec![10, 0, 0, 0]);
        assert!((mse(&a, &b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn psnr_decreases_with_damage() {
        let a = img(vec![128; 100]);
        let slight = img((0..100)
            .map(|i| if i % 50 == 0 { 130 } else { 128 })
            .collect());
        let heavy = img((0..100).map(|i| if i % 2 == 0 { 255 } else { 0 }).collect());
        assert!(psnr(&a, &slight) > psnr(&a, &heavy));
    }

    #[test]
    #[should_panic(expected = "dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = img(vec![0; 3]);
        let b = Image::from_pixels(1, 3, vec![0; 3]);
        let _ = mse(&a, &b);
    }
}
