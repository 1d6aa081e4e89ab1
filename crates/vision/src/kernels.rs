//! Night-vision kernels: noise filtering, histogram, histogram
//! equalization.
//!
//! These are the software reference implementations of the three
//! computational kernels the paper designs in SystemC and synthesizes with
//! Stratus HLS (§VI, "Night-Vision application"). The accelerator version
//! in [`crate::accel`] runs exactly this code behaviourally and attaches
//! the Stratus-style HLS timing/resource model.
//!
//! All kernels operate on 8-bit intensities (`0..=255`); conversion from
//! the `[0, 1]` float images of the dataset is provided by
//! [`to_intensity`] / [`from_intensity`].

/// Number of intensity levels (8-bit pipeline).
pub const LEVELS: usize = 256;

/// Converts a `[0, 1]` float image to 8-bit intensities.
pub fn to_intensity(image: &[f32]) -> Vec<u8> {
    image
        .iter()
        .map(|&v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
        .collect()
}

/// Converts 8-bit intensities back to a `[0, 1]` float image.
pub fn from_intensity(pixels: &[u8]) -> Vec<f32> {
    pixels.iter().map(|&p| p as f32 / 255.0).collect()
}

/// 3×3 median noise filter over a square image.
///
/// Border pixels use the available neighbourhood (no padding), matching
/// the windowed line-buffer implementation of the hardware kernel; the
/// median of an even-sized border window is its upper middle value.
/// Interior pixels go through Paeth's 19-exchange median-of-9 network,
/// border pixels through a sort.
///
/// # Panics
///
/// Panics if `pixels.len()` is not a perfect square.
pub fn noise_filter(pixels: &[u8]) -> Vec<u8> {
    let side = (pixels.len() as f64).sqrt() as usize;
    assert_eq!(side * side, pixels.len(), "image must be square");
    let mut out = vec![0u8; pixels.len()];
    if side >= 3 {
        interior_medians(pixels, side, &mut out);
    }
    for y in 0..side {
        // Every pixel of the first and last row, the two ends of the others.
        let step = if y == 0 || y == side - 1 { 1 } else { side - 1 };
        for x in (0..side).step_by(step) {
            out[y * side + x] = window_median(pixels, side, x, y);
        }
    }
    out
}

/// Paeth's 19-exchange median-of-9 network (Graphics Gems, 1990). Each
/// pair `(a, b)` leaves the smaller value in `a` and the larger in `b`;
/// afterwards element 4 is the median.
const MEDIAN9: [(usize, usize); 19] = [
    (1, 2),
    (4, 5),
    (7, 8),
    (0, 1),
    (3, 4),
    (6, 7),
    (1, 2),
    (4, 5),
    (7, 8),
    (0, 3),
    (5, 8),
    (4, 7),
    (3, 6),
    (1, 4),
    (2, 5),
    (4, 7),
    (4, 2),
    (6, 4),
    (4, 2),
];

/// Writes the 3×3 median of every interior pixel of a `side × side`
/// image (`side >= 3`) into `out`.
///
/// The span of flat indices `side + 1 ..= side * (side - 1) - 2` holds
/// every interior pixel; the 9 window positions of its pixels are 9
/// equally long slices of `pixels`, shifted by `dy * side + dx`. The
/// network runs as elementwise `min`/`max` over whole slices. The span
/// also crosses the last and first pixel of each pair of adjacent
/// interior rows; their windows wrap around the image edge, and the
/// border pass of [`noise_filter`] overwrites them.
fn interior_medians(pixels: &[u8], side: usize, out: &mut [u8]) {
    let (start, len) = (side + 1, side * (side - 2) - 2);
    let mut window: [Vec<u8>; 9] = std::array::from_fn(|k| {
        let from = (k / 3) * side + k % 3;
        pixels[from..from + len].to_vec()
    });
    for (a, b) in MEDIAN9 {
        let [lo, hi] = window.get_disjoint_mut([a, b]).expect("distinct positions");
        for (lo, hi) in lo.iter_mut().zip(hi.iter_mut()) {
            (*lo, *hi) = ((*lo).min(*hi), (*lo).max(*hi));
        }
    }
    out[start..start + len].copy_from_slice(&window[4]);
}

/// The median of the in-image part of the 3×3 window around `(x, y)`,
/// by sorting it.
fn window_median(pixels: &[u8], side: usize, x: usize, y: usize) -> u8 {
    let mut window = [0u8; 9];
    let mut n = 0;
    for ny in y.saturating_sub(1)..=(y + 1).min(side - 1) {
        for nx in x.saturating_sub(1)..=(x + 1).min(side - 1) {
            window[n] = pixels[ny * side + nx];
            n += 1;
        }
    }
    let w = &mut window[..n];
    w.sort_unstable();
    w[n / 2]
}

/// 256-bin intensity histogram.
pub fn histogram(pixels: &[u8]) -> [u32; LEVELS] {
    let mut bins = [0u32; LEVELS];
    for &p in pixels {
        bins[p as usize] += 1;
    }
    bins
}

/// Histogram equalization: remaps intensities through the normalized CDF,
/// stretching the dynamic range of under-exposed (night) images.
pub fn equalize(pixels: &[u8], bins: &[u32; LEVELS]) -> Vec<u8> {
    let total: u64 = bins.iter().map(|&b| b as u64).sum();
    if total == 0 {
        return pixels.to_vec();
    }
    // cdf_min is the first non-zero CDF value (standard formulation).
    let mut cdf = [0u64; LEVELS];
    let mut acc = 0u64;
    for (i, &b) in bins.iter().enumerate() {
        acc += b as u64;
        cdf[i] = acc;
    }
    let cdf_min = cdf.iter().copied().find(|&c| c > 0).unwrap_or(0);
    let denom = total.saturating_sub(cdf_min).max(1);
    let mut lut = [0u8; LEVELS];
    for i in 0..LEVELS {
        let num = cdf[i].saturating_sub(cdf_min) * 255;
        lut[i] = (num / denom).min(255) as u8;
    }
    pixels.iter().map(|&p| lut[p as usize]).collect()
}

/// The full Night-Vision pipeline on a `[0, 1]` float image: noise filter →
/// histogram → equalization, returning a `[0, 1]` float image.
pub fn night_vision(image: &[f32]) -> Vec<f32> {
    let pixels = to_intensity(image);
    let filtered = noise_filter(&pixels);
    let bins = histogram(&filtered);
    let equalized = equalize(&filtered, &bins);
    from_intensity(&equalized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intensity_roundtrip() {
        let img = vec![0.0f32, 0.5, 1.0, 0.25];
        let px = to_intensity(&img);
        assert_eq!(px, vec![0, 128, 255, 64]);
        let back = from_intensity(&px);
        for (a, b) in img.iter().zip(&back) {
            assert!((a - b).abs() < 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn median_removes_salt_noise() {
        // Uniform image with one hot pixel: the median kills it.
        let mut px = vec![100u8; 16];
        px[5] = 255;
        let out = noise_filter(&px);
        assert_eq!(out[5], 100);
    }

    #[test]
    fn median_preserves_uniform_regions() {
        let px = vec![42u8; 25];
        assert_eq!(noise_filter(&px), px);
    }

    #[test]
    fn histogram_counts() {
        let px = vec![0u8, 0, 1, 255];
        let bins = histogram(&px);
        assert_eq!(bins[0], 2);
        assert_eq!(bins[1], 1);
        assert_eq!(bins[255], 1);
        assert_eq!(bins.iter().sum::<u32>(), 4);
    }

    #[test]
    fn equalize_stretches_dark_image() {
        // All intensities packed into [20, 60]: equalization must spread
        // them over the full range.
        let px: Vec<u8> = (0..256).map(|i| 20 + (i % 41) as u8).collect();
        let bins = histogram(&px);
        let eq = equalize(&px, &bins);
        let max = *eq.iter().max().unwrap();
        let min = *eq.iter().min().unwrap();
        assert_eq!(min, 0);
        assert!(max >= 250, "max {max}");
    }

    #[test]
    fn equalize_monotone() {
        // Equalization must never invert intensity ordering.
        let px: Vec<u8> = (0..=255).collect();
        let bins = histogram(&px);
        let eq = equalize(&px, &bins);
        for w in eq.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn equalize_empty_histogram_is_identity() {
        let px = vec![7u8; 4];
        let bins = [0u32; LEVELS];
        assert_eq!(equalize(&px, &bins), px);
    }

    #[test]
    fn night_vision_brightens_dark_images() {
        let dark: Vec<f32> = (0..1024)
            .map(|i| 0.05 + 0.1 * ((i % 7) as f32 / 7.0))
            .collect();
        let out = night_vision(&dark);
        let mean_in: f32 = dark.iter().sum::<f32>() / 1024.0;
        let mean_out: f32 = out.iter().sum::<f32>() / 1024.0;
        assert!(mean_out > mean_in * 2.0, "{mean_out} vs {mean_in}");
    }

    /// The reference filter: every pixel's in-image window sorted, its
    /// upper middle value taken.
    fn sorted_filter(pixels: &[u8], side: usize) -> Vec<u8> {
        let mut out = vec![0u8; pixels.len()];
        for y in 0..side as i64 {
            for x in 0..side as i64 {
                let mut window = Vec::new();
                for ny in y - 1..=y + 1 {
                    for nx in x - 1..=x + 1 {
                        if (0..side as i64).contains(&nx) && (0..side as i64).contains(&ny) {
                            window.push(pixels[(ny * side as i64 + nx) as usize]);
                        }
                    }
                }
                window.sort_unstable();
                out[(y * side as i64 + x) as usize] = window[window.len() / 2];
            }
        }
        out
    }

    /// A square image of side 1..=33. Half the images draw from four
    /// intensities only, so windows are full of ties.
    struct SquareImage;

    impl Strategy for SquareImage {
        type Value = (usize, Vec<u8>);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let side = (1..=33usize).sample(rng);
            let levels = [3u8, 255][(0..2usize).sample(rng)];
            let px = (0..side * side).map(|_| (0..=levels).sample(rng)).collect();
            (side, px)
        }
    }

    #[test]
    fn median_network_sorts_every_window_ordering() {
        // The network is exact on all 0/1 inputs, hence (0-1 principle)
        // on every input: check all 512 binary 3×3 windows.
        for bits in 0u32..512 {
            let px: Vec<u8> = (0..9).map(|k| ((bits >> k) & 1) as u8).collect();
            assert_eq!(noise_filter(&px)[4], sorted_filter(&px, 3)[4], "{bits:09b}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The exchange network and the border sort agree with sorting
        /// every window.
        #[test]
        fn median_network_matches_the_sort_oracle((side, px) in SquareImage) {
            prop_assert_eq!(noise_filter(&px), sorted_filter(&px, side));
        }
    }

    proptest! {
        /// Equalization output is always within range and total pixel count
        /// is conserved by the histogram.
        #[test]
        fn histogram_conserves_pixels(px in proptest::collection::vec(0u8..=255, 64)) {
            let bins = histogram(&px);
            prop_assert_eq!(bins.iter().map(|&b| b as usize).sum::<usize>(), px.len());
        }

        /// The median filter never invents intensities outside the input's
        /// min..=max range.
        #[test]
        fn median_output_bounded(px in proptest::collection::vec(0u8..=255, 16)) {
            let out = noise_filter(&px);
            let lo = *px.iter().min().unwrap();
            let hi = *px.iter().max().unwrap();
            prop_assert!(out.iter().all(|&p| p >= lo && p <= hi));
        }
    }
}
