//! The Night-Vision accelerator: the three kernels behind one ESP socket.

use crate::kernels::{equalize, histogram, noise_filter, LEVELS};
use crate::svhn::IMG_PIXELS;
use esp4ml_hls::{FixedSpec, PipelinedLoopHls, Resources};
use esp4ml_soc::AcceleratorKernel;

/// The Night-Vision accelerator kernel: noise filtering, histogram and
/// histogram equalization fused behind one accelerator tile, exactly as
/// the paper builds it from SystemC with Stratus HLS.
///
/// I/O values on the NoC are 16-bit fixed-point (`ap_fixed<16, 6>`)
/// normalized intensities, so the accelerator composes directly with the
/// HLS4ML classifier in a p2p pipeline.
#[derive(Debug, Clone)]
pub struct NightVisionKernel {
    name: String,
    pixels: u64,
    spec: FixedSpec,
}

impl NightVisionKernel {
    /// Creates a night-vision accelerator for 32×32 frames.
    pub fn new(name: &str) -> Self {
        Self::with_pixels(name, IMG_PIXELS as u64)
    }

    /// Creates a night-vision accelerator for an arbitrary (square) frame
    /// size.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` is not a perfect square (the filter kernel is
    /// windowed over a square image).
    pub fn with_pixels(name: &str, pixels: u64) -> Self {
        let side = (pixels as f64).sqrt() as u64;
        assert_eq!(side * side, pixels, "frame must be square");
        NightVisionKernel {
            name: name.to_string(),
            pixels,
            spec: FixedSpec::HLS4ML_DEFAULT,
        }
    }

    /// The Stratus HLS models of the three loops: filter (3×3 window,
    /// II=6 — the 9-element median network shares the line-buffer BRAM
    /// ports, so Stratus schedules the window update conservatively),
    /// histogram (II=1), equalization (CDF scan over 256 levels plus the
    /// remap loop, II=1). [`AcceleratorKernel::latency`] is the sum of
    /// their latencies.
    pub fn hls_models(&self) -> [PipelinedLoopHls; 4] {
        let n = self.pixels;
        [
            // noise filter: 9-deep window sort network per pixel
            PipelinedLoopHls::new(n, 6, 12, 24, 0, self.spec),
            // histogram: one increment per pixel
            PipelinedLoopHls::new(n, 1, 3, 2, 0, self.spec),
            // CDF scan over the 256 bins + LUT build (one divide → 4 DSPs)
            PipelinedLoopHls::new(LEVELS as u64, 1, 6, 6, 4, self.spec),
            // remap: one table lookup per pixel
            PipelinedLoopHls::new(n, 1, 2, 2, 0, self.spec),
        ]
    }

    fn fixed_to_intensity(&self, raw: u64) -> u8 {
        let bits = self.spec.total_bits();
        let shift = 64 - bits;
        let signed = ((raw << shift) as i64) >> shift;
        let v = self.spec.dequantize(signed);
        (v.clamp(0.0, 1.0) * 255.0).round() as u8
    }

    fn intensity_to_fixed(&self, p: u8) -> u64 {
        let raw = self.spec.quantize(p as f64 / 255.0);
        (raw as u64) & ((1u64 << self.spec.total_bits()) - 1)
    }
}

impl AcceleratorKernel for NightVisionKernel {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> &str {
        // Every instance runs the same fixed pixel pipeline, so all
        // Night-Vision tiles are interchangeable under failover.
        "night_vision"
    }

    fn input_values(&self) -> u64 {
        self.pixels
    }

    fn output_values(&self) -> u64 {
        self.pixels
    }

    fn data_bits(&self) -> u32 {
        self.spec.total_bits()
    }

    fn compute(&self, input: &[u64]) -> Vec<u64> {
        let pixels: Vec<u8> = input.iter().map(|&v| self.fixed_to_intensity(v)).collect();
        let filtered = noise_filter(&pixels);
        let bins = histogram(&filtered);
        let equalized = equalize(&filtered, &bins);
        equalized
            .into_iter()
            .map(|p| self.intensity_to_fixed(p))
            .collect()
    }

    fn latency(&self) -> u64 {
        // The three loops run as a dataflow chain on distinct pixel
        // streams; one frame's latency is the sum of loop latencies.
        self.hls_models().iter().map(|m| m.latency()).sum()
    }

    fn initiation_interval(&self) -> u64 {
        self.hls_models()
            .iter()
            .map(|m| m.initiation_interval())
            .max()
            .expect("non-empty")
    }

    fn resources(&self) -> Resources {
        let mut r: Resources = self.hls_models().iter().map(|m| m.resources()).sum();
        // Line buffers (filter) + histogram bins + LUT storage in BRAM,
        // plus the window shift registers, inter-kernel dataflow FIFOs and
        // the 9-element compare-exchange network that the per-loop model
        // does not capture.
        r.brams += 6;
        r += Resources::new(12_000, 14_000, 0, 0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{night_vision, to_intensity};
    use crate::svhn::SvhnGenerator;

    #[test]
    fn io_sizes() {
        let k = NightVisionKernel::new("nv");
        assert_eq!(k.input_values(), 1024);
        assert_eq!(k.output_values(), 1024);
        assert_eq!(k.data_bits(), 16);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        NightVisionKernel::with_pixels("nv", 1000);
    }

    #[test]
    fn compute_matches_software_reference() {
        let mut gen = SvhnGenerator::new(9);
        let img = SvhnGenerator::darken(&gen.sample().image, 0.3);
        let spec = FixedSpec::HLS4ML_DEFAULT;
        let k = NightVisionKernel::new("nv");
        let wire: Vec<u64> = img
            .iter()
            .map(|&v| (spec.quantize(v as f64) as u64) & 0xffff)
            .collect();
        let out = k.compute(&wire);
        assert_eq!(out.len(), 1024);
        // Compare against the float reference at 8-bit intensity level.
        let reference = to_intensity(&night_vision(&img));
        let hw: Vec<u8> = out
            .iter()
            .map(|&v| {
                let signed = ((v << 48) as i64) >> 48;
                (spec.dequantize(signed).clamp(0.0, 1.0) * 255.0).round() as u8
            })
            .collect();
        let close = hw
            .iter()
            .zip(&reference)
            .filter(|(a, b)| (**a as i32 - **b as i32).abs() <= 2)
            .count();
        // Fixed-point quantization of [0,1] at 10 fractional bits resolves
        // ~4 intensity steps; allow small deviations but require bulk
        // agreement.
        assert!(close > 900, "only {close}/1024 pixels match the reference");
    }

    #[test]
    fn latency_scales_with_pixels() {
        let small = NightVisionKernel::with_pixels("s", 256).latency();
        let large = NightVisionKernel::with_pixels("l", 1024).latency();
        assert!(large > small * 3);
        // Filter at II=6 plus two II=1 passes plus the CDF scan.
        assert!(large > 8 * 1024 && large < 9 * 1024);
    }

    #[test]
    fn resources_include_bram_buffers() {
        let k = NightVisionKernel::new("nv");
        let r = k.resources();
        assert!(r.brams >= 6);
        assert!(r.luts > 0);
        assert!(r.dsps >= 4);
    }
}
