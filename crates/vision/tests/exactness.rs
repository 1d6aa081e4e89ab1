//! Exactness golden for the Night-Vision accelerator kernel.
//!
//! [`NightVisionKernel::compute`] (noise filter, histogram, equalization
//! and the fixed-point conversions around them) runs on seeded full-range
//! frames, all-0 and all-max frames, and salt-and-pepper frames, at the
//! production 32×32 size and at a few odd square sizes whose borders and
//! interiors differ in proportion. Every output word and every reported
//! latency is folded into one FNV-1a digest and pinned. A host-side
//! rewrite of any of the three kernels must leave the digest untouched.

use esp4ml_soc::AcceleratorKernel;
use esp4ml_vision::NightVisionKernel;

/// Square frame sides: the production 32×32 frame, then odd sizes from
/// all-border (1, 2) to a mostly-interior 33×33.
const SIDES: [u64; 7] = [32, 1, 2, 3, 5, 17, 33];

/// Seeded frames per size (besides the five fixed patterns).
const RANDOM_FRAMES: usize = 4;

/// xorshift64*: a tiny deterministic generator, so the golden does not
/// depend on any external RNG's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The frames one kernel is fed, as 16-bit wire words: all-0, all-`0xffff`
/// (raw −1 in `ap_fixed<16, 6>`), all-1.0 (the brightest intensity), a
/// mid-grey and a dark frame with salt-and-pepper noise, then seeded words
/// over the whole 16-bit range and seeded in-range intensities.
fn frames(pixels: usize, rng: &mut Rng) -> Vec<Vec<u64>> {
    // 1.0 in ap_fixed<16, 6> has raw value 2^10.
    const ONE: u64 = 1 << 10;
    let mut salt_and_pepper = |base: u64| -> Vec<u64> {
        (0..pixels)
            .map(|_| match rng.next() % 8 {
                0 => 0,
                1 => ONE,
                _ => base,
            })
            .collect()
    };
    let mut out = vec![vec![0; pixels], vec![0xffff; pixels], vec![ONE; pixels]];
    out.push(salt_and_pepper(ONE / 2));
    out.push(salt_and_pepper(ONE / 16));
    for i in 0..RANDOM_FRAMES {
        out.push(
            (0..pixels)
                .map(|_| {
                    if i % 2 == 0 {
                        rng.next() & 0xffff
                    } else {
                        rng.next() % (ONE + 1)
                    }
                })
                .collect(),
        );
    }
    out
}

#[test]
fn night_vision_kernel_computes_the_pinned_outputs() {
    let mut rng = Rng(0x5eed_0fe5_b4a1);
    let mut fnv = Fnv::new();
    let mut values = 0;
    for side in SIDES {
        let pixels = side * side;
        let k = NightVisionKernel::with_pixels("nv", pixels);
        fnv.write(&pixels.to_le_bytes());
        for frame in frames(pixels as usize, &mut rng) {
            let out = k.compute(&frame);
            assert_eq!(out.len() as u64, pixels);
            for v in &out {
                assert!(*v <= 0xffff, "output {v:#x} wider than 16 bits");
                fnv.write(&v.to_le_bytes());
            }
            fnv.write(&k.latency().to_le_bytes());
            values += out.len();
        }
    }
    let pixels: u64 = SIDES.iter().map(|s| s * s).sum();
    assert_eq!(values as u64, (5 + RANDOM_FRAMES as u64) * pixels);
    assert_eq!(
        fnv.0, 0x0ddd_4399_ffdf_086f,
        "Night-Vision exactness digest moved"
    );
}
