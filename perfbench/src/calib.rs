//! A fixed reference computation that gauges the host's current speed.
//!
//! The benchmark's host is a shared virtual machine whose speed changes
//! by tens of percent within seconds and between runs minutes apart,
//! and the program slows with it: its CPU time grows with its wall time.
//! The reference work shares no code with the program: a seeded walk
//! with data-dependent branches and stores over a 4 MiB table on each of
//! the two vCPUs, so that it meets the same cache and memory contention
//! as the simulator. A [`Gauge`] times one pass right after each
//! repetition of a workload; the repetition's time is scaled by the
//! factor that brings the pass to [`NOMINAL_S`].

use crate::util::{median, ratio};
use std::hint::black_box;
use std::time::Instant;

/// Seconds one reference pass is scaled to.
pub const NOMINAL_S: f64 = 0.1;
/// Threads of one pass: one per vCPU of the two-vCPU host.
const THREADS: usize = 2;
/// Table entries (4 MiB of `u64`).
const TABLE: usize = 1 << 19;
/// Steps of one pass: about 0.1 s on a 2.1 GHz Xeon vCPU.
const STEPS: u64 = 20_000_000;

/// One pass of the reference work over `table`; returns a checksum so
/// that no step can be optimised away.
fn reference_pass(table: &mut [u64], seed: u64) -> u64 {
    for (i, v) in (0u64..).zip(table.iter_mut()) {
        *v = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
    }
    let mut x = seed | 1;
    let mut acc = 0u64;
    for step in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (TABLE - 1);
        let v = table[i];
        if v & 3 == 0 {
            table[i] = v.rotate_left(5) ^ step;
        } else {
            acc = acc.wrapping_add(v >> 3);
        }
    }
    acc ^ table[(acc as usize) & (TABLE - 1)]
}

/// Reference passes timed over one run.
pub struct Gauge {
    /// One table per thread, allocated once so that a pass neither
    /// allocates nor grows the process's memory: the gauge adds a fixed
    /// 8 MiB to `peak_rss_mb`.
    tables: Vec<Vec<u64>>,
    samples: Vec<f64>,
}

impl Gauge {
    /// A gauge with its tables in memory.
    pub fn new() -> Gauge {
        Gauge {
            tables: vec![vec![1; TABLE]; THREADS],
            samples: Vec::new(),
        }
    }

    /// Times one pass on every thread at once and returns the factor
    /// that turns a time measured just before into one at the nominal
    /// host speed.
    pub fn factor(&mut self) -> f64 {
        let begin = Instant::now();
        std::thread::scope(|scope| {
            for (seed, table) in (1u64..).zip(self.tables.iter_mut()) {
                scope.spawn(move || black_box(reference_pass(table, black_box(seed))));
            }
        });
        let seconds = begin.elapsed().as_secs_f64();
        self.samples.push(seconds);
        ratio(NOMINAL_S, seconds)
    }

    /// Median seconds of one pass.
    pub fn reference_s(&self) -> f64 {
        median(&self.samples)
    }
}
