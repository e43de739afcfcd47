//! Host calibration: a fixed kernel timed beside the work.
//!
//! On a shared host the same work can take a quarter longer from one
//! minute to the next. The kernel allocates, touches and frees 20 000
//! small boxes and then runs a fixed integer hash loop, so it slows down
//! with the allocator, cache and core-speed drift the workloads see. It
//! never calls program code.
//!
//! The clock runs the kernel before the first op and again whenever
//! 100 ms of workload time have passed since the last kernel run. Ops
//! between two kernel runs form a block, and each op's wall time is
//! scaled by `REFERENCE_KERNEL_MS / mean(kernel before, kernel after)`.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the reference host (2 vCPU, release
/// build), frozen so that calibrated times of different runs and
/// commits share one scale. Mirrored in `RECORDS.json`.
pub const REFERENCE_KERNEL_MS: f64 = 1.33;

/// Boxes allocated and freed per kernel repetition.
const BOXES: usize = 20_000;
/// Integer hash steps per kernel repetition.
const HASH_STEPS: u64 = 200_000;
/// Repetitions per kernel run; the run reports their median.
const REPS: usize = 3;
/// Workload time between kernel runs.
const BLOCK_NS: u128 = 100_000_000;

/// One kernel repetition, in milliseconds.
fn kernel_once() -> f64 {
    let start = Instant::now();
    let boxes: Vec<Box<[u64; 4]>> = (0..BOXES as u64).map(|i| Box::new([i; 4])).collect();
    black_box(boxes.iter().map(|b| b[1]).sum::<u64>());
    drop(boxes);
    let mut x = 1u64;
    for i in 0..HASH_STEPS {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 17);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// One kernel run: the median of [`REPS`] repetitions.
pub fn kernel_ms() -> f64 {
    let times: Vec<f64> = (0..REPS).map(|_| kernel_once()).collect();
    crate::stats::median(&times)
}

/// Where a timed op ran: its raw wall time and the calibration block.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// Uncalibrated wall time in milliseconds.
    pub raw_ms: f64,
    /// Index of the kernel run that opened the op's block.
    pub block: usize,
}

/// Times ops and interleaves kernel runs between them.
pub struct Clock {
    kernel_ms: Vec<f64>,
    since_kernel_ns: u128,
}

impl Clock {
    /// A clock whose first block is opened by a kernel run.
    pub fn new() -> Clock {
        // Untimed runs warm the allocator and the caches first.
        kernel_ms();
        kernel_ms();
        Clock {
            kernel_ms: vec![kernel_ms()],
            since_kernel_ns: 0,
        }
    }

    /// Runs `f` as one timed op.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Stamp) {
        if self.since_kernel_ns >= BLOCK_NS {
            self.kernel_ms.push(kernel_ms());
            self.since_kernel_ns = 0;
        }
        let start = Instant::now();
        let r = f();
        let elapsed = start.elapsed();
        self.since_kernel_ns += elapsed.as_nanos();
        let stamp = Stamp {
            raw_ms: elapsed.as_secs_f64() * 1e3,
            block: self.kernel_ms.len() - 1,
        };
        (r, stamp)
    }

    /// Closes the last block with a final kernel run.
    pub fn finish(mut self) -> Calibration {
        self.kernel_ms.push(kernel_ms());
        Calibration {
            kernel_ms: self.kernel_ms,
            reference_ms: REFERENCE_KERNEL_MS,
        }
    }
}

/// The kernel times of a finished run.
pub struct Calibration {
    kernel_ms: Vec<f64>,
    reference_ms: f64,
}

impl Calibration {
    /// The scale factor for ops of `block`.
    pub fn factor(&self, block: usize) -> f64 {
        let around = (self.kernel_ms[block] + self.kernel_ms[block + 1]) / 2.0;
        self.reference_ms / around
    }

    /// An op's calibrated time in milliseconds.
    pub fn ms(&self, s: Stamp) -> f64 {
        s.raw_ms * self.factor(s.block)
    }

    /// Median kernel time of the run (raw, for converting back).
    pub fn median_kernel_ms(&self) -> f64 {
        crate::stats::median(&self.kernel_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_uses_the_kernels_around_the_block() {
        let cal = Calibration {
            kernel_ms: vec![2.0, 4.0, 1.0],
            reference_ms: 1.5,
        };
        // Block 0 sits between 2.0 and 4.0: mean 3.0, factor 0.5.
        let s = Stamp {
            raw_ms: 10.0,
            block: 0,
        };
        assert!((cal.ms(s) - 5.0).abs() < 1e-12);
        // Block 1 sits between 4.0 and 1.0: mean 2.5, factor 0.6.
        assert!((cal.factor(1) - 0.6).abs() < 1e-12);
        assert!((cal.median_kernel_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_host_twice_as_slow_reads_the_same() {
        let fast = Calibration {
            kernel_ms: vec![1.0, 1.0],
            reference_ms: 1.0,
        };
        let slow = Calibration {
            kernel_ms: vec![2.0, 2.0],
            reference_ms: 1.0,
        };
        let op = |raw_ms| Stamp { raw_ms, block: 0 };
        assert_eq!(fast.ms(op(3.0)), slow.ms(op(6.0)));
    }

    #[test]
    fn kernel_time_is_positive_and_finite() {
        let k = kernel_ms();
        assert!(k.is_finite() && k > 0.0, "{k}");
    }

    #[test]
    fn reference_matches_records() {
        let records = include_str!("../RECORDS.json");
        let needle = format!("\"reference_kernel_ms\": {REFERENCE_KERNEL_MS:?}");
        assert!(records.contains(&needle), "RECORDS.json lacks {needle}");
    }
}
