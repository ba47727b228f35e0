//! Host-speed calibration.
//!
//! The benchmark shares its cores with other tenants, whose load slows
//! the simulator by up to 1.8× within seconds and drifts over minutes.
//! A fixed loop of the benchmark's own is timed next to every piece of
//! work an end-to-end metric times. The loop allocates, fills and frees
//! short buffers, as the simulator does for its per-cycle state; of the
//! loops tried (ALU work, pointer chases, hash lookups, a register-machine
//! interpreter, buffer refills), its speed follows the simulator's under
//! that load most closely, with a correlation of about 0.96 and a slope
//! of about 1 over 2.5-second windows. Each buffer is freed by the
//! iteration that allocates its size again, so every allocation is
//! served from the allocator's per-thread cache whatever the rest of the
//! heap holds.
//!
//! A sample's time over [`NOMINAL_NS`], taken as the median of the last
//! [`WINDOW`] samples so that one sample an interrupt or a context switch
//! hit does not count, is the host's *slowness* at that moment. A piece
//! of work's host time divided by it is its *reference time*: the time
//! it would have taken on the reference host at its usual speed. The loop uses
//! nothing from the crates under test, so a change to them moves the
//! reference time exactly as it moves the host time.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Buffers allocated per sample.
pub const ALLOCS: usize = 16_000;

/// Time of one sample on the reference host (2-vCPU Xeon VM, release
/// build), the median over minutes of its usual load, in ns.
pub const NOMINAL_NS: f64 = 400_000.0;

/// Samples the slowness is the median of.
pub const WINDOW: usize = 5;

/// Buffers alive at once; a multiple of the 16 buffer sizes.
const SLOTS: usize = 64;

/// The calibration loop's live buffers and recent samples.
#[derive(Debug, Default)]
pub struct Calibrator {
    slots: Vec<Vec<u64>>,
    recent: VecDeque<f64>,
}

impl Calibrator {
    /// A calibrator with no sample taken yet.
    #[must_use]
    pub fn new() -> Calibrator {
        Calibrator { slots: vec![Vec::new(); SLOTS], recent: VecDeque::new() }
    }

    /// Runs the loop once and returns the host's slowness: the median of
    /// the last [`WINDOW`] samples' times over [`NOMINAL_NS`].
    pub fn slowness(&mut self) -> f64 {
        let start = Instant::now();
        self.churn(ALLOCS);
        if self.recent.len() == WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(start.elapsed().as_nanos() as f64 / NOMINAL_NS);
        median(self.recent.make_contiguous())
    }

    fn churn(&mut self, allocs: usize) {
        for k in 0..allocs {
            let buffer = vec![k as u64; 8 + k % 16];
            self.slots[k % SLOTS] = black_box(buffer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_a_running_median() {
        let mut calib = Calibrator::new();
        for _ in 0..2 * WINDOW {
            assert!(calib.slowness() > 0.0);
        }
        assert_eq!(calib.recent.len(), WINDOW);
    }
}
