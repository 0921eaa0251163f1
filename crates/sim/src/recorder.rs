//! Trajectory recorder: per-frame samples of the ego state for post-hoc
//! analysis (TTV computation, debugging, plotting, flight-recorder
//! traces).
//!
//! The recorder has two storage modes:
//!
//! * **linear** — every pushed sample is kept (debug/eval use).
//! * **ring** — a bounded window keeping only the *last* `capacity`
//!   samples (black-box use): memory stays constant no matter how long
//!   the run is, and `dropped()` counts the overwritten prefix.
//!
//! A recorder is reusable across runs: [`Recorder::reset`] clears the
//! contents but keeps the allocation, so campaign workers can run
//! thousands of traced runs without growing a fresh `Vec` each time.

use crate::math::Vec2;
use crate::physics::VehicleControl;
use serde::{Deserialize, Serialize};

/// One recorded frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrajectorySample {
    /// Simulation time, seconds.
    pub time: f64,
    /// Frame number.
    pub frame: u64,
    /// Ego position.
    pub position: Vec2,
    /// Ego heading, radians.
    pub heading: f64,
    /// Ego speed, m/s.
    pub speed: f64,
    /// Control applied this frame.
    pub control: VehicleControl,
}

/// Records ego trajectory samples (linear or bounded-ring storage).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    enabled: bool,
    /// `Some(n)` bounds storage to the last `n` samples (ring mode).
    capacity: Option<usize>,
    samples: Vec<TrajectorySample>,
    /// Next write slot once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl Recorder {
    /// Creates a linear recorder; disabled recorders drop samples (zero
    /// cost for large campaigns).
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            capacity: None,
            samples: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }

    /// Creates an enabled bounded recorder keeping only the last
    /// `capacity` samples (at least 1). Memory is allocated up front and
    /// never grows.
    pub fn ring(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            enabled: true,
            capacity: Some(capacity),
            samples: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
        }
    }

    /// Ring capacity, or `None` in linear mode.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Samples overwritten by the ring (always 0 in linear mode).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears recorded contents while keeping mode, enablement, and the
    /// allocation — the reuse point between runs.
    pub fn reset(&mut self) {
        self.samples.clear();
        self.head = 0;
        self.dropped = 0;
    }

    /// Records one sample (no-op when disabled). In ring mode, once the
    /// buffer is full the oldest sample is overwritten.
    pub fn push(&mut self, sample: TrajectorySample) {
        if !self.enabled {
            return;
        }
        match self.capacity {
            Some(cap) if self.samples.len() == cap => {
                self.samples[self.head] = sample;
                self.head = (self.head + 1) % cap;
                self.dropped += 1;
            }
            _ => self.samples.push(sample),
        }
    }

    /// Recorded samples in **storage** order. In ring mode after a wrap
    /// this is rotated; use [`Recorder::chronological`] for time order.
    pub fn samples(&self) -> &[TrajectorySample] {
        &self.samples
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are held.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Recorded samples in chronological order (handles ring rotation).
    pub fn chronological(&self) -> impl Iterator<Item = &TrajectorySample> {
        let split = if self.samples.len() == self.capacity.unwrap_or(usize::MAX) {
            self.head
        } else {
            0
        };
        self.samples[split..].iter().chain(&self.samples[..split])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, x: f64, v: f64) -> TrajectorySample {
        TrajectorySample {
            time: t,
            frame: (t * 15.0) as u64,
            position: Vec2::new(x, 0.0),
            heading: 0.0,
            speed: v,
            control: VehicleControl::coast(),
        }
    }

    #[test]
    fn disabled_recorder_drops() {
        let mut r = Recorder::new(false);
        r.push(sample(0.0, 0.0, 1.0));
        assert!(r.samples().is_empty());
    }

    #[test]
    fn ring_keeps_last_window() {
        let mut r = Recorder::ring(3);
        for i in 0..7 {
            r.push(sample(i as f64, i as f64, 1.0));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 4);
        let times: Vec<f64> = r.chronological().map(|s| s.time).collect();
        assert_eq!(times, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn ring_never_grows_past_capacity() {
        let mut r = Recorder::ring(5);
        let before = r.samples.capacity();
        for i in 0..1000 {
            r.push(sample(i as f64, 0.0, 0.0));
        }
        assert_eq!(r.len(), 5);
        assert_eq!(r.samples.capacity(), before);
    }

    #[test]
    fn reset_keeps_allocation_and_mode() {
        let mut r = Recorder::ring(4);
        for i in 0..9 {
            r.push(sample(i as f64, 0.0, 0.0));
        }
        let cap_bytes = r.samples.capacity();
        r.reset();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.capacity(), Some(4));
        assert_eq!(r.samples.capacity(), cap_bytes);
        // Refilling after reset behaves like a fresh ring.
        for i in 0..6 {
            r.push(sample(i as f64, 0.0, 0.0));
        }
        let times: Vec<f64> = r.chronological().map(|s| s.time).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0, 5.0]);
    }
}
