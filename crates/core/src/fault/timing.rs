//! Timing faults: delays, drops and reordering between components.
//!
//! "AVFI injects timing faults into the communication paths of the
//! network, resulting in (a) delays in flow of data from one component of
//! the AV system to another, (b) loss of data, or (c) out-of-order
//! delivery of the data packets. For example, AVFI pauses the output of
//! IL-CNN for k frames and either replays or drops the outputs."
//!
//! The paper's Figure 4 sweeps the *output delay* between the ADA and
//! actuation over {0, 5, 10, 20, 30} frames at 15 FPS.

use avfi_sim::physics::VehicleControl;
use rand::rngs::StdRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A timing-fault plan on the command path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TimingFault {
    /// The actuation applies the command computed `frames` frames ago
    /// (pipeline delay). Until the pipe fills, the vehicle coasts.
    OutputDelay {
        /// Delay in frames (15 frames = 1 s).
        frames: usize,
    },
    /// Each frame's command is lost with probability `p`; the actuator
    /// holds the last delivered command (replay).
    DropFrames {
        /// Per-frame loss probability.
        p: f64,
    },
    /// Commands are delivered out of order within a sliding window of
    /// `window` frames.
    Reorder {
        /// Shuffle window length in frames.
        window: usize,
    },
}

impl TimingFault {
    /// Label for tables.
    pub fn label(&self) -> String {
        match self {
            TimingFault::OutputDelay { frames } => format!("delay {frames}f"),
            TimingFault::DropFrames { p } => format!("drop p={p}"),
            TimingFault::Reorder { window } => format!("reorder w={window}"),
        }
    }
}

/// Stateful executor for a timing fault on the command stream.
#[derive(Debug)]
pub struct TimingChannel {
    fault: TimingFault,
    queue: VecDeque<VehicleControl>,
    last_delivered: VehicleControl,
}

impl TimingChannel {
    /// Creates the channel for a fault plan.
    pub fn new(fault: TimingFault) -> Self {
        TimingChannel {
            fault,
            queue: VecDeque::new(),
            last_delivered: VehicleControl::coast(),
        }
    }

    /// Pushes the command computed this frame and returns the command the
    /// actuator receives this frame.
    pub fn transfer(&mut self, fresh: VehicleControl, rng: &mut StdRng) -> VehicleControl {
        match self.fault {
            TimingFault::OutputDelay { frames } => {
                if frames == 0 {
                    return fresh;
                }
                self.queue.push_back(fresh);
                if self.queue.len() > frames {
                    let out = self.queue.pop_front().expect("len > frames >= 1");
                    self.last_delivered = out;
                    out
                } else {
                    // Pipe still filling: the actuator has nothing newer
                    // than the initial state.
                    self.last_delivered
                }
            }
            TimingFault::DropFrames { p } => {
                if rng.random_range(0.0..1.0) < p {
                    self.last_delivered
                } else {
                    self.last_delivered = fresh;
                    fresh
                }
            }
            TimingFault::Reorder { window } => {
                self.queue.push_back(fresh);
                if self.queue.len() < window.max(1) {
                    return self.last_delivered;
                }
                let idx = rng.random_range(0..self.queue.len());
                let out = self.queue.remove(idx).expect("index in range");
                self.last_delivered = out;
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avfi_sim::rng::stream_rng;

    fn ctrl(steer: f64) -> VehicleControl {
        VehicleControl::new(steer, 0.5, 0.0)
    }

    #[test]
    fn zero_delay_is_transparent() {
        let mut ch = TimingChannel::new(TimingFault::OutputDelay { frames: 0 });
        let mut rng = stream_rng(1, 0);
        for i in 0..5 {
            let c = ctrl(i as f64 * 0.1);
            assert_eq!(ch.transfer(c, &mut rng), c);
        }
    }

    #[test]
    fn delay_shifts_commands_by_k() {
        let k = 3;
        let mut ch = TimingChannel::new(TimingFault::OutputDelay { frames: k });
        let mut rng = stream_rng(2, 0);
        let mut delivered = Vec::new();
        for i in 0..10 {
            delivered.push(ch.transfer(ctrl(i as f64 * 0.1), &mut rng));
        }
        // First k frames coast; afterwards delivery i carries command i-k.
        for d in delivered.iter().take(k) {
            assert_eq!(*d, VehicleControl::coast());
        }
        for (i, d) in delivered.iter().enumerate().skip(k) {
            assert_eq!(*d, ctrl((i - k) as f64 * 0.1), "at frame {i}");
        }
    }

    #[test]
    fn drops_hold_last_command() {
        let mut ch = TimingChannel::new(TimingFault::DropFrames { p: 1.0 });
        let mut rng = stream_rng(3, 0);
        let first = ch.transfer(ctrl(0.5), &mut rng);
        // p = 1: everything dropped, holds initial coast forever.
        assert_eq!(first, VehicleControl::coast());
        assert_eq!(ch.transfer(ctrl(0.9), &mut rng), VehicleControl::coast());
    }

    #[test]
    fn drop_rate_statistics() {
        let mut ch = TimingChannel::new(TimingFault::DropFrames { p: 0.3 });
        let mut rng = stream_rng(4, 0);
        let mut delivered_fresh = 0;
        for i in 0..2000 {
            let c = ctrl((i % 100) as f64 / 100.0);
            if ch.transfer(c, &mut rng) == c {
                delivered_fresh += 1;
            }
        }
        let rate = delivered_fresh as f64 / 2000.0;
        assert!((rate - 0.7).abs() < 0.05, "fresh rate={rate}");
    }

    #[test]
    fn reorder_scrambles_but_conserves_commands() {
        let mut ch = TimingChannel::new(TimingFault::Reorder { window: 4 });
        let mut rng = stream_rng(5, 0);
        let n = 200usize;
        // Encode the frame index in the steer value (kept within [-1, 1]
        // so clamping preserves identity).
        let encode = |i: usize| (i % 100) as f64 / 100.0;
        let mut delivered: Vec<f64> = Vec::new();
        for i in 0..n {
            delivered.push(ch.transfer(ctrl(encode(i)), &mut rng).steer);
        }
        // The first window-1 frames hold coast (steer 0); afterwards every
        // delivery is a real command and no command is duplicated beyond
        // what the hold phase produces.
        let fifo: Vec<f64> = (0..n).map(encode).collect();
        assert_ne!(delivered, fifo, "reorder produced FIFO order");
        // Every delivered non-zero steer was actually sent.
        for d in delivered.iter().filter(|d| **d != 0.0) {
            assert!(fifo.iter().any(|f| (f - d).abs() < 1e-12));
        }
    }
}
