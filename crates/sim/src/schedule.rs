//! Discrete-event scheduler for traffic agents.
//!
//! Instead of stepping every agent every frame, the world asks each agent
//! *when its next decision is due* and parks it in a [`Scheduler`] until
//! that tick. Dormant agents are integrated analytically (constant-velocity
//! coast) when somebody looks at them, so a frame's cost is proportional to
//! the number of agents that actually decide, not to the population.
//!
//! ## Ordering and determinism
//!
//! The heap is keyed by `(tick, agent)` where `agent` is the stable spawn
//! id assigned in spawn order. Ties on the same tick therefore pop in spawn
//! order — exactly the order the legacy per-frame loop iterated the actor
//! vectors — which is the FIFO tie-break that makes the event-driven path
//! degrade to the legacy semantics when every agent is due every tick.
//!
//! Rescheduling uses lazy deletion: `schedule` pushes a fresh heap entry
//! and records the authoritative tick in a side table; stale entries are
//! skipped when popped. The heap never needs a decrease-key operation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sentinel for "not scheduled".
const UNSCHEDULED: u64 = u64::MAX;

/// A binary-heap event queue over dense `u32` agent ids.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Per-agent authoritative wake tick ([`UNSCHEDULED`] when idle).
    /// Heap entries that disagree are stale and skipped on pop.
    slot: Vec<u64>,
}

impl Scheduler {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler::default()
    }

    /// Schedules (or reschedules) `agent` to wake at `tick`, replacing any
    /// previously scheduled wake.
    pub fn schedule(&mut self, agent: u32, tick: u64) {
        let idx = agent as usize;
        if idx >= self.slot.len() {
            self.slot.resize(idx + 1, UNSCHEDULED);
        }
        self.slot[idx] = tick;
        self.heap.push(Reverse((tick, agent)));
    }

    /// Cancels `agent`'s pending wake (no-op when idle). The heap entry is
    /// dropped lazily on pop.
    pub fn deschedule(&mut self, agent: u32) {
        if let Some(s) = self.slot.get_mut(agent as usize) {
            *s = UNSCHEDULED;
        }
    }

    /// Pops the next agent due at or before `now`, in `(tick, spawn id)`
    /// order. Returns `None` when nothing else is due this tick.
    pub fn pop_due(&mut self, now: u64) -> Option<u32> {
        while let Some(&Reverse((tick, agent))) = self.heap.peek() {
            if tick > now {
                return None;
            }
            self.heap.pop();
            if self.slot.get(agent as usize).copied() == Some(tick) {
                self.slot[agent as usize] = UNSCHEDULED;
                return Some(agent);
            }
            // Stale entry (agent was rescheduled or descheduled): skip.
        }
        None
    }

    /// Number of agents with a pending wake.
    pub fn len(&self) -> usize {
        self.slot.iter().filter(|&&t| t != UNSCHEDULED).count()
    }

    /// `true` when no agent is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(s: &mut Scheduler, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(a) = s.pop_due(now) {
            out.push(a);
        }
        out
    }

    #[test]
    fn pops_in_tick_then_spawn_order() {
        let mut s = Scheduler::new();
        s.schedule(3, 5);
        s.schedule(1, 2);
        s.schedule(2, 2);
        s.schedule(0, 2);
        assert_eq!(drain(&mut s, 2), vec![0, 1, 2]);
        assert_eq!(drain(&mut s, 4), Vec::<u32>::new());
        assert_eq!(drain(&mut s, 5), vec![3]);
        assert!(s.is_empty());
    }

    #[test]
    fn same_tick_ties_break_fifo_on_spawn_order() {
        // All agents due on the same tick must pop exactly in spawn order,
        // regardless of insertion order — the compat-mode guarantee.
        let mut s = Scheduler::new();
        for agent in [9, 4, 7, 0, 2, 5, 1, 8, 3, 6] {
            s.schedule(agent, 11);
        }
        assert_eq!(drain(&mut s, 11), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reschedule_overrides_earlier_entry() {
        let mut s = Scheduler::new();
        s.schedule(0, 10);
        s.schedule(0, 3);
        assert_eq!(drain(&mut s, 5), vec![0]);
        // The stale tick-10 entry must not resurface.
        assert_eq!(drain(&mut s, 20), Vec::<u32>::new());
    }

    #[test]
    fn reschedule_later_skips_stale_early_entry() {
        let mut s = Scheduler::new();
        s.schedule(0, 3);
        s.schedule(0, 10);
        assert_eq!(drain(&mut s, 5), Vec::<u32>::new());
        assert_eq!(drain(&mut s, 10), vec![0]);
    }

    #[test]
    fn deschedule_cancels() {
        let mut s = Scheduler::new();
        s.schedule(0, 1);
        s.schedule(1, 1);
        s.deschedule(0);
        assert_eq!(drain(&mut s, 1), vec![1]);
        assert!(s.is_empty());
    }
}
