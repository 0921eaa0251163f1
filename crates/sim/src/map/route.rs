//! Route planning (A* over the lane graph) and route following support.
//!
//! Missions in AVFI are "navigating between way points in the simulated
//! world". A [`Route`] is the planned lane sequence densified into evenly
//! spaced waypoints, each annotated with the high-level [`Command`] that the
//! conditional imitation-learning agent receives (follow lane / turn left /
//! turn right / go straight — exactly the command vocabulary of Codevilla et
//! al.).

use crate::map::{LaneId, LaneKind, Map, TurnKind};
use crate::math::Vec2;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// High-level navigation command for the driving agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Command {
    /// Follow the current lane.
    #[default]
    Follow,
    /// Turn left at the upcoming intersection.
    Left,
    /// Turn right at the upcoming intersection.
    Right,
    /// Go straight through the upcoming intersection.
    Straight,
}

impl Command {
    /// All commands, in the branch order used by the conditional network.
    pub const ALL: [Command; 4] = [
        Command::Follow,
        Command::Left,
        Command::Right,
        Command::Straight,
    ];

    /// Branch index of this command in the conditional network head.
    pub fn index(self) -> usize {
        match self {
            Command::Follow => 0,
            Command::Left => 1,
            Command::Right => 2,
            Command::Straight => 3,
        }
    }
}

impl From<TurnKind> for Command {
    fn from(t: TurnKind) -> Self {
        match t {
            TurnKind::Straight => Command::Straight,
            TurnKind::Left => Command::Left,
            TurnKind::Right => Command::Right,
        }
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Command::Follow => "follow",
            Command::Left => "left",
            Command::Right => "right",
            Command::Straight => "straight",
        };
        f.write_str(s)
    }
}

/// One densified route waypoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// World position.
    pub position: Vec2,
    /// Lane the waypoint lies on.
    pub lane: LaneId,
    /// Command active at this waypoint.
    pub command: Command,
    /// Cumulative arc length from the route start.
    pub s: f64,
    /// Local speed limit, m/s.
    pub speed_limit: f64,
}

/// A planned route: an ordered lane sequence and its densified waypoints.
#[derive(Debug, Clone)]
pub struct Route {
    lanes: Vec<LaneId>,
    waypoints: Vec<Waypoint>,
    length: f64,
}

/// Spacing between densified waypoints, meters.
pub const WAYPOINT_SPACING: f64 = 1.5;

/// How far before a connector its command becomes active, meters.
pub const COMMAND_LOOKAHEAD: f64 = 18.0;

impl Route {
    /// The lane sequence.
    #[inline]
    pub fn lanes(&self) -> &[LaneId] {
        &self.lanes
    }

    /// The densified waypoints.
    #[inline]
    pub fn waypoints(&self) -> &[Waypoint] {
        &self.waypoints
    }

    /// Total route length, meters.
    #[inline]
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Route start position.
    pub fn start(&self) -> Vec2 {
        self.waypoints[0].position
    }

    /// Route goal position.
    pub fn goal(&self) -> Vec2 {
        self.waypoints.last().expect("route is non-empty").position
    }
}

/// Plans the shortest lane-graph route between two lanes.
///
/// Returns `None` when the goal is unreachable. `start_s` is the arc length
/// on the start lane where the vehicle currently is; waypoints before it are
/// trimmed.
pub fn plan_route(map: &Map, start: LaneId, start_s: f64, goal: LaneId) -> Option<Route> {
    let lane_seq = shortest_lane_path(map, start, goal)?;
    Some(densify(map, &lane_seq, start_s))
}

/// A* over the lane graph with Euclidean distance-to-goal heuristic.
fn shortest_lane_path(map: &Map, start: LaneId, goal: LaneId) -> Option<Vec<LaneId>> {
    #[derive(PartialEq)]
    struct Node {
        f: f64,
        lane: LaneId,
    }
    impl Eq for Node {}
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> Ordering {
            // Min-heap on f.
            other
                .f
                .partial_cmp(&self.f)
                .unwrap_or(Ordering::Equal)
                .then_with(|| self.lane.cmp(&other.lane))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    let goal_pos = map.lane(goal).end();
    let h = |l: LaneId| map.lane(l).end().distance(goal_pos);
    let mut dist: HashMap<LaneId, f64> = HashMap::new();
    let mut prev: HashMap<LaneId, LaneId> = HashMap::new();
    let mut heap = BinaryHeap::new();
    dist.insert(start, 0.0);
    heap.push(Node {
        f: h(start),
        lane: start,
    });
    while let Some(Node { lane, .. }) = heap.pop() {
        if lane == goal {
            let mut path = vec![goal];
            let mut cur = goal;
            while let Some(&p) = prev.get(&cur) {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        let d = dist[&lane];
        for &next in map.successors(lane) {
            let nd = d + map.lane(next).length();
            if dist.get(&next).is_none_or(|&old| nd < old) {
                dist.insert(next, nd);
                prev.insert(next, lane);
                heap.push(Node {
                    f: nd + h(next),
                    lane: next,
                });
            }
        }
    }
    None
}

/// Densifies a lane sequence into evenly spaced annotated waypoints.
fn densify(map: &Map, lane_seq: &[LaneId], start_s: f64) -> Route {
    // First pass: raw waypoints with per-lane commands.
    let mut raw: Vec<Waypoint> = Vec::new();
    let mut s_total = 0.0;
    for (idx, &lid) in lane_seq.iter().enumerate() {
        let lane = map.lane(lid);
        let from_s = if idx == 0 {
            start_s.min(lane.length())
        } else {
            0.0
        };
        let base_cmd = match lane.kind() {
            LaneKind::Connector => lane.turn().map(Command::from).unwrap_or(Command::Follow),
            LaneKind::Drive => Command::Follow,
        };
        let mut s = from_s;
        loop {
            raw.push(Waypoint {
                position: lane.point_at(s),
                lane: lid,
                command: base_cmd,
                s: s_total + (s - from_s),
                speed_limit: lane.speed_limit(),
            });
            if s >= lane.length() {
                break;
            }
            s = (s + WAYPOINT_SPACING).min(lane.length());
        }
        s_total += lane.length() - from_s;
    }
    // Second pass: propagate connector commands backwards so the agent gets
    // advance notice before entering the intersection.
    let n = raw.len();
    let mut cmds: Vec<Command> = raw.iter().map(|w| w.command).collect();
    for i in 0..n {
        if raw[i].command != Command::Follow {
            let start_s = raw[i].s;
            let mut j = i;
            while j > 0 && start_s - raw[j - 1].s <= COMMAND_LOOKAHEAD {
                j -= 1;
                if raw[j].command == Command::Follow {
                    cmds[j] = raw[i].command;
                }
            }
        }
    }
    for (w, c) in raw.iter_mut().zip(cmds) {
        w.command = c;
    }
    let length = raw.last().map(|w| w.s).unwrap_or(0.0);
    Route {
        lanes: lane_seq.to_vec(),
        waypoints: raw,
        length,
    }
}

/// Incremental route follower: tracks progress monotonically and answers
/// lookahead queries for the controllers.
#[derive(Debug, Clone)]
pub struct RouteTracker {
    route: Route,
    index: usize,
}

impl RouteTracker {
    /// Creates a tracker at the route start.
    pub fn new(route: Route) -> Self {
        RouteTracker { route, index: 0 }
    }

    /// The tracked route.
    #[inline]
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// Index of the current waypoint.
    #[inline]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Advances the tracked position to the waypoint nearest `p`, searching
    /// forward within a window (progress never moves backwards).
    pub fn update(&mut self, p: Vec2) {
        const WINDOW: usize = 40;
        let wps = self.route.waypoints();
        let end = (self.index + WINDOW).min(wps.len());
        let mut best = self.index;
        let mut best_d = f64::INFINITY;
        for (i, w) in wps[self.index..end].iter().enumerate() {
            let d = w.position.distance_sq(p);
            if d < best_d {
                best_d = d;
                best = self.index + i;
            }
        }
        self.index = best;
    }

    /// Current waypoint.
    pub fn current(&self) -> &Waypoint {
        &self.route.waypoints()[self.index]
    }

    /// Waypoint roughly `dist` meters ahead of the current one (clamped to
    /// the goal).
    pub fn lookahead(&self, dist: f64) -> &Waypoint {
        let wps = self.route.waypoints();
        let target_s = wps[self.index].s + dist;
        let mut i = self.index;
        while i + 1 < wps.len() && wps[i].s < target_s {
            i += 1;
        }
        &wps[i]
    }

    /// Active command (at the current waypoint).
    pub fn command(&self) -> Command {
        self.current().command
    }

    /// Remaining distance to the goal along the route, meters.
    pub fn remaining(&self) -> f64 {
        self.route.length() - self.current().s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::town::{TownConfig, TownGenerator};

    fn town() -> Map {
        TownGenerator::new(TownConfig::grid(3, 3)).generate()
    }

    fn first_drive(map: &Map) -> LaneId {
        map.lanes()
            .iter()
            .find(|l| l.kind() == LaneKind::Drive)
            .unwrap()
            .id()
    }

    #[test]
    fn plan_to_self_is_trivial() {
        let map = town();
        let l = first_drive(&map);
        let r = plan_route(&map, l, 0.0, l).expect("route to self");
        assert_eq!(r.lanes(), &[l]);
        assert!(r.length() > 0.0);
    }

    #[test]
    fn plan_reaches_distant_lane() {
        let map = town();
        let start = first_drive(&map);
        // Pick the drive lane whose start is farthest from ours.
        let sp = map.lane(start).start();
        let goal = map
            .lanes()
            .iter()
            .filter(|l| l.kind() == LaneKind::Drive)
            .max_by(|a, b| {
                a.start()
                    .distance(sp)
                    .partial_cmp(&b.start().distance(sp))
                    .unwrap()
            })
            .unwrap()
            .id();
        let r = plan_route(&map, start, 0.0, goal).expect("route exists");
        assert!(r.lanes().len() >= 3);
        assert_eq!(*r.lanes().first().unwrap(), start);
        assert_eq!(*r.lanes().last().unwrap(), goal);
        // Waypoints are monotone in s and contiguous in space.
        let wps = r.waypoints();
        for w in wps.windows(2) {
            assert!(w[1].s > w[0].s - 1e-9);
            assert!(w[0].position.distance(w[1].position) < 3.0 * WAYPOINT_SPACING);
        }
    }

    #[test]
    fn commands_appear_before_turns() {
        let map = town();
        let start = first_drive(&map);
        let sp = map.lane(start).start();
        let goal = map
            .lanes()
            .iter()
            .filter(|l| l.kind() == LaneKind::Drive)
            .max_by(|a, b| {
                a.start()
                    .distance(sp)
                    .partial_cmp(&b.start().distance(sp))
                    .unwrap()
            })
            .unwrap()
            .id();
        let r = plan_route(&map, start, 0.0, goal).unwrap();
        let wps = r.waypoints();
        // Find a connector waypoint with a turn command and check the
        // command is already active a few waypoints earlier.
        let turn_idx = wps.iter().position(|w| {
            map.lane(w.lane).kind() == LaneKind::Connector && w.command != Command::Follow
        });
        if let Some(i) = turn_idx {
            let back = (1.0_f64).max(5.0 / WAYPOINT_SPACING) as usize;
            if i > back {
                assert_eq!(
                    wps[i - back].command,
                    wps[i].command,
                    "command not propagated back"
                );
            }
        }
    }

    #[test]
    fn tracker_is_monotone() {
        let map = town();
        let start = first_drive(&map);
        let sp = map.lane(start).start();
        let goal = map
            .lanes()
            .iter()
            .filter(|l| l.kind() == LaneKind::Drive)
            .max_by(|a, b| {
                a.start()
                    .distance(sp)
                    .partial_cmp(&b.start().distance(sp))
                    .unwrap()
            })
            .unwrap()
            .id();
        let r = plan_route(&map, start, 0.0, goal).unwrap();
        let wps: Vec<Vec2> = r.waypoints().iter().map(|w| w.position).collect();
        let mut tracker = RouteTracker::new(r);
        let mut last = 0;
        for p in wps.iter().step_by(3) {
            tracker.update(*p);
            assert!(tracker.index() >= last);
            last = tracker.index();
        }
        assert!(tracker.index() + 1 >= wps.len());
        assert!(tracker.remaining() < 1.0);
    }

    #[test]
    fn lookahead_clamps_at_goal() {
        let map = town();
        let l = first_drive(&map);
        let r = plan_route(&map, l, 0.0, l).unwrap();
        let t = RouteTracker::new(r);
        let w = t.lookahead(1e6);
        assert_eq!(w.position, t.route().goal());
    }
}
