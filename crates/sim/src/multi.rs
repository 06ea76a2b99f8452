//! A k-server busy resource.
//!
//! [`MultiResource`] models anything that does `k` things at a time with
//! a shared FIFO queue: work arriving while every server is busy starts
//! when the first one frees up. With one server it is the single-threaded
//! engine's CPU, which a PIO injection or a memcpy monopolizes — the
//! reason multi-rail does not help below 8 KB segments. The paper's
//! testbed nodes were *dual-core* Opterons, but the 2007 implementation
//! was single-threaded; §4 announces "a multi-threaded implementation
//! that will process parallel PIO transfers on multiprocessor machines".
//! More servers let the simulation explore that future-work design point
//! (see the `ablate_cores` bench).

use crate::time::{SimDuration, SimTime};

/// Outcome of a [`MultiResource::acquire`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When the work actually starts (>= request time).
    pub start: SimTime,
    /// When the work completes and its server frees up.
    pub end: SimTime,
}

/// A resource with `k` identical servers and FIFO assignment.
#[derive(Clone, Debug)]
pub struct MultiResource {
    /// Per-server next-free instants.
    free_at: Vec<SimTime>,
    busy_total: SimDuration,
    name: &'static str,
}

impl MultiResource {
    /// Create a `servers`-wide resource, free immediately.
    pub fn new(name: &'static str, servers: usize) -> Self {
        assert!(servers >= 1, "{name}: need at least one server");
        MultiResource {
            free_at: vec![SimTime::ZERO; servers],
            busy_total: SimDuration::ZERO,
            name,
        }
    }

    /// Resource name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Request `duration` of exclusive use of *one* server, starting no
    /// earlier than `now`. The earliest-free server is chosen (ties by
    /// lowest index, deterministically).
    pub fn acquire(&mut self, now: SimTime, duration: SimDuration) -> Grant {
        let (idx, &free) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(i, &t)| (t, *i))
            .expect("at least one server");
        let start = free.max(now);
        let end = start + duration;
        self.free_at[idx] = end;
        self.busy_total += duration;
        Grant { start, end }
    }

    /// Aggregate utilization over `[0, now]` across all servers.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        let capacity = now.as_ps() as f64 * self.servers() as f64;
        (self.busy_total.as_ps() as f64 / capacity).min(1.0)
    }

    /// Total busy time summed over servers.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_server_matches_busy_resource_semantics() {
        let mut r = MultiResource::new("cpu", 1);
        let g1 = r.acquire(SimTime::ZERO, SimDuration::from_ns(100));
        let g2 = r.acquire(SimTime::ZERO, SimDuration::from_ns(50));
        assert_eq!(g1.end, SimTime::from_ns(100));
        assert_eq!(g2.start, SimTime::from_ns(100), "serializes on one server");
        assert_eq!(g2.end, SimTime::from_ns(150));
    }

    #[test]
    fn one_server_starts_a_job_when_it_is_requested_if_free() {
        let mut r = MultiResource::new("cpu", 1);
        let g = r.acquire(SimTime::from_ns(100), SimDuration::from_ns(50));
        assert_eq!(
            (g.start, g.end),
            (SimTime::from_ns(100), SimTime::from_ns(150))
        );
        // After an idle gap, the next job starts when it is requested.
        let g = r.acquire(SimTime::from_ns(500), SimDuration::from_ns(10));
        assert_eq!(g.start, SimTime::from_ns(500));
        // A zero-length job leaves the server free at its instant.
        let g = r.acquire(SimTime::from_ns(600), SimDuration::ZERO);
        assert_eq!(g.start, g.end);
    }

    #[test]
    fn one_server_utilization() {
        let mut r = MultiResource::new("nic", 1);
        assert_eq!(r.utilization(SimTime::ZERO), 0.0);
        r.acquire(SimTime::ZERO, SimDuration::from_ns(30));
        r.acquire(SimTime::from_ns(70), SimDuration::from_ns(30));
        // 60 ns busy out of 100 ns elapsed.
        let u = r.utilization(SimTime::from_ns(100));
        assert!((u - 0.6).abs() < 1e-9, "utilization {u}");
        assert_eq!(r.busy_total(), SimDuration::from_ns(60));
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = MultiResource::new("cpu", 2);
        let g1 = r.acquire(SimTime::ZERO, SimDuration::from_ns(100));
        let g2 = r.acquire(SimTime::ZERO, SimDuration::from_ns(100));
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g2.start, SimTime::ZERO, "second core takes the second job");
        let g3 = r.acquire(SimTime::ZERO, SimDuration::from_ns(10));
        assert_eq!(g3.start, SimTime::from_ns(100), "third job queues");
    }

    #[test]
    fn picks_earliest_free_server() {
        let mut r = MultiResource::new("cpu", 2);
        r.acquire(SimTime::ZERO, SimDuration::from_ns(100)); // server 0 till 100
        r.acquire(SimTime::ZERO, SimDuration::from_ns(30)); // server 1 till 30
        let g = r.acquire(SimTime::from_ns(10), SimDuration::from_ns(5));
        assert_eq!(g.start, SimTime::from_ns(30), "server 1 frees first");
    }

    #[test]
    fn utilization_spans_all_servers() {
        let mut r = MultiResource::new("cpu", 2);
        r.acquire(SimTime::ZERO, SimDuration::from_ns(100));
        // 100 ns busy across 2 servers over 100 ns: 50%.
        let u = r.utilization(SimTime::from_ns(100));
        assert!((u - 0.5).abs() < 1e-9, "{u}");
    }

    #[test]
    fn deterministic_tie_breaking() {
        let run = || {
            let mut r = MultiResource::new("cpu", 3);
            let mut ends = Vec::new();
            for i in 0..10u64 {
                let g = r.acquire(SimTime::ZERO, SimDuration::from_ns(10 + i));
                ends.push((g.start, g.end));
            }
            ends
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        MultiResource::new("cpu", 0);
    }
}
