//! The placement: which rail may take which work.
//!
//! - **Pinned** (§3.1's reference curves): one rail carries everything
//!   while it is healthy; when it is out of service, whichever healthy
//!   rail is asked serves the backlog instead.
//! - **Any idle rail** (§3.2): "each time a NIC becomes idle, the
//!   strategy code is invoked and simply sends the first available
//!   segment (if any) on the corresponding network".
//! - **Smalls to the fastest rail** (§3.3): "aggregates small messages
//!   as soon as they are submitted, favoring their transfer on the
//!   fastest network … and proceeding afterward in a greedy fashion".
//!   Another idle rail leaves the smalls alone *while the lowest-latency
//!   rail is idle and will pick them up itself*; if that rail is busy,
//!   any idle rail may take them (which also prevents starvation).
//! - **Bound at first sight** — the *anti-pattern* §3.5 argues against
//!   ("the optimization engine is triggered only when one NIC becomes
//!   idle, so we take our scheduling decisions just-in-time"): every
//!   segment is bound to a rail round-robin the first time it is seen,
//!   the way simple bonding layers do, and a rail serves only its own —
//!   so an unlucky large segment lands on the slow rail while the fast
//!   one sits idle. The `ablate_jit` bench measures that cost.

use std::collections::BTreeMap;

use nmad_model::RailId;

use super::{LatencyOrder, RailView, StrategyCtx, TxOp};
use crate::config::EngineConfig;
use crate::request::SegKey;

/// See module docs.
#[derive(Debug)]
pub(super) enum Place {
    /// Everything on this rail, any healthy rail when it is not.
    Pinned(RailId),
    /// Whichever rail is asked takes the work.
    AnyIdle,
    /// Smalls wait for the lowest-latency rail while it is idle.
    SmallsToFastest,
    /// Each segment served only by the rail it was bound to.
    Bound(Binding),
}

impl Place {
    /// Whether `rail` may carry anything at all.
    pub(super) fn admits(&self, rail: RailId, rails: &(impl RailView + ?Sized)) -> bool {
        match *self {
            Place::Pinned(pin) => rail == pin || !rails.ok(pin),
            _ => true,
        }
    }

    /// Eager segments below this many bytes are *small*: they wait for
    /// company and travel aggregated. Above it a segment balances better
    /// than it copies — except on one rail, where nothing balances.
    pub(super) fn small_below(&self, config: &EngineConfig) -> u64 {
        match self {
            Place::Pinned(_) => u64::MAX,
            _ => config.min_chunk as u64,
        }
    }

    /// Whether `rail` may take the waiting smalls now.
    pub(super) fn takes_smalls(
        &self,
        rail: RailId,
        rails: &(impl RailView + ?Sized),
        latency: &LatencyOrder,
    ) -> bool {
        match self {
            Place::SmallsToFastest => {
                let fast = latency.fastest(rails);
                rail == fast || rails.busy(fast)
            }
            _ => true,
        }
    }
}

/// The static round-robin binding: a rail per segment, fixed the first
/// time the segment is seen.
#[derive(Debug, Default)]
pub(super) struct Binding {
    /// Next rail in rotation for newly seen segments.
    next_rail: usize,
    /// The rail each segment was bound to; in key order, so a rail's
    /// death rebinds its segments in the same order every run.
    rail_of: BTreeMap<SegKey, usize>,
    /// The segments one decision binds, kept between decisions.
    to_bind: Vec<SegKey>,
}

impl Binding {
    /// Serve only work bound to `rail`, eager before granted, oldest
    /// first — even if other work waits and `rail` could take it.
    pub(super) fn next_tx(&mut self, rail: RailId, ctx: &StrategyCtx<'_>) -> Option<TxOp> {
        self.bind_new(ctx);
        let mine = |key: &SegKey| self.rail_of.get(key) == Some(&rail.0);
        if let Some(key) = ctx.backlog.eager_items().map(|i| i.key).find(mine) {
            self.rail_of.remove(&key);
            return Some(TxOp::Eager(key));
        }
        let (key, remaining) = ctx
            .backlog
            .granted_items()
            .find(|i| mine(&i.key))
            .map(|i| (i.key, i.remaining()))?;
        let max_len = ctx.rails[rail.0].mtu as u64;
        if remaining <= max_len {
            self.rail_of.remove(&key);
        }
        Some(TxOp::Chunk { key, max_len })
    }

    /// Bind unbound schedulable segments to rails, in rotation, then
    /// rebind those stuck on an out-of-service rail: rail death is the
    /// one event that makes the static baseline revisit a binding. The
    /// rotation skips out-of-service rails (static binding ignores
    /// *idleness*, not *health*) unless no rail is in service.
    fn bind_new(&mut self, ctx: &StrategyCtx<'_>) {
        let n = ctx.rails.len();
        let any_ok = (0..n).any(|r| ctx.view.ok(RailId(r)));
        let unbound = ctx
            .backlog
            .eager_items()
            .chain(ctx.backlog.granted_items())
            .map(|i| i.key)
            .filter(|key| !self.rail_of.contains_key(key));
        let stuck = self
            .rail_of
            .iter()
            .filter(|&(_, &r)| any_ok && !ctx.view.ok(RailId(r)))
            .map(|(key, _)| *key);
        let mut keys = std::mem::take(&mut self.to_bind);
        keys.clear();
        keys.extend(unbound.chain(stuck));
        for &key in &keys {
            while any_ok && !ctx.view.ok(RailId(self.next_rail)) {
                self.next_rail = (self.next_rail + 1) % n;
            }
            self.rail_of.insert(key, self.next_rail);
            self.next_rail = (self.next_rail + 1) % n;
        }
        self.to_bind = keys;
    }
}
