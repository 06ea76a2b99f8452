//! A sliding window over densely issued ids.
//!
//! Message ids, send and receive handles and transmit tokens are all
//! counters: issued from 0 upwards, alive for a while, then finished for
//! good. State keyed by such an id does not need a hash table. An
//! [`IdWindow`] keeps one slot per id from the oldest unfinished one to
//! the newest seen, in a `VecDeque` indexed by `id - base`; a lookup is
//! an index, and memory follows the ids in progress, not the number of
//! ids ever issued.
//!
//! Four rules make the answers exact and the memory bounded:
//!
//! * a slot is **retired** by its owner once nothing can change its
//!   answer any more, and the window's base only leaves retired slots
//!   behind — so an id below the base that is not a straggler (below)
//!   answers as it last answered ([`Lookup::Past`]);
//! * an id the window has not seen — beyond its end, or a **hole**
//!   between ids that arrived out of order (a submission queue may hand
//!   pre-issued ids over in any order) — is [`Lookup::Never`];
//! * an id that never finishes (a message that lost a frame, a receive
//!   nobody takes) must not pin everything issued after it: once more
//!   than three quarters of the slots (and more than `DENSE_MIN`, 64) are
//!   retired ones waiting behind older unfinished ids, those ids — live
//!   or holes — move to a sorted side table of **stragglers** and the
//!   base moves on. A straggler answers exactly as before and leaves the
//!   table when it is retired, so the window holds at most
//!   `max(DENSE_MIN, 4 × unfinished) + unfinished` slots;
//! * ids read off the wire can be anything, so whoever inserts one
//!   first checks [`IdWindow::span_with`] against what it is willing to
//!   hold.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Slots the dense part may hold whatever they are: below this nothing is
/// moved to the stragglers, so ids that merely finish out of order never
/// leave the deque.
const DENSE_MIN: usize = 64;

#[derive(Debug)]
enum Slot<T> {
    /// Not seen yet (an id that arrives out of order leaves holes).
    Hole,
    Live(T),
    /// Finished, not yet at the front.
    Retired,
}

/// What the window knows of an id.
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup<V> {
    /// Retired: whatever it last answered still holds.
    Past,
    /// In the window.
    Live(V),
    /// Never inserted.
    Never,
}

/// See the module docs.
#[derive(Debug)]
pub struct IdWindow<T> {
    base: u64,
    slots: VecDeque<Slot<T>>,
    /// Retired slots among `slots`.
    retired: usize,
    /// Unfinished ids below the base, live ones and holes.
    stragglers: BTreeMap<u64, Slot<T>>,
    /// [`IdWindow::bound`] has walked the stragglers below this id: those
    /// still there were kept.
    kept_below: u64,
    /// How many stragglers are below `kept_below`.
    kept: usize,
}

impl<T> Default for IdWindow<T> {
    fn default() -> Self {
        IdWindow {
            base: 0,
            slots: VecDeque::new(),
            retired: 0,
            stragglers: BTreeMap::new(),
            kept_below: 0,
            kept: 0,
        }
    }
}

impl<T> IdWindow<T> {
    /// Empty window based at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slots held: live ones, holes, retired ones behind an older
    /// unfinished one, and stragglers.
    pub fn len(&self) -> usize {
        self.slots.len() + self.stragglers.len()
    }

    /// True when no slot is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first id past the window: where a dense issuer continues.
    pub fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// Unfinished ids the base has moved past.
    #[cfg(test)]
    fn stragglers(&self) -> usize {
        self.stragglers.len()
    }

    /// Slots the dense part would hold after inserting `id` (for
    /// bounding ids that come from outside).
    pub fn span_with(&self, id: u64) -> u64 {
        (self.slots.len() as u64).max(id.saturating_sub(self.base).saturating_add(1))
    }

    fn index(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    /// The slot of `id`, wherever it is; `None` when the id is beyond the
    /// end, or below the base and no straggler (that is: retired).
    fn slot_mut(&mut self, id: u64) -> Option<&mut Slot<T>> {
        match self.index(id) {
            Some(i) => self.slots.get_mut(i),
            None => self.stragglers.get_mut(&id),
        }
    }

    /// What the window knows of `id`.
    pub fn get(&self, id: u64) -> Lookup<&T> {
        let slot = match self.index(id) {
            Some(i) => self.slots.get(i),
            None => match self.stragglers.get(&id) {
                None => return Lookup::Past,
                straggler => straggler,
            },
        };
        match slot {
            Some(Slot::Live(v)) => Lookup::Live(v),
            Some(Slot::Retired) => Lookup::Past,
            Some(Slot::Hole) | None => Lookup::Never,
        }
    }

    /// The live slot of `id`, if it has one.
    pub fn live(&self, id: u64) -> Option<&T> {
        match self.get(id) {
            Lookup::Live(v) => Some(v),
            _ => None,
        }
    }

    /// The live slot of `id`, mutably.
    pub fn live_mut(&mut self, id: u64) -> Option<&mut T> {
        match self.slot_mut(id) {
            Some(Slot::Live(v)) => Some(v),
            _ => None,
        }
    }

    /// Append at [`IdWindow::end`] (a dense issuer's next id) and say
    /// which id that was.
    pub fn push(&mut self, value: T) -> u64 {
        let id = self.end();
        self.slots.push_back(Slot::Live(value));
        id
    }

    /// Give `id` its slot. Refused (the value comes back) when the id is
    /// live or already retired. Ids between the window's end and `id`
    /// become holes.
    pub fn insert(&mut self, id: u64, value: T) -> Result<(), T> {
        match self.hole(id) {
            Some(slot) => {
                *slot = Slot::Live(value);
                Ok(())
            }
            None => Err(value),
        }
    }

    /// The live slot of `id`, made by `make` if the id is new (as
    /// [`IdWindow::insert`] would); `None` once the id is retired.
    pub fn live_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> T) -> Option<&mut T> {
        let slot = self.reach(id)?;
        if matches!(slot, Slot::Hole) {
            *slot = Slot::Live(make());
        }
        match slot {
            Slot::Live(value) => Some(value),
            _ => None,
        }
    }

    /// The slot of `id` if nothing was ever put in it, the window grown
    /// to reach it.
    fn hole(&mut self, id: u64) -> Option<&mut Slot<T>> {
        self.reach(id).filter(|slot| matches!(slot, Slot::Hole))
    }

    /// The slot of `id`, the window grown to reach it.
    fn reach(&mut self, id: u64) -> Option<&mut Slot<T>> {
        if let Some(i) = self.index(id).filter(|&i| i >= self.slots.len()) {
            self.slots.resize_with(i + 1, || Slot::Hole);
        }
        self.slot_mut(id)
    }

    /// Finish `id` for good: its slot's value comes back and the window
    /// lets go of what it no longer needs to tell ids apart (see the
    /// module docs).
    pub fn retire(&mut self, id: u64) -> Option<T> {
        self.retire_by(id, |slot| match std::mem::replace(slot, Slot::Retired) {
            Slot::Live(value) => Some(value),
            _ => None,
        })
    }

    /// [`IdWindow::retire`] `id` once `finish` takes what it needs out of
    /// its live value, in one lookup: when `finish` returns something the
    /// value is dropped where it lies and that comes back; otherwise the
    /// slot is left as it is.
    pub fn retire_with<R>(
        &mut self,
        id: u64,
        finish: impl FnOnce(&mut T) -> Option<R>,
    ) -> Option<R> {
        self.retire_by(id, |slot| match slot {
            Slot::Live(value) => finish(value),
            _ => None,
        })
    }

    /// Retire the live slot of `id` if `finish` makes something of it.
    fn retire_by<R>(
        &mut self,
        id: u64,
        finish: impl FnOnce(&mut Slot<T>) -> Option<R>,
    ) -> Option<R> {
        if self.index(id).is_none() {
            // A straggler goes at once: nothing waits behind it.
            let Entry::Occupied(mut straggler) = self.stragglers.entry(id) else {
                return None;
            };
            if !matches!(straggler.get(), Slot::Live(_)) {
                return None;
            }
            let made = finish(straggler.get_mut())?;
            straggler.remove();
            if id < self.kept_below {
                self.kept -= 1;
            }
            return Some(made);
        }
        let slot = self.slot_mut(id).filter(|s| matches!(s, Slot::Live(_)))?;
        let made = finish(slot)?;
        *slot = Slot::Retired;
        self.retired += 1;
        // Retired ids at the front go; so does an unfinished one, to the
        // stragglers, when most of what waits behind it is retired.
        while matches!(self.slots.front(), Some(Slot::Retired))
            || (self.slots.len() > DENSE_MIN && self.retired * 4 > self.slots.len() * 3)
        {
            self.pop_front();
        }
        Some(made)
    }

    /// Move the base past the front slot, keeping it (as a straggler) if
    /// it is unfinished.
    fn pop_front(&mut self) {
        match self.slots.pop_front() {
            Some(Slot::Retired) => self.retired -= 1,
            Some(unfinished) => drop(self.stragglers.insert(self.base, unfinished)),
            None => return,
        }
        self.base += 1;
    }

    /// Hold at most `dense` slots in the deque and `stragglers` ids
    /// beside it, for a window whose ids someone else makes up: the
    /// oldest ids leave the deque whatever waits behind them, and the
    /// oldest stragglers are given up on — they answer as retired from
    /// now on — except live ones that `keep` holds on to: those stay
    /// until they are retired and do not count towards `stragglers`. A
    /// straggler is judged once, when the walk first reaches it, so each
    /// is looked at once however many calls it outlives. Returns how many
    /// were given up on.
    pub fn bound(&mut self, dense: usize, stragglers: usize, keep: impl Fn(&T) -> bool) -> usize {
        while self.slots.len() > dense {
            self.pop_front();
        }
        let mut given_up = 0;
        while self.stragglers.len() - self.kept > stragglers {
            let (&id, oldest) = self
                .stragglers
                .range(self.kept_below..)
                .next()
                .expect("counted");
            self.kept_below = id + 1;
            if matches!(oldest, Slot::Live(v) if keep(v)) {
                self.kept += 1;
            } else {
                self.stragglers.remove(&id);
                given_up += 1;
            }
        }
        given_up
    }

    /// Forget a live `id` as if it had never been inserted (it may be
    /// inserted again).
    pub fn forget(&mut self, id: u64) -> Option<T> {
        self.take(id, Slot::Hole)
    }

    /// Replace the live slot of `id` by `with` and hand its value back.
    fn take(&mut self, id: u64, with: Slot<T>) -> Option<T> {
        let slot = self.slot_mut(id)?;
        if !matches!(slot, Slot::Live(_)) {
            return None;
        }
        match std::mem::replace(slot, with) {
            Slot::Live(value) => Some(value),
            _ => None,
        }
    }

    /// The live slots, oldest id first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        let dense = (self.base..).zip(&self.slots);
        let all = self.stragglers.iter().map(|(&id, s)| (id, s)).chain(dense);
        all.filter_map(|(id, s)| match s {
            Slot::Live(v) => Some((id, v)),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_distinguish_past_live_and_never() {
        let mut w: IdWindow<&str> = IdWindow::new();
        assert_eq!(w.get(0), Lookup::Never);
        w.insert(0, "a").unwrap();
        w.insert(1, "b").unwrap();
        assert_eq!(w.get(1), Lookup::Live(&"b"));
        assert_eq!(w.end(), 2);
        assert_eq!(w.retire(0), Some("a"));
        assert_eq!(w.get(0), Lookup::Past, "below the base");
        assert_eq!(w.len(), 1);
        assert_eq!(w.get(2), Lookup::Never, "beyond the end");
        assert_eq!(w.retire(0), None, "only once");
        assert_eq!(w.insert(0, "again"), Err("again"), "a retired id is spent");
        assert_eq!(w.insert(1, "dup"), Err("dup"), "a live id is taken");
    }

    #[test]
    fn out_of_order_retirement_waits_for_the_front() {
        let mut w = IdWindow::new();
        for id in 0..4 {
            w.insert(id, id).unwrap();
        }
        w.retire(2);
        w.retire(1);
        assert_eq!(w.len(), 4, "id 0 still holds the front");
        assert_eq!(w.get(1), Lookup::Past);
        assert_eq!(w.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![0, 3]);
        w.retire(0);
        assert_eq!(w.len(), 1, "0, 1 and 2 went together");
        assert_eq!(w.get(3), Lookup::Live(&3));
        w.retire(3);
        assert!(w.is_empty());
        assert_eq!(w.end(), 4, "the issuer continues where it was");
    }

    #[test]
    fn holes_absorb_ids_that_arrive_out_of_order() {
        let mut w = IdWindow::new();
        w.insert(2, "c").unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.get(0), Lookup::Never, "a hole is not a retired id");
        assert_eq!(w.retire(2), Some("c"));
        assert_eq!(w.len(), 3, "the holes hold the base back");
        assert_eq!(w.get(2), Lookup::Past);
        w.insert(1, "b").unwrap();
        w.insert(0, "a").unwrap();
        w.retire(0);
        assert_eq!(w.len(), 2);
        w.retire(1);
        assert!(w.is_empty(), "1 and the long-retired 2 went together");
    }

    #[test]
    fn forget_reopens_the_slot() {
        let mut w = IdWindow::new();
        w.insert(0, 1).unwrap();
        assert_eq!(w.forget(0), Some(1));
        assert_eq!(w.get(0), Lookup::Never);
        assert_eq!(w.live_mut(0), None);
        *w.live_or_insert_with(0, || 2).unwrap() += 1;
        *w.live_or_insert_with(0, || 7).unwrap() += 1;
        assert_eq!(w.live(0), Some(&4), "made once");
        w.retire(0);
        assert_eq!(
            w.live_or_insert_with(0, || 9),
            None,
            "a retired id stays retired"
        );
    }

    #[test]
    fn retire_with_leaves_what_is_not_finished() {
        let mut w = IdWindow::new();
        w.insert(0, vec![1]).unwrap();
        w.insert(1, vec![2, 3]).unwrap();
        let finished = |v: &mut Vec<u32>| (v.len() > 1).then(|| v.pop());
        assert_eq!(w.retire_with(0, finished), None);
        assert_eq!(w.get(0), Lookup::Live(&vec![1]), "untouched");
        assert_eq!(w.retire_with(1, finished), Some(Some(3)));
        assert_eq!(w.get(1), Lookup::Past);
        assert_eq!(w.retire_with(1, |_| Some(())), None, "only once");
        // The same for a straggler.
        for id in 2..200 {
            w.push(vec![]);
            w.retire(id);
        }
        assert_eq!((w.len(), w.stragglers()), (1, 1));
        assert_eq!(w.retire_with(0, |_| None::<()>), None);
        assert_eq!(w.retire_with(0, |v| v.pop()), Some(1));
        assert!(w.is_empty());
    }

    #[test]
    fn push_appends_at_the_end() {
        let mut w = IdWindow::new();
        assert_eq!((w.push("a"), w.push("b")), (0, 1));
        w.insert(4, "e").unwrap();
        assert_eq!(w.push("f"), 5, "past the highest id seen");
        w.retire(0);
        assert_eq!((w.push("g"), w.end()), (6, 7));
    }

    #[test]
    fn an_id_that_never_finishes_does_not_pin_the_ids_after_it() {
        let mut w = IdWindow::new();
        w.insert(0, "lost").unwrap();
        w.insert(2, "slow").unwrap(); // 1 is a hole that never arrives
        for id in 3..100_000u64 {
            assert_eq!(w.push("x"), id);
            w.retire(id);
            assert!(w.len() <= DENSE_MIN + 3, "{} slots at id {id}", w.len());
        }
        assert_eq!((w.len(), w.stragglers()), (3, 3));
        // The stragglers answer as they did inside the deque.
        assert_eq!(w.get(0), Lookup::Live(&"lost"));
        assert_eq!(w.get(1), Lookup::Never);
        assert_eq!(w.get(2), Lookup::Live(&"slow"));
        assert_eq!(w.get(50), Lookup::Past);
        assert_eq!(w.insert(0, "dup"), Err("dup"));
        assert_eq!(w.iter().map(|(id, _)| id).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(w.end(), 100_000);
        // They fill, change, reopen and retire there too.
        *w.live_or_insert_with(1, || "late").unwrap() = "later";
        assert_eq!(w.forget(2), Some("slow"));
        assert_eq!(w.get(2), Lookup::Never);
        w.insert(2, "again").unwrap();
        assert_eq!(w.retire(1), Some("later"));
        assert_eq!(w.retire(1), None, "only once");
        assert_eq!(w.get(1), Lookup::Past);
        assert_eq!(w.bound(usize::MAX, 1, |_| false), 1);
        assert_eq!(w.get(0), Lookup::Past, "given up on");
        assert_eq!(w.retire(2), Some("again"));
        assert!(w.is_empty());
    }

    #[test]
    fn bound_moves_the_base_whatever_waits_behind_it() {
        // Every other id unfinished: too few retired ones to move by
        // themselves, and an outside id must still find room.
        let mut w = IdWindow::new();
        for id in 0..1000u64 {
            w.push(id);
        }
        for id in (1..1000).step_by(2) {
            w.retire(id);
        }
        assert_eq!(w.bound(100, usize::MAX, |_| false), 0);
        assert_eq!(
            (w.len(), w.stragglers(), w.span_with(1000)),
            (550, 450, 101)
        );
        assert_eq!((w.get(0), w.get(1)), (Lookup::Live(&0), Lookup::Past));
        assert_eq!(w.bound(100, 400, |_| false), 50);
        assert_eq!((w.get(98), w.get(100)), (Lookup::Past, Lookup::Live(&100)));
    }

    #[test]
    fn bound_keeps_what_keep_holds_and_walks_past_it_once() {
        // Odd ids are kept; even ones may be given up on.
        let mut w = IdWindow::new();
        for id in 0..1000u64 {
            w.push(id);
        }
        let keep = |v: &u64| v % 2 == 1;
        assert_eq!(w.bound(0, 100, keep), 450, "the 450 oldest even ids");
        assert_eq!((w.get(0), w.get(1)), (Lookup::Past, Lookup::Live(&1)));
        assert_eq!((w.get(898), w.get(900)), (Lookup::Past, Lookup::Live(&900)));
        assert_eq!((w.len(), w.kept), (550, 450));
        // Kept ones below the walk count for nothing; retiring them
        // leaves the count right.
        assert_eq!(w.bound(0, 100, keep), 0);
        for id in (1..900).step_by(2) {
            assert_eq!(w.retire(id), Some(id));
        }
        assert_eq!((w.len(), w.kept), (100, 0));
        w.push(1000);
        assert_eq!(w.bound(0, 100, keep), 1, "900, the oldest even one");
        assert_eq!(w.get(901), Lookup::Live(&901));
    }

    #[test]
    fn ids_in_progress_stay_in_the_deque() {
        // Many unfinished ids, few retired: nothing to gain by moving.
        let mut w = IdWindow::new();
        for id in 0..1000u64 {
            w.push(id);
        }
        for id in (1..1000).step_by(2) {
            w.retire(id);
        }
        assert_eq!((w.len(), w.stragglers()), (1000, 0));
        // Nearly all retired behind a few: those few move.
        for id in (2..1000).step_by(2) {
            w.retire(id);
        }
        assert_eq!((w.len(), w.stragglers()), (1, 1));
        assert_eq!(w.get(0), Lookup::Live(&0));
    }

    #[test]
    fn span_with_counts_the_slots_an_insert_would_leave() {
        let mut w = IdWindow::new();
        assert_eq!(w.span_with(0), 1);
        assert_eq!(w.span_with(u64::MAX), u64::MAX);
        for id in 0..10 {
            w.insert(id, ()).unwrap();
        }
        for id in 0..8 {
            w.retire(id);
        }
        assert_eq!(w.span_with(9), 2);
        assert_eq!(w.span_with(107), 100);
        assert_eq!(w.span_with(3), 2, "an id below the base adds nothing");
    }
}
