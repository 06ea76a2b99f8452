//! One fault plan for every fabric: a seeded list of per-rail windows.
//!
//! The sim, the mem fabric and TCP all describe "a rail fails" the same
//! way: a [`FaultPlan`] whose every [`Fault`] puts one [`Effect`] on one
//! rail over the half-open span `[from, until)`. Times count from the
//! fabric's own zero — when the pair was built on mem and TCP,
//! `SimTime::ZERO` in the sim. A fabric applies a plan through two
//! functions: [`FaultPlan::fate`] decides what becomes of one outgoing
//! frame (its first step, [`FaultPlan::lost`], is the loss check on its
//! own) and [`FaultPlan::bandwidth`] is a rail's bandwidth factor at an
//! instant. A fabric that cannot apply an effect refuses the plan when it
//! is built ([`FaultPlan::refused`]) instead of ignoring the effect.
//!
//! The bounds are `Duration`s. A clock of another unit converts them once
//! ([`FaultPlan::in_unit`]) and compares in its own unit from then on, so
//! a window's edge falls on the clock's tick, not on a rounding of it.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use nmad_sim::Xoshiro256StarStar;
use nmad_wire::PacketFrame;

/// What a window does to its rail's frames.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Effect {
    /// Each frame is lost with this probability; `1.0` is an outage.
    Loss(f64),
    /// Each frame has one bit flipped in flight with this probability.
    Corrupt(f64),
    /// Each frame is delivered twice with this probability.
    Duplicate(f64),
    /// Each frame is held back with this probability and delivered after
    /// the next frame on the same rail (pairwise reordering).
    Reorder(f64),
    /// The rail's bandwidth is multiplied by this factor (`0.5` is half
    /// speed, above 1 a faster link).
    Bandwidth(f64),
}

/// One window: `effect` on `rail` over `[from, until)`; `until: None`
/// never ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fault<T = Duration> {
    /// Rail the effect applies to.
    pub rail: usize,
    /// Window start (inclusive).
    pub from: T,
    /// Window end (exclusive); `None` lasts for good.
    pub until: Option<T>,
    /// What the window does.
    pub effect: Effect,
}

impl Fault {
    /// `effect` on `rail` over `span`.
    pub fn during(rail: usize, span: Range<Duration>, effect: Effect) -> Self {
        Fault {
            rail,
            from: span.start,
            until: Some(span.end),
            effect,
        }
    }
}

/// The seeded list of windows a fabric runs under. Overlapping windows
/// combine: probabilities add (a loss of 1 or more is an outage) and
/// bandwidth factors multiply.
#[derive(Clone, Debug)]
pub struct FaultPlan<T = Duration> {
    /// Seeds the fabric's fault draws.
    pub seed: u64,
    /// The windows, in any order.
    pub faults: Vec<Fault<T>>,
    /// Set by [`FaultPlan::heal`]; shared by every clone.
    healed: Arc<AtomicBool>,
}

impl FaultPlan {
    /// A plan of `faults`, its draws seeded by `seed`.
    pub fn new(seed: u64, faults: Vec<Fault>) -> Self {
        FaultPlan {
            seed,
            faults,
            healed: Arc::default(),
        }
    }

    /// `effects` on every one of `rails` rails for the whole run.
    pub fn everywhere(seed: u64, rails: usize, effects: &[Effect]) -> Self {
        let always = |(rail, &effect)| Fault {
            rail,
            from: Duration::ZERO,
            until: None,
            effect,
        };
        let each = (0..rails).flat_map(|rail| effects.iter().map(move |e| (rail, e)));
        FaultPlan::new(seed, each.map(always).collect())
    }

    /// The same windows with their bounds converted by `unit`, once. The
    /// result heals with this plan.
    pub fn in_unit<T>(&self, unit: impl Fn(Duration) -> T) -> FaultPlan<T> {
        let convert = |f: &Fault| Fault {
            rail: f.rail,
            from: unit(f.from),
            until: f.until.map(&unit),
            effect: f.effect,
        };
        FaultPlan {
            seed: self.seed,
            faults: self.faults.iter().map(convert).collect(),
            healed: self.healed.clone(),
        }
    }
}

impl<T: Copy + PartialOrd> FaultPlan<T> {
    /// End every window of this plan and of every clone of it, at once.
    /// For tests that heal when their traffic tells them to rather than
    /// at a time they could write down.
    pub fn heal(&self) {
        self.healed.store(true, Ordering::Relaxed);
    }

    /// The first fault a fabric of `rails` rails that applies the
    /// effects `applies` accepts would have to refuse: one on a rail the
    /// fabric lacks, with a bandwidth factor that is not finite and
    /// positive, or with an effect the fabric would otherwise ignore. (A
    /// probability is clamped to `[0, 1]` where it is drawn, and a window
    /// that ends before it starts is empty.)
    pub fn refused(&self, rails: usize, applies: impl Fn(Effect) -> bool) -> Option<&Fault<T>> {
        let bad_factor = |e| matches!(e, Effect::Bandwidth(x) if !(x.is_finite() && x > 0.0));
        let sane = |f: &&Fault<T>| f.rail < rails && !bad_factor(f.effect) && applies(f.effect);
        self.faults.iter().find(|f| !sane(f))
    }

    /// What the windows open on `rail` at `at` add up to: the
    /// probabilities of loss, corruption, duplication and reordering, each
    /// a sum, then the bandwidth factor, a product. Nothing once healed.
    fn sums(&self, rail: usize, at: T) -> [f64; 5] {
        let mut sums = [0.0, 0.0, 0.0, 0.0, 1.0];
        if self.healed.load(Ordering::Relaxed) {
            return sums;
        }
        let open = |f: &&Fault<T>| f.rail == rail && at >= f.from && f.until.is_none_or(|u| at < u);
        for f in self.faults.iter().filter(open) {
            match f.effect {
                Effect::Loss(p) => sums[0] += p,
                Effect::Corrupt(p) => sums[1] += p,
                Effect::Duplicate(p) => sums[2] += p,
                Effect::Reorder(p) => sums[3] += p,
                Effect::Bandwidth(x) => sums[4] *= x,
            }
        }
        sums
    }

    /// `rail`'s bandwidth factor at `at` (1 outside every window).
    pub fn bandwidth(&self, rail: usize, at: T) -> f64 {
        self.sums(rail, at)[4]
    }

    /// The loss check alone: whether a frame on `rail` at `at` is lost.
    /// Inside a full-loss window nothing is drawn from `rng`; anywhere
    /// else one draw, whatever the probability.
    pub fn lost(&self, rail: usize, at: T, rng: &mut Xoshiro256StarStar) -> bool {
        draw_loss(self.sums(rail, at)[0], rng)
    }

    /// Decide the fate of one outgoing `frame` on `rail` at `at`: true
    /// when it is lost, otherwise what reaches the wire goes to `push`
    /// in delivery order (with a frame `held` back by an earlier reorder
    /// behind it). The draw order — loss, corrupt, duplicate, reorder —
    /// is part of the contract: seeded fault sequences must not change
    /// underneath the tests that pin them. No draw inside a full-loss
    /// window.
    pub fn fate(
        &self,
        rail: usize,
        at: T,
        rng: &mut Xoshiro256StarStar,
        held: &mut Option<PacketFrame>,
        frame: PacketFrame,
        push: &mut dyn FnMut(PacketFrame),
    ) -> bool {
        let [loss, corrupt, duplicate, reorder, _] = self.sums(rail, at);
        if draw_loss(loss, rng) {
            return true;
        }
        let frame = if rng.chance(corrupt) {
            corrupt_frame(rng, frame)
        } else {
            frame
        };
        let dup = rng.chance(duplicate);
        if held.is_none() && rng.chance(reorder) {
            // Hold this frame back; it goes out right after the next one
            // on this rail. Clones are refcount bumps.
            *held = Some(frame.clone());
            if dup {
                push(frame);
            }
            return false;
        }
        push(frame.clone());
        if dup {
            push(frame);
        }
        if let Some(h) = held.take() {
            push(h);
        }
        false
    }
}

fn draw_loss(p: f64, rng: &mut Xoshiro256StarStar) -> bool {
    p >= 1.0 || rng.chance(p)
}

/// Flip one bit somewhere in the wire image. Copy-on-write of the one
/// part holding the chosen byte — never the whole wire image. The part
/// cannot be mutated in place: it is refcount-shared with the sender's
/// retransmission state, and a real wire would not reach back into the
/// sender's memory either.
fn corrupt_frame(rng: &mut Xoshiro256StarStar, mut frame: PacketFrame) -> PacketFrame {
    let idx = rng.range_usize(0, frame.wire_len());
    let (part_idx, off) = frame.locate(idx).expect("index within wire image");
    let part = frame.part(part_idx).expect("located part exists");
    let mut raw = BytesMut::with_capacity(part.len());
    raw.extend_from_slice(part);
    raw[off] ^= 1 << rng.range_u64(0, 8);
    frame.replace_part(part_idx, raw.freeze());
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use nmad_sim::SimTime;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn window(rail: usize, from: u64, until: u64, effect: Effect) -> Fault {
        Fault::during(rail, ms(from)..ms(until), effect)
    }

    /// How many values `rng` has handed out since `seed`: the position of
    /// its stream.
    fn draws_since(seed: u64, rng: &Xoshiro256StarStar) -> usize {
        let mut fresh = Xoshiro256StarStar::new(seed);
        let mut probe = rng.clone();
        let next = probe.next_u64();
        (0..64)
            .find(|_| fresh.next_u64() == next)
            .expect("within 64 draws")
    }

    fn frame() -> PacketFrame {
        PacketFrame::from_wire(Bytes::from_static(b"a frame on the wire"))
    }

    #[test]
    fn windows_are_half_open() {
        let plan = FaultPlan::new(1, vec![window(0, 5, 10, Effect::Bandwidth(0.5))]);
        assert_eq!(plan.bandwidth(0, ms(5) - Duration::from_nanos(1)), 1.0);
        assert_eq!(plan.bandwidth(0, ms(5)), 0.5);
        assert_eq!(plan.bandwidth(0, ms(10) - Duration::from_nanos(1)), 0.5);
        assert_eq!(plan.bandwidth(0, ms(10)), 1.0);
        assert_eq!(plan.bandwidth(1, ms(7)), 1.0, "another rail");
        let open = FaultPlan::everywhere(1, 2, &[Effect::Bandwidth(2.0)]);
        assert_eq!(open.bandwidth(1, Duration::from_secs(1 << 40)), 2.0);
    }

    /// The sim's clock counts picoseconds: the bounds convert once, and
    /// each edge falls on the picosecond it names.
    #[test]
    fn each_clock_compares_in_its_own_unit() {
        let plan = FaultPlan::new(1, vec![window(0, 1, 2, Effect::Loss(1.0))]);
        let sim = plan.in_unit(|d| SimTime::from_ns(d.as_nanos() as u64));
        assert_eq!(sim.faults[0].from, SimTime::from_us(1_000));
        let mut rng = Xoshiro256StarStar::new(3);
        assert!(!sim.lost(0, SimTime(SimTime::from_us(1_000).0 - 1), &mut rng));
        assert!(sim.lost(0, SimTime::from_us(1_000), &mut rng));
        assert!(sim.lost(0, SimTime(SimTime::from_us(2_000).0 - 1), &mut rng));
        assert!(!sim.lost(0, SimTime::from_us(2_000), &mut rng));
    }

    #[test]
    fn losses_add_and_clamp_and_bandwidth_factors_multiply() {
        let plan = FaultPlan::new(
            9,
            vec![
                window(0, 0, 10, Effect::Loss(0.6)),
                window(0, 5, 15, Effect::Loss(0.6)),
                window(0, 0, 10, Effect::Bandwidth(0.5)),
                window(0, 5, 15, Effect::Bandwidth(0.25)),
            ],
        );
        assert_eq!(plan.sums(0, ms(7))[0], 1.2);
        assert_eq!(plan.bandwidth(0, ms(7)), 0.125);
        assert_eq!(plan.bandwidth(0, ms(12)), 0.25);
        // 1.2 clamps to an outage: every frame lost, nothing drawn.
        let mut rng = Xoshiro256StarStar::new(plan.seed);
        assert!((0..100).all(|_| plan.lost(0, ms(7), &mut rng)));
        assert_eq!(draws_since(plan.seed, &rng), 0);
    }

    /// No draw inside a full-loss window, four outside one (loss,
    /// corrupt, duplicate, reorder), one for the loss check alone.
    #[test]
    fn a_full_loss_window_draws_nothing() {
        let plan = FaultPlan::new(5, vec![window(1, 0, 10, Effect::Loss(1.0))]);
        let mut rng = Xoshiro256StarStar::new(plan.seed);
        let (mut held, mut out) = (None, Vec::new());
        assert!(plan.fate(1, ms(3), &mut rng, &mut held, frame(), &mut |f| out.push(f)));
        assert_eq!(draws_since(plan.seed, &rng), 0);
        assert!(
            !plan.fate(1, ms(10), &mut rng, &mut held, frame(), &mut |f| out
                .push(f))
        );
        assert_eq!(draws_since(plan.seed, &rng), 4);
        assert_eq!(out.len(), 1);
        assert!(!plan.lost(0, ms(3), &mut rng));
        assert_eq!(draws_since(plan.seed, &rng), 5);
    }

    #[test]
    fn heal_reaches_every_clone() {
        let plan = FaultPlan::everywhere(2, 2, &[Effect::Loss(1.0), Effect::Bandwidth(0.5)]);
        let (clone, sim) = (plan.clone(), plan.in_unit(|d| d.as_nanos()));
        let mut rng = Xoshiro256StarStar::new(2);
        assert!(clone.lost(0, ms(1), &mut rng) && sim.lost(0, 1, &mut rng));
        assert_eq!(clone.bandwidth(1, ms(1)), 0.5);
        plan.heal();
        assert!(!clone.lost(0, ms(1), &mut rng));
        assert!(!sim.lost(0, 1, &mut rng));
        assert_eq!(clone.bandwidth(1, ms(1)), 1.0);
    }

    /// A fabric refuses a plan it could not apply in full: the first
    /// fault it would have to ignore.
    #[test]
    fn refused_names_the_first_fault_a_fabric_cannot_apply() {
        let any = |_| true;
        let zero = FaultPlan::everywhere(0, 1, &[Effect::Bandwidth(0.0)]);
        assert_eq!(zero.refused(2, any), Some(&zero.faults[0]));
        let lacking = FaultPlan::everywhere(0, 3, &[Effect::Loss(0.5)]);
        assert_eq!(lacking.refused(2, any).map(|f| f.rail), Some(2));
        let losses_only = |e| matches!(e, Effect::Loss(_));
        assert_eq!(lacking.refused(3, losses_only), None);
        let noise = FaultPlan::everywhere(0, 1, &[Effect::Loss(0.1), Effect::Corrupt(0.1)]);
        let refused = noise.refused(1, losses_only).map(|f| f.effect);
        assert_eq!(refused, Some(Effect::Corrupt(0.1)));
    }
}
