//! # nmad-sim — deterministic discrete-event simulation kernel
//!
//! This crate provides the simulation substrate used by `newmadeleine-rs` to
//! stand in for the two-node Opteron / Myri-10G / Quadrics testbed of the
//! paper *"High-Performance Multi-Rail Support with the NewMadeleine
//! Communication Library"* (HCW/IPDPS 2007).
//!
//! The kernel is intentionally small and fully deterministic:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution virtual time.
//!   Picoseconds keep sub-nanosecond byte times exact enough for multi-GB/s
//!   links while still fitting hours of virtual time in a `u64`.
//! * [`EventQueue`] — a priority queue of `(time, event)` pairs with
//!   deterministic FIFO tie-breaking, so identical runs produce identical
//!   event interleavings.
//! * [`rng`] — seedable, portable PRNGs (SplitMix64 and xoshiro256\*\*)
//!   implemented locally so the whole workspace has a single, documented
//!   source of randomness.
//! * [`MultiResource`] — `k` identical servers behind one FIFO queue,
//!   each a busy-until timestamp: the simulated CPU (one server for the
//!   paper's single-threaded engine, whose PIO injections serialize).
//! * [`FluidChannel`] — a max-min fair fluid-flow model of a shared channel
//!   (the host I/O bus) with per-flow rate caps, the component responsible
//!   for the paper's 1675 MB/s aggregated-bandwidth plateau.
//!
//! Everything here is driven *by* the runtime crate; the kernel itself never
//! dictates an event vocabulary.

#![warn(missing_docs)]

pub mod fluid;
pub mod multi;
pub mod queue;
pub mod rng;
pub mod time;

pub use fluid::{FlowId, FluidChannel};
pub use multi::{Grant, MultiResource};
pub use queue::EventQueue;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use time::{SimDuration, SimTime};
