//! # nmad-runtime-sim — the engine on the simulated testbed
//!
//! Binds the NewMadeleine engine ([`nmad_core`]) to the discrete-event
//! kernel ([`nmad_sim`]) and the hardware models ([`nmad_model`]),
//! reproducing the paper's two-node Opteron + Myri-10G + Quadrics platform:
//!
//! * [`world`] — the event loop: CPU occupancy (PIO serialization, memcpy,
//!   per-packet overheads, per-rail poll costs), DMA draining through the
//!   max-min-fair bus, wire latencies, and the application callback layer;
//! * [`pingpong`] — the paper's benchmark (§3.1): a regular ping-pong with
//!   series of non-blocking sends/recvs and multi-segment messages;
//! * [`sampling`] — genuine init-time sampling: per-rail ping-pongs over a
//!   size ladder producing the [`nmad_core::PerfTable`]s that feed the
//!   adaptive splitting ratios;
//! * [`sweep`] — size sweeps producing the latency/bandwidth series of
//!   every figure, as serializable rows.

#![warn(missing_docs)]

pub mod pingpong;
pub mod sampling;
pub mod sweep;
pub mod timeline;
pub mod world;

pub use pingpong::{run_pingpong, PingPongResult, PingPongSpec};
pub use sampling::{sample_platform, sample_rail};
pub use sweep::{bandwidth_sizes, latency_sizes, SeriesPoint, Sweep};
pub use timeline::Timeline;
pub use world::{AppLogic, NodeApi, SimWorld};
