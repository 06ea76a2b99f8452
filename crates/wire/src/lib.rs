//! # nmad-wire — the NewMadeleine wire format
//!
//! NewMadeleine's optimizing schedulers rewrite application requests into
//! *packets*: small segments can be **aggregated** into one physical packet
//! even when they belong to different logical channels, and large segments
//! can be **split** into chunks sent over different rails and reassembled on
//! the receive side (paper §2, §4). This crate defines those packets and the
//! machinery around them:
//!
//! * [`header`] — the common packet envelope and the per-kind headers
//!   (eager, aggregate, rendezvous request/ack, chunk, ack, sampling probes);
//! * [`codec`] — a small safe reader/writer over byte buffers;
//! * [`checksum`] — CRC-32 (IEEE) for payload integrity;
//! * [`frame`] — scatter-gather packet frames: the zero-copy iovec
//!   representation of a packet (small owned head + refcounted payload
//!   slices) used on every hot path;
//! * [`agg`] — building and parsing aggregation containers;
//! * [`split`] — chunk planning for multi-rail splitting (iso and ratio
//!   driven), with covering/non-overlap invariants;
//! * [`reassembly`] — out-of-order, multi-rail reassembly of chunked
//!   messages and multi-segment eager messages;
//! * [`window`] and [`small`] — the two containers the hot paths keep
//!   their state in: a sliding window over densely issued ids instead of
//!   a hash table, and a short list stored inline instead of a `Vec`.
//!
//! Everything is pure data manipulation — no I/O — so the exact same code
//! runs under the discrete-event simulator and on the real threaded
//! transport.

#![warn(missing_docs)]
// Copy-regression gate: the wire crate is the hot path, so accidental
// owned conversions and clones fail the build outright.
#![deny(clippy::unnecessary_to_owned, clippy::redundant_clone)]

pub mod agg;
pub mod checksum;
pub mod codec;
pub mod error;
pub mod frame;
pub mod header;
pub mod reassembly;
pub mod small;
pub mod split;
pub mod window;

pub use agg::{AggregateBuilder, AggregateEntry, AggregateParts};
pub use error::WireError;
pub use frame::{FrameBody, PacketFrame, PartList, SgReader};
pub use header::{
    AckPacket, ChunkHead, ChunkPacket, EagerPacket, Envelope, Packet, PacketKind, RdvAck,
    RdvRequest, SamplePacket,
};
pub use reassembly::{MessageAssembly, Reassembler};
pub use small::SmallList;
pub use split::{ChunkSpec, SplitPlan};
pub use window::{IdWindow, Lookup};

/// Message identifier: unique per (sender, connection) message.
pub type MsgId = u64;
/// Connection identifier.
pub type ConnId = u32;
