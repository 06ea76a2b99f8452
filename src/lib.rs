//! # newmadeleine-rs
//!
//! A from-scratch Rust reproduction of the system described in:
//!
//! > Olivier Aumage, Élisabeth Brunet, Guillaume Mercier, Raymond Namyst.
//! > *High-Performance Multi-Rail Support with the NewMadeleine
//! > Communication Library.* HCW 2007 (with IPDPS 2007).
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel.
//! * [`model`] — NIC / host / platform hardware models calibrated to the
//!   paper's testbed (Myri-10G + Quadrics QM500 over a ~2 GB/s I/O bus).
//! * [`wire`] — packet wire format, aggregation containers, chunk splitting
//!   and out-of-order reassembly.
//! * [`core`] — the NewMadeleine engine proper: collect layer (a message
//!   is a list of segments), pluggable optimizing schedulers
//!   (strategies), and the NIC-activity-driven transmit layer.
//! * [`runtime_sim`] — binds the engine to the simulator; ping-pong and
//!   sweep executors that regenerate the paper's figures.
//! * [`transport_mem`] — a real multi-threaded in-process transport proving
//!   the engine also runs outside the simulator.
//! * [`transport_tcp`] — the engine over real TCP sockets (the paper's
//!   legacy socket-API driver), usable across processes.
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure.

pub use bytes;
pub use nmad_core as core;
pub use nmad_model as model;
pub use nmad_runtime_sim as runtime_sim;
pub use nmad_sim as sim;
pub use nmad_transport_mem as transport_mem;
pub use nmad_transport_tcp as transport_tcp;
pub use nmad_wire as wire;
