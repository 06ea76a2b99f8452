//! # nmad-core — the NewMadeleine engine
//!
//! This crate implements the paper's primary contribution: a communication
//! engine whose request processing is *disconnected from the API calls* and
//! instead driven by NIC activity (paper §2). The three-layer architecture
//! of Figure 1 maps onto the modules as follows:
//!
//! * **Collect layer** — [`request`] and the submit API on [`engine::Engine`]:
//!   applications build messages from one or more segments
//!   (`pack`-style incremental construction) and submit them without
//!   triggering any network activity;
//! * **Scheduling layer** — [`strategy`]: the *optimizing scheduler*, one
//!   decision pipeline with a preset per named strategy. When a NIC
//!   becomes idle the engine queries it for the most appropriate packet —
//!   aggregating small segments, splitting large ones across rails, or
//!   just forwarding;
//! * **Transmit layer** — [`driver`]: the engine ↔ runtime contract.
//!   The engine is runtime-agnostic: the discrete-event simulator and the
//!   real threaded transport both drive the *same* engine code through
//!   `next_tx` / `on_tx_done` / `on_frame`.
//!
//! Supporting modules: [`sampling`] implements the initialization-time
//! network sampling that feeds the adaptive splitting ratios (§3.4) plus
//! the [`sampling::OnlineCalibrator`] that keeps those ratios tracking
//! observed transfer times at runtime; [`stats`] counts what the
//! strategies actually did so tests can assert on behaviour, not just
//! timing; [`endpoint`] is the one application-facing [`Endpoint`] (with
//! its send/receive handles) that every threaded transport hands out,
//! over the [`Fabric`] trait a transport's runtime implements.
//!
//! # A complete round trip
//!
//! The engine is passive; a minimal runtime is a loop that offers idle
//! rails and moves wire bytes:
//!
//! ```
//! use bytes::Bytes;
//! use nmad_core::{Engine, EngineConfig, StrategyKind};
//! use nmad_model::{platform, RailId};
//!
//! let mk = || Engine::new(
//!     EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
//!     platform::paper_platform().rails,
//!     vec![],
//! );
//! let (mut alice, mut bob) = (mk(), mk());
//! let conn = alice.conn_open();
//! bob.conn_open();
//!
//! let recv = bob.post_recv(conn);
//! let send = alice.submit_send(conn, vec![Bytes::from_static(b"hello rails")]);
//!
//! // The runtime loop: drain tx decisions, deliver, repeat to quiescence.
//! loop {
//!     let mut progressed = false;
//!     for r in 0..2 {
//!         for dir in 0..2 {
//!             let (tx, rx) = if dir == 0 {
//!                 (&mut alice, &mut bob)
//!             } else {
//!                 (&mut bob, &mut alice)
//!             };
//!             if let Some(d) = tx.next_tx(RailId(r)).unwrap() {
//!                 progressed = true;
//!                 tx.on_tx_done(RailId(r), d.token).unwrap();
//!                 rx.on_frame(RailId(r), &d.frame).unwrap();
//!             }
//!         }
//!     }
//!     if !progressed { break; }
//! }
//!
//! assert!(alice.send_complete(send));
//! let msg = bob.try_recv(recv).unwrap();
//! assert_eq!(&msg.segments[0][..], b"hello rails");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod config;
pub mod driver;
pub mod endpoint;
pub mod engine;
pub mod error;
pub mod faults;
pub mod health;
pub mod obs;
mod pool;
pub mod request;
pub mod sampling;
pub mod stats;
pub mod strategy;

pub use api::{MessageBuilder, MessageReader};
pub use config::{EngineConfig, Observe};
pub use driver::{TxDecision, TxToken};
pub use endpoint::{
    Deadline, Endpoint, Fabric, FabricStatus, Parker, Rails, RecvHandle, SendHandle, Serial,
    WaitFor, WorkSignal,
};
pub use engine::{Engine, OnPacketOutcome, ProgressOutcome};
pub use error::{EngineError, SubmitError};
pub use faults::{Effect, Fault, FaultPlan};
pub use health::{HealthConfig, HealthTracker, RailState, RailTelemetry};
pub use obs::{
    Alert, AlertKind, Event, EventKind, FlightRecorder, Log2Histogram, SpanBreakdown,
    TelemetryAggregator, Watchdog, Window,
};
pub use request::{Backlog, RecvId, SendId};
pub use sampling::{
    split_ratio_permille, CalibrationSnapshot, OnlineCalibrator, PerfTable,
};
pub use stats::{DataPathStats, EngineStats, ObsStats, OverloadStats, RailStats, SyscallStats};
pub use strategy::{RailFlight, Strategy, StrategyKind};
