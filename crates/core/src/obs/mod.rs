//! Observability: flight recorder, log2 histograms, trace exporters.
//!
//! The paper's argument is about *when* the scheduler acts — segments sit
//! in a backlog until a NIC goes idle, then get aggregated, reordered, or
//! split (§2–§3.4) — so aggregate counters alone cannot explain a
//! bandwidth number. This module adds a packet-lifecycle event stream
//! (submit → backlog → strategy decision → tx post → tx done → rx →
//! ack/retransmit/failover) with the same discipline as the datapath:
//! zero dependencies, zero hot-path allocations (preallocated ring,
//! fixed-size [`Event`] records, no `String` anywhere near `record`),
//! and a measured overhead budget (`ablate_obs` gates the recorder at
//! ≤ 5% throughput cost on the bandwidth ladder).
//!
//! Exporters live on the cold path only: JSONL for ad-hoc grepping,
//! Chrome `trace_event` JSON for `chrome://tracing`/Perfetto, a human
//! summary, and the simulator's Gantt chart ([`gantt`]). Every number read from the engine's counters is named
//! once, in [`metrics::METRICS`], and rendered from there (Prometheus,
//! the windows' JSONL, the CLI's tables). See DESIGN.md "Observability".
//!
//! Beside the recorder sits the *continuous* telemetry layer (same
//! discipline, live output): [`TelemetryAggregator`] cuts the engine's
//! counters ([`crate::EngineStats`], the one source of every total and
//! window) into fixed-interval windows, [`Watchdog`] runs EWMA-baseline
//! SLO rules over them, and [`spans`] decomposes per-request critical
//! paths from the recorder's events. See DESIGN.md §8 "Observability:
//! recorder + telemetry".
#![deny(clippy::unnecessary_to_owned, clippy::redundant_clone)]

mod export;
pub mod gantt;
mod hist;
pub mod metrics;
mod recorder;
pub mod spans;
mod telemetry;
mod watchdog;

pub use export::{summary, to_chrome_trace, to_jsonl};
pub use hist::Log2Histogram;
pub use metrics::{text_table, to_prometheus, windows_jsonl};
pub use recorder::{Event, EventKind, FlightRecorder, NO_RAIL};
pub use spans::SpanBreakdown;
pub use telemetry::{TelemetryAggregator, Window};
pub use watchdog::{Alert, AlertKind, Watchdog};
