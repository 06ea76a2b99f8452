//! The transmit-layer contract between the engine and its runtime.
//!
//! The engine never performs I/O. When a rail is idle the runtime calls
//! [`crate::Engine::next_tx`]; if work exists it receives a [`TxDecision`]:
//! an encoded scatter-gather frame plus the cost metadata the runtime
//! needs to model (or actually perform) the transfer. When the injection
//! finishes, the runtime hands the decision's [`TxToken`] back via
//! [`crate::Engine::on_tx_done`].

use nmad_model::TxMode;
use nmad_wire::PacketFrame;

/// Opaque identifier of an in-flight tx decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TxToken(pub u64);

/// One scheduled transmission, returned by [`crate::Engine::next_tx`].
#[derive(Clone, Debug)]
pub struct TxDecision {
    /// Token to return via `on_tx_done`.
    pub token: TxToken,
    /// Encoded wire image as a scatter-gather frame: an owned
    /// envelope+header head part followed by refcounted payload slices.
    /// Runtimes that can gather (vectored writes, modelled DMA) transmit
    /// the parts directly; [`PacketFrame::to_bytes`] flattens for those
    /// that cannot.
    ///
    /// Invariant: a placeholder decision carries
    /// [`PacketFrame::empty()`] — zero parts, zero `wire_len()` — so
    /// pooled-buffer and copy accounting never see phantom bytes.
    pub frame: PacketFrame,
    /// Transmission regime on the chosen rail — the runtime models PIO as
    /// CPU-occupying and DMA as bus traffic.
    pub mode: TxMode,
    /// Bytes the engine memcpy'd into a staging buffer to build this
    /// packet (sub-PIO aggregation staging only). The runtime charges CPU
    /// time for them.
    pub copied_bytes: usize,
    /// True when this is a control packet (runtime may trace differently).
    pub control: bool,
    /// True for a data frame made only of eager segments below
    /// `EngineConfig::min_chunk` — one of them, or an aggregate: the kind
    /// that comes in bursts and that the strategies merge. A runtime
    /// whose rail took one may let the submissions that follow at once
    /// accumulate in the backlog ([`crate::Engine::tx_can_wait`]).
    pub small_eager: bool,
}

impl TxDecision {
    /// Total bytes that will cross the wire.
    pub fn wire_len(&self) -> usize {
        self.frame.wire_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_reflects_frame() {
        use bytes::Bytes;
        let d = TxDecision {
            token: TxToken(1),
            frame: PacketFrame::from_wire(Bytes::from(vec![0u8; 40])),
            mode: TxMode::Pio,
            copied_bytes: 0,
            control: false,
            small_eager: false,
        };
        assert_eq!(d.wire_len(), 40);
    }

    #[test]
    fn placeholder_frame_counts_no_phantom_bytes() {
        let d = TxDecision {
            token: TxToken(0),
            frame: PacketFrame::empty(),
            mode: TxMode::Pio,
            copied_bytes: 0,
            control: false,
            small_eager: false,
        };
        assert_eq!(d.wire_len(), 0);
        assert!(d.frame.is_empty());
    }
}
