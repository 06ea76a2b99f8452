//! Engine error type.

use nmad_wire::reassembly::ReasmError;
use nmad_wire::WireError;

/// Errors surfaced by the engine to its runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// An incoming packet failed to decode.
    Wire(WireError),
    /// An incoming packet violated reassembly invariants.
    Reassembly(ReasmError),
    /// A packet referenced an unknown connection.
    UnknownConnection(u32),
    /// A rendezvous control packet referenced an unknown message/segment.
    UnknownRendezvous {
        /// Message id in the packet.
        msg_id: u64,
        /// Segment index in the packet.
        seg_index: u16,
    },
    /// A tx-done notification carried a token the engine never issued or
    /// already retired.
    BadToken(u64),
    /// The strategy returned an operation the backlog cannot satisfy
    /// (always a strategy bug; surfaced instead of panicking so the
    /// failure-injection tests can drive hostile strategies).
    InvalidStrategyOp(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Wire(e) => write!(f, "wire error: {e}"),
            EngineError::Reassembly(e) => write!(f, "reassembly error: {e}"),
            EngineError::UnknownConnection(c) => write!(f, "unknown connection {c}"),
            EngineError::UnknownRendezvous { msg_id, seg_index } => {
                write!(f, "unknown rendezvous msg {msg_id} seg {seg_index}")
            }
            EngineError::BadToken(t) => write!(f, "unknown tx token {t}"),
            EngineError::InvalidStrategyOp(what) => {
                write!(f, "strategy returned invalid op: {what}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<WireError> for EngineError {
    fn from(e: WireError) -> Self {
        EngineError::Wire(e)
    }
}

impl From<ReasmError> for EngineError {
    fn from(e: ReasmError) -> Self {
        EngineError::Reassembly(e)
    }
}

/// Why a submission was refused at the admission boundary.
///
/// Returned by [`crate::Engine::try_submit_send`] and
/// `Endpoint::try_send`: a submission is either accepted or the caller
/// is told exactly why not, so it can back off, shed, or stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The engine is overloaded: the tenant is over its admission quota
    /// (see [`crate::EngineConfig::max_tenant_inflight`]). Retry after
    /// completions drain.
    WouldBlock,
    /// The endpoint has shut down; no new work is accepted.
    Shutdown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::WouldBlock => write!(f, "submission refused: overloaded (would block)"),
            SubmitError::Shutdown => write!(f, "submission refused: engine shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: EngineError = WireError::BadMagic(0).into();
        assert!(matches!(e, EngineError::Wire(_)));
        assert!(e.to_string().contains("wire error"));
        let e: EngineError = ReasmError::DuplicateSegment {
            msg_id: 1,
            seg_index: 2,
        }
        .into();
        assert!(e.to_string().contains("reassembly"));
        assert!(EngineError::BadToken(9).to_string().contains('9'));
    }

    #[test]
    fn submit_error_display() {
        assert!(SubmitError::WouldBlock.to_string().contains("would block"));
        assert!(SubmitError::Shutdown.to_string().contains("shutting down"));
    }
}
