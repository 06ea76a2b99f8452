//! The only file that names the `newmadeleine` API.
//!
//! Everything the benchmark needs from the library goes through the thin
//! forwarding types below, so a later change that collapses runtimes,
//! strategies or stats edits this file (if anything) and nothing else.
//! The surface is deliberately small: default engine configuration, the
//! paper platform, the two transports' pair constructors, the endpoint
//! send/receive calls with their handles, the engine's driver contract
//! from the `nmad-core` crate doc-test, `crc32`, and frame decoding.
//!
//! No runtime selector (`parallel`, `reactor`, `serial_idle_poll_us`) is
//! set and no `EngineStats` field is read: a changed default shows up as
//! a measured difference, not as a compile error here.

use std::io;
use std::time::Duration;

pub use newmadeleine::bytes::Bytes;
use newmadeleine::core::{Engine, EngineConfig, RecvId, SendId, TxToken};
use newmadeleine::model::{platform, RailId};
use newmadeleine::transport_mem as mem;
use newmadeleine::transport_tcp as tcp;
use newmadeleine::wire::{checksum, ConnId, PacketFrame};

/// Which real transport carries a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// One loopback TCP connection per rail (`transport-tcp`).
    Tcp,
    /// The unshaped live-thread in-process fabric (`transport-mem`).
    Mem,
}

impl Transport {
    /// The transport's name in the ledger line and the trace file.
    pub fn layer(self) -> &'static str {
        match self {
            Transport::Tcp => "tcp",
            Transport::Mem => "mem",
        }
    }
}

/// One endpoint of a connected pair, with its single logical channel.
pub enum End {
    /// `transport-tcp` endpoint.
    Tcp(tcp::Endpoint, ConnId),
    /// `transport-mem` endpoint.
    Mem(mem::Endpoint, ConnId),
}

/// A send in flight.
pub enum Tx {
    /// `transport-tcp` handle.
    Tcp(tcp::SendHandle),
    /// `transport-mem` handle.
    Mem(mem::SendHandle),
}

/// A posted receive.
pub enum Rx {
    /// `transport-tcp` handle.
    Tcp(tcp::RecvHandle),
    /// `transport-mem` handle.
    Mem(mem::RecvHandle),
}

/// Build a connected pair on the paper's two-rail platform with the
/// library's default engine configuration.
pub fn pair(transport: Transport) -> io::Result<(End, End)> {
    let platform = platform::paper_platform();
    let engine = EngineConfig::default();
    match transport {
        Transport::Tcp => {
            let (a, b) = tcp::pair_localhost(tcp::TcpConfig::new(platform, engine))?;
            let (ca, cb) = (a.conns()[0], b.conns()[0]);
            Ok((End::Tcp(a, ca), End::Tcp(b, cb)))
        }
        Transport::Mem => {
            let (a, b) = mem::pair(mem::FabricConfig::new(platform, engine));
            let (ca, cb) = (a.conns()[0], b.conns()[0]);
            Ok((End::Mem(a, ca), End::Mem(b, cb)))
        }
    }
}

impl End {
    /// `Endpoint::send` on the endpoint's channel.
    pub fn send(&self, segments: Vec<Bytes>) -> Tx {
        match self {
            End::Tcp(e, c) => Tx::Tcp(e.send(*c, segments)),
            End::Mem(e, c) => Tx::Mem(e.send(*c, segments)),
        }
    }

    /// `Endpoint::recv` on the endpoint's channel.
    pub fn recv(&self) -> Rx {
        match self {
            End::Tcp(e, c) => Rx::Tcp(e.recv(*c)),
            End::Mem(e, c) => Rx::Mem(e.recv(*c)),
        }
    }
}

impl Tx {
    /// `SendHandle::wait`: true once the send completed locally.
    pub fn wait(&self, timeout: Duration) -> bool {
        match self {
            Tx::Tcp(h) => h.wait(timeout),
            Tx::Mem(h) => h.wait(timeout),
        }
    }
}

impl Rx {
    /// `RecvHandle::wait`: the delivered segments, or `None` on timeout.
    /// A zero timeout polls once.
    pub fn wait(&self, timeout: Duration) -> Option<Vec<Bytes>> {
        match self {
            Rx::Tcp(h) => h.wait(timeout),
            Rx::Mem(h) => h.wait(timeout),
        }
        .map(|m| m.segments)
    }
}

/// An encoded frame as returned by `Engine::next_tx`.
#[derive(Clone)]
pub struct Frame(PacketFrame);

impl Frame {
    /// `PacketFrame::wire_len`.
    pub fn wire_len(&self) -> usize {
        self.0.wire_len()
    }

    /// `PacketFrame::decode` (envelope, body and CRC check); true on success.
    pub fn decode_ok(&self) -> bool {
        self.0.decode().is_ok()
    }
}

/// One `next_tx` decision.
pub struct Decision {
    token: TxToken,
    /// The frame to move to the peer.
    pub frame: Frame,
}

/// Ticket of a submitted send.
#[derive(Clone, Copy)]
pub struct SendTicket(SendId);

/// Ticket of a posted receive.
#[derive(Clone, Copy)]
pub struct RecvTicket(RecvId);

/// A bare `Engine` with one open channel, for the benchmark's own
/// single-threaded loop runtime. The configuration is the library default
/// plus payload CRCs, which both transports force on as well, so the
/// loop's `next_tx`/`on_frame` do the same per-byte work as a real run.
pub struct CoreEngine {
    eng: Engine,
    conn: ConnId,
    rails: usize,
}

impl CoreEngine {
    /// `Engine::new` + `conn_open` on the paper platform's rails.
    pub fn new() -> Self {
        let cfg = EngineConfig {
            crc: true,
            ..EngineConfig::default()
        };
        let rails = platform::paper_platform().rails;
        let n = rails.len();
        let mut eng = Engine::new(cfg, rails, vec![]);
        let conn = eng.conn_open();
        CoreEngine {
            eng,
            conn,
            rails: n,
        }
    }

    /// Number of rails the loop must offer.
    pub fn rails(&self) -> usize {
        self.rails
    }

    /// `Engine::submit_send`.
    pub fn submit(&mut self, segments: Vec<Bytes>) -> SendTicket {
        SendTicket(self.eng.submit_send(self.conn, segments))
    }

    /// `Engine::post_recv`.
    pub fn post_recv(&mut self) -> RecvTicket {
        RecvTicket(self.eng.post_recv(self.conn))
    }

    /// `Engine::next_tx`; an engine error is a benchmark failure.
    pub fn next_tx(&mut self, rail: usize) -> Result<Option<Decision>, String> {
        match self.eng.next_tx(RailId(rail)) {
            Ok(d) => Ok(d.map(|d| Decision {
                token: d.token,
                frame: Frame(d.frame),
            })),
            Err(e) => Err(format!("next_tx: {e:?}")),
        }
    }

    /// `Engine::on_tx_done`.
    pub fn on_tx_done(&mut self, rail: usize, d: &Decision) -> Result<(), String> {
        self.eng
            .on_tx_done(RailId(rail), d.token)
            .map(|_| ())
            .map_err(|e| format!("on_tx_done: {e:?}"))
    }

    /// `Engine::on_frame`.
    pub fn on_frame(&mut self, rail: usize, frame: &Frame) -> Result<(), String> {
        self.eng
            .on_frame(RailId(rail), &frame.0)
            .map(|_| ())
            .map_err(|e| format!("on_frame: {e:?}"))
    }

    /// `Engine::try_recv`.
    pub fn try_recv(&mut self, t: RecvTicket) -> Option<Vec<Bytes>> {
        self.eng.try_recv(t.0).map(|m| m.segments)
    }

    /// `Engine::send_complete`.
    pub fn send_complete(&self, t: SendTicket) -> bool {
        self.eng.send_complete(t.0)
    }
}

/// `wire::checksum::crc32`.
pub fn crc32(data: &[u8]) -> u32 {
    checksum::crc32(data)
}
