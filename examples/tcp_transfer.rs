//! The engine over real TCP sockets — the paper's "legacy socket API on
//! top of TCP/IP" driver (§2), with two sockets acting as two rails.
//!
//! ```text
//! cargo run --release --example tcp_transfer
//! ```
//!
//! A large message is striped over both sockets by the adaptive strategy
//! (poor man's multi-rail); integrity is verified end to end with CRCs.
//! Prints the metric table of both ends.

use std::time::{Duration, Instant};

use newmadeleine::bytes::Bytes;
use newmadeleine::core::obs::text_table;
use newmadeleine::core::{EngineConfig, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::sim::Xoshiro256StarStar;
use newmadeleine::transport_tcp::{pair_localhost, TcpConfig};

fn main() {
    let (server, client) = pair_localhost(TcpConfig::new(
        platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
    ))
    .expect("localhost TCP pair");
    let conn = server.conns()[0];
    let timeout = Duration::from_secs(30);

    let mut rng = Xoshiro256StarStar::new(1973);
    let mut payload = vec![0u8; 4 << 20];
    rng.fill_bytes(&mut payload);

    let start = Instant::now();
    let recv = client.recv(conn);
    let send = server.send(conn, vec![Bytes::from(payload.clone())]);
    assert!(send.wait(timeout), "send timed out");
    let msg = recv.wait(timeout).expect("recv timed out");
    assert_eq!(msg.segments[0].as_ref(), payload.as_slice());
    let elapsed = start.elapsed();

    println!(
        "{} bytes over 2 real TCP sockets in {:?} ({:.0} MB/s wall)",
        payload.len(),
        elapsed,
        payload.len() as f64 / elapsed.as_secs_f64() / 1e6
    );
    // The metric table of each end (`rdv_handshakes`, `chunks_sent`, the
    // per-rail `payload_share` among them), busy shares over the run.
    let span_ns = elapsed.as_nanos() as u64;
    for (name, end) in [("sender", &server), ("receiver", &client)] {
        println!("{name}:");
        print!("{}", text_table(&end.stats(), span_ns));
    }
    // The fabric's own counters, not the engine's.
    println!(
        "rx integrity: {} CRC errors, {} socket errors",
        client.rx_errors(),
        client.io_errors()
    );
}
