//! Visualize the overlap the strategies create: an ASCII Gantt chart of
//! CPU and rail activity during one transfer, for the greedy strategy
//! below and above the PIO threshold. The chart is drawn from the world's
//! flight recorder: its `sim_cpu`, `sim_nic` and `sim_bus` intervals
//! (`nmad_core::obs::gantt`), the same events `nmad trace` exports.
//!
//! ```text
//! cargo run --release --example timeline
//! ```
//!
//! Below 16 KiB total, the two PIO injections serialize on the single CPU
//! lane (the §3.2 effect); above it the two DMA flows overlap on both
//! rails while the CPU stays almost idle.

use newmadeleine::bytes::Bytes;
use newmadeleine::core::obs::gantt;
use newmadeleine::core::{EngineConfig, StrategyKind};
use newmadeleine::model::platform;
use newmadeleine::runtime_sim::{Script, SimWorld, Step};

fn show(total: usize) {
    let seg = total / 2;
    let payloads = vec![Bytes::from(vec![1u8; seg]), Bytes::from(vec![2u8; seg])];
    let mut world = SimWorld::new(
        &platform::paper_platform(),
        EngineConfig::with_strategy(StrategyKind::Greedy),
        Script::new(vec![Step::Send(payloads)]),
        Script::receiver(1),
    );
    world.enable_recording(1 << 16);
    world.run(1_000_000);
    let chart = gantt::render(&world.merged_events(), world.events_dropped(), 72);
    println!("\n=== greedy, 2 segments x {seg} B (total {total} B) ===\n{chart}");
}

fn main() {
    println!(
        "Lanes: nX.cpu = host CPU of node X; nX.railY = NIC Y of node X.\n\
         Watch how sub-threshold PIO serializes on n0.cpu, while large DMA\n\
         transfers overlap on both rails."
    );
    show(4 << 10); // 2 x 2 KiB: PIO, serialized on the CPU
    show(1 << 20); // 2 x 512 KiB: rendezvous DMA, overlapping rails
}
