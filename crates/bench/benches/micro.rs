//! Criterion micro-benchmarks of the engine's hot paths: wire
//! encode/decode, aggregation staging, chunk reassembly, CRC, fluid-bus
//! rate recomputation, sampled-ratio computation, and a full strategy
//! decision.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use nmad_core::sampling::{default_ladder, split_weights};
use nmad_core::{Engine, EngineConfig, PerfTable, StrategyKind};
use nmad_model::{platform, RailId};
use nmad_sim::{FluidChannel, SimTime};
use nmad_wire::agg::{parse_aggregate, AggregateBuilder};
use nmad_wire::checksum::crc32;
use nmad_wire::header::{EagerPacket, Packet};
use nmad_wire::reassembly::Reassembler;
use nmad_wire::split::SplitPlan;

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    for &size in &[64usize, 4096] {
        let pkt = Packet::Eager(EagerPacket {
            msg_id: 1,
            seg_index: 0,
            total_segs: 1,
            data: Bytes::from(vec![0xA5; size]),
        });
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("encode_eager_{size}B"), |b| {
            b.iter(|| black_box(pkt.encode(1, 2, false)))
        });
        let wire = pkt.encode(1, 2, true);
        g.bench_function(format!("decode_eager_crc_{size}B"), |b| {
            b.iter(|| black_box(Packet::decode(&wire).unwrap()))
        });
    }
    g.finish();
}

fn bench_aggregate(c: &mut Criterion) {
    let mut g = c.benchmark_group("aggregate");
    for &n in &[2usize, 8, 32] {
        g.bench_function(format!("build_{n}x256B"), |b| {
            b.iter(|| {
                let mut builder = AggregateBuilder::new();
                for i in 0..n {
                    builder.push(0, i as u64, 0, 1, &Bytes::from(vec![i as u8; 256]));
                }
                black_box(builder.finish())
            })
        });
        let mut builder = AggregateBuilder::new();
        for i in 0..n {
            builder.push(0, i as u64, 0, 1, &Bytes::from(vec![i as u8; 256]));
        }
        let Packet::Aggregate(body) = builder.finish() else {
            unreachable!()
        };
        g.bench_function(format!("parse_{n}x256B"), |b| {
            b.iter(|| black_box(parse_aggregate(&body).unwrap()))
        });
    }
    g.finish();
}

fn bench_reassembly(c: &mut Criterion) {
    let payload = Bytes::from(vec![7u8; 1 << 20]);
    let chunk = payload.len() / 16;
    let slices: Vec<Bytes> = (0..16)
        .map(|i| payload.slice(i * chunk..(i + 1) * chunk))
        .collect();
    // The two ends of reassembly by reference: chunks that arrive in
    // allocations of their own (TCP frames) are gathered once, slices of
    // one allocation (mem, sim) re-join and nothing is copied.
    let copies: Vec<Bytes> = slices.iter().map(|s| Bytes::copy_from_slice(s)).collect();
    for (name, chunks) in [("chunks", &copies), ("slices", &slices)] {
        c.bench_function(format!("reassembly/1MB_in_16_{name}"), |b| {
            b.iter(|| {
                let mut r = Reassembler::new();
                let mut done = None;
                for (i, data) in chunks.iter().enumerate() {
                    let (off, len) = ((i * chunk) as u64, payload.len() as u64);
                    done = r.insert_chunk(1, 0, 1, off, len, data.clone()).unwrap();
                }
                black_box(done.and_then(|()| r.take(1)).unwrap())
            })
        });
    }
}

fn bench_crc(c: &mut Criterion) {
    let data = vec![0x5Au8; 64 * 1024];
    let mut g = c.benchmark_group("crc32");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("64KiB", |b| b.iter(|| black_box(crc32(&data))));
    g.finish();
}

fn bench_fluid(c: &mut Criterion) {
    c.bench_function("fluid/add_complete_8_flows", |b| {
        b.iter(|| {
            let mut ch = FluidChannel::new("bus", 1.95e9);
            let mut t = SimTime::ZERO;
            for _ in 0..8 {
                ch.add_flow(t, 1 << 20, 1.2e9);
            }
            while let Some((id, when, _)) = ch.next_completion() {
                t = when.max(t);
                ch.try_complete(t, id);
            }
            black_box(ch.delivered_bytes())
        })
    });
}

fn bench_split_weights(c: &mut Criterion) {
    let ladder = default_ladder();
    let myri = PerfTable::from_analytic(&platform::myri_10g(), &ladder);
    let quad = PerfTable::from_analytic(&platform::quadrics_qm500(), &ladder);
    c.bench_function("sampling/split_weights_8MB", |b| {
        b.iter(|| black_box(split_weights([&myri, &quad], 8 << 20)))
    });
    c.bench_function("split_plan/by_ratio_8MB", |b| {
        b.iter(|| black_box(SplitPlan::by_ratio(8 << 20, [1202.0, 851.0], 8192)))
    });
}

fn bench_strategy_decision(c: &mut Criterion) {
    // Full engine decision cost: submit small messages, measure next_tx.
    c.bench_function("engine/next_tx_aggregate_8_smalls", |b| {
        let p = platform::paper_platform();
        b.iter(|| {
            let mut e = Engine::new(
                EngineConfig::with_strategy(StrategyKind::AdaptiveSplit),
                p.rails.clone(),
                vec![],
            );
            let conn = e.conn_open();
            for i in 0..8u8 {
                e.submit_send(conn, vec![Bytes::from(vec![i; 256])]);
            }
            black_box(e.next_tx(RailId(1)).unwrap())
        })
    });
}

criterion_group!(
    benches,
    bench_wire,
    bench_aggregate,
    bench_reassembly,
    bench_crc,
    bench_fluid,
    bench_split_weights,
    bench_strategy_decision
);
criterion_main!(benches);
