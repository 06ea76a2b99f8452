//! A bare engine pair: two engines over the paper platform's rails, wired
//! back to back with no runtime and no simulator (the simulator charges
//! virtual time, which hides real CPU cost). What the wall-clock
//! ablation `ablate_obs` times.

use std::time::Instant;

use bytes::Bytes;
use nmad_core::engine::Engine;
use nmad_core::EngineConfig;
use nmad_model::{platform, RailId};

/// Two engines configured by `cfg`, conn 0 open on each.
pub(crate) fn engines(cfg: &EngineConfig) -> (Engine, Engine) {
    let mk = || Engine::new(cfg.clone(), platform::paper_platform().rails, vec![]);
    let (mut a, mut b) = (mk(), mk());
    a.conn_open();
    b.conn_open();
    (a, b)
}

/// Drive both engines until neither makes progress.
fn pump(a: &mut Engine, b: &mut Engine) {
    for _ in 0..1_000_000 {
        let mut progressed = false;
        for dir in 0..2 {
            let (tx, rx) = if dir == 0 {
                (&mut *a, &mut *b)
            } else {
                (&mut *b, &mut *a)
            };
            for r in 0..2 {
                let rail = RailId(r);
                if let Some(d) = tx.next_tx(rail).expect("next_tx") {
                    progressed = true;
                    tx.on_tx_done(rail, d.token).expect("tx_done");
                    rx.on_frame(rail, &d.frame).expect("on_frame");
                }
            }
        }
        if !progressed {
            return;
        }
    }
    panic!("engines did not quiesce");
}

/// Send one message from `a` to `b` and pump until both are quiet;
/// returns the wall-clock ns it took.
pub(crate) fn timed_send(a: &mut Engine, b: &mut Engine, payload: &Bytes) -> u64 {
    let start = Instant::now();
    b.post_recv(0);
    a.submit_send(0, vec![payload.clone()]);
    pump(a, b);
    start.elapsed().as_nanos() as u64
}
