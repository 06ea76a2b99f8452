//! # nmad-bench — the figure/table harness
//!
//! One function per figure of the paper's evaluation section; each returns
//! the labelled series of that figure and can render it as an aligned
//! text table (what `cargo bench` prints) and as JSON (written under
//! `target/figures/` for EXPERIMENTS.md). One bench binary runs every
//! experiment by name ([`paper`]):
//! `cargo bench -p nmad-bench --bench paper -- fig2_myri`.
//!
//! | Paper figure | Function | Experiment |
//! |---|---|---|
//! | Fig 2 (a/b) | [`figures::fig2_myri`] | `fig2_myri` |
//! | Fig 3 (a/b) | [`figures::fig3_quadrics`] | `fig3_quadrics` |
//! | Fig 4 (a/b) | [`figures::fig4_greedy2`] | `fig4_greedy2` |
//! | Fig 5 (a/b) | [`figures::fig5_greedy4`] | `fig5_greedy4` |
//! | Fig 6 | [`figures::fig6_aggregate`] | `fig6_aggregate` |
//! | Fig 7 | [`figures::fig7_split`] | `fig7_split` |
//!
//! Plus ablations (`ablate_*`) for the design choices DESIGN.md calls out.

#![warn(missing_docs)]

pub mod calibration;
pub mod figures;
pub mod loadgen;
pub mod obs_bench;
mod pair;
pub mod paper;
pub mod report;
pub mod soak;
pub mod tournament;
pub mod workload;

pub use figures::FigureResult;
pub use report::{render_table, write_json};
