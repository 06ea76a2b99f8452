//! Every experiment of the paper and its ablations, run by name (the
//! table is `nmad_bench::paper`):
//! `cargo bench -p nmad-bench --bench paper -- fig2_myri`; no name runs
//! them all.
fn main() {
    let (experiments, opts) =
        nmad_bench::paper::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    for e in experiments {
        nmad_bench::paper::run(e, &opts);
    }
}
