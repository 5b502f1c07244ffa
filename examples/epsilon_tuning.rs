//! Scenario: choosing `ε`. The `1/ε` factor in the table bounds is the knob
//! an operator turns: smaller `ε` means longer stored sequences (more state)
//! and tighter paths. This example sweeps `ε` on a grid-like metro network
//! and prints the realized trade-off for the warm-up scheme.
//!
//! Run with: `cargo run --release --example epsilon_tuning`

use compact_routing::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_core::SchemeMultilevel;
use routing_graph::apsp::DistanceMatrix;
use routing_model::eval::{evaluate, PairSelection};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = generators::grid(18, 18);
    println!("metro grid: {} stations, {} segments", g.n(), g.m());
    let exact = DistanceMatrix::new(&g);

    println!("{:>8} {:>12} {:>12} {:>10} {:>10}", "epsilon", "table max", "table mean", "max str", "mean str");
    for &eps in &[2.0, 1.0, 0.5, 0.25] {
        let mut rng = StdRng::seed_from_u64(5);
        let params = Params::with_epsilon(eps);
        let scheme = SchemeMultilevel::build(&g, 1, "warmup", &params, &mut rng)?;
        let report = evaluate(&g, &scheme, &exact, PairSelection::Sampled(3000), &mut rng)?;
        println!(
            "{:>8} {:>12} {:>12.1} {:>10.3} {:>10.3}",
            eps,
            report.table.max(),
            report.table.mean(),
            report.stretch.max_multiplicative().unwrap_or(1.0),
            report.stretch.mean_multiplicative().unwrap_or(1.0)
        );
    }
    Ok(())
}
