//! Scenario: an ISP backbone. Geometric graphs model physically-laid fibre
//! (links exist between nearby points of presence, weights are latencies).
//! The example compares the table size a PoP router needs under the paper's
//! `(5+ε)` scheme, the warm-up `(3+ε)` scheme, the Thorup–Zwick baseline and
//! exact routing — the trade-off a network operator would actually look at.
//!
//! Run with: `cargo run --release --example isp_backbone`

use compact_routing::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use routing_baselines::{ExactScheme, TzRoutingScheme};
use routing_core::{SchemeFivePlusEps, SchemeMultilevel};
use routing_graph::apsp::DistanceMatrix;
use routing_model::eval::{evaluate, PairSelection};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 350;
    let mut rng = StdRng::seed_from_u64(99);
    // Points of presence in a plane; link latency 1..40 ms.
    let g = generators::random_geometric(
        n,
        (10.0 / (std::f64::consts::PI * n as f64)).sqrt(),
        generators::WeightModel::Uniform { lo: 1, hi: 40 },
        &mut rng,
    );
    println!("backbone: {} PoPs, {} links", g.n(), g.m());
    let exact = DistanceMatrix::new(&g);
    let params = Params::with_epsilon(0.25);

    let thm11 = SchemeFivePlusEps::build(&g, &params, &mut rng)?;
    let warmup = SchemeMultilevel::build(&g, 1, "warmup", &params, &mut rng)?;
    let tz2 = TzRoutingScheme::build(&g, 2, &mut rng)?;
    let full = ExactScheme::build(&g)?;

    println!("{:<28} {:>10} {:>12} {:>10} {:>10}", "scheme", "max table", "mean table", "max str", "mean str");
    let show = |name: &str, report: routing_model::eval::EvalReport| {
        println!(
            "{:<28} {:>10} {:>12.1} {:>10.3} {:>10.3}",
            name,
            report.table.max(),
            report.table.mean(),
            report.stretch.max_multiplicative().unwrap_or(1.0),
            report.stretch.mean_multiplicative().unwrap_or(1.0)
        );
    };
    let sel = PairSelection::Sampled(3000);
    show("Thm 11 (5+eps)", evaluate(&g, &thm11, &exact, sel, &mut rng)?);
    show("warm-up (3+eps)", evaluate(&g, &warmup, &exact, sel, &mut rng)?);
    show("Thorup-Zwick k=2 (3)", evaluate(&g, &tz2, &exact, sel, &mut rng)?);
    show("exact shortest path", evaluate(&g, &full, &exact, sel, &mut rng)?);

    println!("\nreading: the 5+eps scheme trades a little stretch for per-PoP state far below the 3-stretch schemes, which is the paper's point.");
    Ok(())
}
