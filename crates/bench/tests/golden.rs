//! The committed Table 1 goldens (`tests/golden/`), regenerated and compared
//! byte for byte, so "table1 byte-identical" is checkable from a fresh clone.

use std::path::Path;

use compact_routing::registry::SchemeRegistry;
use routing_bench::{run_table1, to_json, ExperimentConfig, Instances};
use routing_graph::generators::Family;

#[test]
fn table1_matches_the_committed_goldens() {
    // `experiments table1 60 0.5`, but with 100 sampled pairs a scheme for
    // the binary's 4000: two files of 69 KB to review on a re-bless, not two
    // of 2.2 MB. Table, label and header words cover every vertex either way.
    let cfg = ExperimentConfig { n: 60, epsilon: 0.5, seed: 7, pairs: Some(100) };
    let registry = SchemeRegistry::with_defaults();
    for family in [Family::ErdosRenyi, Family::Geometric] {
        let rows = run_table1(&registry, &Instances::generate(family, &cfg), &cfg).unwrap();
        let actual = to_json(&rows).unwrap();

        let name = format!("table1_{}_n60_eps0.5.json", family.name());
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(&name);
        let expected = std::fs::read_to_string(&golden).unwrap();
        if actual != expected {
            let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(&name);
            std::fs::write(&fresh, &actual).unwrap();
            let at = actual.bytes().zip(expected.bytes()).take_while(|(a, b)| a == b).count();
            panic!(
                "{name} differs from the committed golden at byte {at}; if the change is \
                 meant, bless it with\n  cp {} {}",
                fresh.display(),
                golden.display()
            );
        }
    }
}
