//! Wire-compatibility pins for the legacy dense scenario format.
//!
//! The two fixture files were written by the pre-CSR release (dense
//! APs × users `link`/`signal` matrices on the wire). They pin two
//! guarantees at once:
//!
//! 1. **Legacy files still load** — the dense fallback read path parses
//!    them into the CSR [`mcast_topology::Scenario`].
//! 2. **Generation is unchanged** — regenerating from the embedded
//!    config gives the scenario the fixture holds, compared on the sparse
//!    wire, so the CSR refactor moved storage without moving semantics.

use mcast_topology::{Scenario, ScenarioConfig};

const FIXTURES: [&str; 2] = ["dense_small.json", "dense_mid.json"];

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn check_fixture(name: &str) {
    // 1. The dense wire still loads.
    let scenario: Scenario = serde_json::from_str(&fixture(name)).expect("legacy dense file loads");
    // 2. Re-generating from the embedded config reproduces it.
    let regen = scenario.config.generate();
    assert_eq!(
        serde_json::to_string(&regen).unwrap(),
        serde_json::to_string(&scenario).unwrap(),
        "{name}: generation drifted"
    );
}

#[test]
fn dense_small_fixture_loads_and_regenerates() {
    check_fixture(FIXTURES[0]);
}

#[test]
fn dense_mid_fixture_loads_and_regenerates() {
    check_fixture(FIXTURES[1]);
}

#[test]
fn sparse_wire_roundtrips_the_legacy_fixtures() {
    for name in FIXTURES {
        let scenario: Scenario = serde_json::from_str(&fixture(name)).unwrap();
        // Dense-loaded scenario -> sparse wire -> load -> sparse wire:
        // stable after one hop.
        let sparse = serde_json::to_string(&scenario).unwrap();
        assert!(
            sparse.contains("mcast-instance/v1"),
            "{name}: default write path must be the sparse wire"
        );
        assert!(
            !sparse.contains("\"link\":"),
            "{name}: sparse wire must not carry dense matrices"
        );
        let back: Scenario = serde_json::from_str(&sparse).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), sparse);
    }
}

#[test]
fn scenario_config_defaults_match_fixture_configs() {
    // The fixtures embed full configs; spot-check the fields the README
    // documents so a default drift fails loudly here, not in CI diffing.
    let small: Scenario = serde_json::from_str(&fixture(FIXTURES[0])).unwrap();
    assert_eq!(small.config.n_aps, 12);
    assert_eq!(small.config.n_users, 30);
    assert_eq!(small.config.seed, 7);
    let paper = ScenarioConfig::paper_default();
    assert_eq!(small.config.rate_table, paper.rate_table);
    assert_eq!(small.config.width_m, paper.width_m);
}
