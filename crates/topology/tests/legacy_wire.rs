//! Wire-compatibility pins for the legacy dense scenario format.
//!
//! The two fixture files were written by the pre-CSR release (dense
//! APs × users `link`/`signal` matrices on the wire). They pin three
//! guarantees at once:
//!
//! 1. **Legacy files still load** — the dense fallback read path parses
//!    them into the CSR [`mcast_topology::Scenario`].
//! 2. **Legacy emit is byte-identical** — `to_legacy_dense_value` renders
//!    the loaded scenario back to the exact bytes of the fixture.
//! 3. **Generation is unchanged** — regenerating from the embedded
//!    config reproduces the fixture bytes, so the CSR refactor moved
//!    storage without moving semantics.

use mcast_topology::{Scenario, ScenarioConfig};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn check_fixture(name: &str) {
    let bytes = fixture(name);
    // 1. The dense wire still loads.
    let scenario: Scenario = serde_json::from_str(&bytes).expect("legacy dense file loads");
    // 2. Legacy emit reproduces the file byte for byte.
    let emitted = serde_json::to_string(&scenario.to_legacy_dense_value()).unwrap();
    assert_eq!(emitted, bytes, "{name}: legacy emit drifted");
    // 3. Re-generating from the embedded config reproduces it too.
    let regen = scenario.config.generate();
    let regen_bytes = serde_json::to_string(&regen.to_legacy_dense_value()).unwrap();
    assert_eq!(regen_bytes, bytes, "{name}: generation drifted");
}

#[test]
fn legacy_dense_small_roundtrips_byte_identical() {
    check_fixture("legacy_dense_small.json");
}

#[test]
fn legacy_dense_mid_roundtrips_byte_identical() {
    check_fixture("legacy_dense_mid.json");
}

#[test]
fn sparse_wire_roundtrips_the_legacy_fixtures() {
    for name in ["legacy_dense_small.json", "legacy_dense_mid.json"] {
        let scenario: Scenario = serde_json::from_str(&fixture(name)).unwrap();
        // Dense-loaded scenario -> sparse wire -> load -> sparse wire:
        // stable after one hop, and the legacy emit survives the trip.
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
        assert_eq!(
            serde_json::to_string(&back.to_legacy_dense_value()).unwrap(),
            fixture(name)
        );
    }
}

#[test]
fn scenario_config_defaults_match_fixture_configs() {
    // The fixtures embed full configs; spot-check the fields the README
    // documents so a default drift fails loudly here, not in CI diffing.
    let small: Scenario = serde_json::from_str(&fixture("legacy_dense_small.json")).unwrap();
    assert_eq!(small.config.n_aps, 12);
    assert_eq!(small.config.n_users, 30);
    assert_eq!(small.config.seed, 7);
    let paper = ScenarioConfig::paper_default();
    assert_eq!(small.config.rate_table, paper.rate_table);
    assert_eq!(small.config.width_m, paper.width_m);
}
