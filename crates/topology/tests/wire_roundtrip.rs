//! Property tests for the three scenario wire formats and generation:
//!
//! * sparse JSON (the default wire) roundtrips a generated scenario;
//! * legacy dense JSON (`to_legacy_dense_value`) parses back into the
//!   byte-identical scenario — dense JSON ↔ CSR `Instance` is lossless;
//! * `.mcb` (compact binary) roundtrips through a real file;
//! * grid generation is byte-identical to the all-pairs reference for
//!   arbitrary configs (Zipf popularity, basic-only rates, per-session
//!   rates, coverage off), and rejects the same configs.

use proptest::prelude::*;

use mcast_core::{Kbps, Load, RatePolicy};
use mcast_topology::{read_mcb, write_mcb, Scenario, ScenarioConfig, SessionPopularity};

fn config() -> impl Strategy<Value = ScenarioConfig> {
    (
        0u64..u64::MAX,
        1usize..16,
        0usize..40,
        1usize..4,
        100.0f64..900.0,
        (
            proptest::bool::ANY,
            proptest::bool::ANY,
            proptest::bool::ANY,
        ),
        850u32..1000,
    )
        .prop_map(
            |(seed, n_aps, n_users, n_sessions, side, (basic_only, zipf, coverage), permille)| {
                ScenarioConfig {
                    n_aps,
                    n_users,
                    n_sessions,
                    width_m: side,
                    height_m: side,
                    budget: Load::permille(permille),
                    rate_policy: if basic_only {
                        RatePolicy::BasicOnly
                    } else {
                        RatePolicy::MultiRate
                    },
                    popularity: if zipf {
                        SessionPopularity::Zipf { exponent: 1.1 }
                    } else {
                        SessionPopularity::Uniform
                    },
                    session_rates: (n_sessions == 3)
                        .then(|| vec![Kbps::from_mbps(1), Kbps::from_mbps(2), Kbps(512)]),
                    require_coverage: coverage,
                    ..ScenarioConfig::paper_default()
                }
                .with_seed(seed)
            },
        )
}

fn sparse_json(sc: &Scenario) -> String {
    serde_json::to_string(sc).expect("scenario serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_and_dense_json_roundtrip_the_instance(cfg in config()) {
        let sc = cfg.generate();
        let sparse = sparse_json(&sc);

        // Sparse wire: parse → re-emit is byte-identical.
        let reloaded: Scenario = serde_json::from_str(&sparse).expect("sparse wire loads");
        prop_assert_eq!(&sparse_json(&reloaded), &sparse, "sparse roundtrip drifted");

        // Dense wire: legacy emit → fallback read → same scenario.
        let dense = serde_json::to_string(&sc.to_legacy_dense_value()).unwrap();
        let from_dense: Scenario = serde_json::from_str(&dense).expect("dense wire loads");
        prop_assert_eq!(&sparse_json(&from_dense), &sparse, "dense roundtrip drifted");
        // And the dense emit itself is stable across the hop.
        let dense_again = serde_json::to_string(&from_dense.to_legacy_dense_value()).unwrap();
        prop_assert_eq!(dense_again, dense, "dense emit drifted after a hop");
    }

    #[test]
    fn mcb_roundtrips_the_scenario(cfg in config()) {
        let sc = cfg.generate();
        let path = std::env::temp_dir().join(format!(
            "mcast_wire_prop_{}_{}.mcb",
            std::process::id(),
            cfg.seed
        ));
        write_mcb(&sc, &path).expect("mcb writes");
        let reloaded = read_mcb(&path).expect("mcb reads");
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(sparse_json(&reloaded), sparse_json(&sc), "mcb roundtrip drifted");
    }

    #[test]
    fn generation_matches_all_pairs_reference(cfg in config()) {
        match (cfg.try_generate(), cfg.try_generate_reference()) {
            (Ok(fast), Ok(slow)) => {
                prop_assert_eq!(sparse_json(&fast), sparse_json(&slow), "grid generation drifted");
            }
            (Err(fast), Err(slow)) => prop_assert_eq!(fast, slow),
            (fast, slow) => prop_assert!(
                false,
                "paths disagree on validity: grid {:?}, reference {:?}",
                fast.is_ok(),
                slow.is_ok()
            ),
        }
    }
}
