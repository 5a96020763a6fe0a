//! Property tests for the three scenario wire formats and generation:
//!
//! * sparse JSON (the default wire) roundtrips a generated scenario;
//! * legacy dense JSON (rebuilt here from the sparse wire by
//!   [`dense_json`]) loads as the same scenario, compared on the sparse
//!   wire — the dense reader is lossless;
//! * `.mcb` (compact binary) roundtrips through a real file;
//! * grid generation is byte-identical to the all-pairs reference for
//!   arbitrary configs (Zipf popularity, basic-only rates, per-session
//!   rates, coverage off), and rejects the same configs.

use proptest::prelude::*;

use mcast_core::{Kbps, Load, RatePolicy};
use mcast_topology::{read_mcb, write_mcb, Scenario, ScenarioConfig, SessionPopularity};
use serde::{Serialize, Value};

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

/// `sc` on the pre-v1 dense wire: the instance's sparse links spread
/// into AP-major `link`/`signal` matrices. The reader requires the
/// `user_aps`/`ap_users` lists but rebuilds them, so they stay empty.
fn dense_json(sc: &Scenario) -> String {
    let sparse = sc.instance.serialize_value();
    let field = |key: &str| sparse.get(key).expect("sparse instance field").clone();
    let (Value::Array(users), Value::Array(budgets), Value::Array(off), Value::Array(links)) = (
        field("users"),
        field("budgets"),
        field("user_off"),
        field("links"),
    ) else {
        panic!("unexpected sparse instance shape");
    };
    let int = |v: &Value| match v {
        Value::Int(i) => *i as usize,
        other => panic!("expected an integer, got {other:?}"),
    };
    let n_users = users.len();
    let mut link = vec![Value::Null; budgets.len() * n_users];
    let mut signal = link.clone();
    for u in 0..n_users {
        for l in &links[int(&off[u])..int(&off[u + 1])] {
            let Value::Array(l) = l else {
                panic!("a link is an [ap, rate, signal] triple");
            };
            let cell = int(&l[0]) * n_users + u;
            link[cell] = l[1].clone();
            signal[cell] = l[2].clone();
        }
    }
    let users = users
        .into_iter()
        .map(|s| Value::Object(vec![("session".into(), s)]))
        .collect();
    let instance = Value::Object(vec![
        ("sessions".into(), field("sessions")),
        ("users".into(), Value::Array(users)),
        ("budgets".into(), Value::Array(budgets)),
        ("link".into(), Value::Array(link)),
        ("signal".into(), Value::Array(signal)),
        ("user_aps".into(), Value::Array(Vec::new())),
        ("ap_users".into(), Value::Array(Vec::new())),
        ("rates".into(), field("rates")),
        ("rate_policy".into(), field("rate_policy")),
    ]);
    let Value::Object(mut scenario) = sc.serialize_value() else {
        panic!("a scenario serializes to an object");
    };
    for (key, value) in &mut scenario {
        if key == "instance" {
            *value = instance.clone();
        }
    }
    serde_json::to_string(&Value::Object(scenario)).expect("dense wire renders")
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

        // Dense wire: fallback read → same scenario on the sparse wire.
        let from_dense: Scenario = serde_json::from_str(&dense_json(&sc)).expect("dense wire loads");
        prop_assert_eq!(&sparse_json(&from_dense), &sparse, "dense roundtrip drifted");
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
