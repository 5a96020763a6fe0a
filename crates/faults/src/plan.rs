//! Declarative fault plans.
//!
//! A [`FaultPlan`] describes *what can go wrong* in a run: AP outage
//! windows, per-message-class control-plane faults, and user churn. Plans
//! are pure data — serializable, comparable, and independent of any
//! simulator — and are turned into a concrete, deterministic schedule by
//! [`FaultPlan::compile`].
//!
//! All times are **microseconds from simulation start** (`u64`), matching
//! the simulator's clock resolution without depending on its `Time` type
//! (the sim crate depends on this one, not the other way around).

use serde::{Deserialize, Serialize};

use mcast_core::{ApId, UserId};

use crate::timeline::{FaultEvent, FaultEventKind, FaultTimeline};

/// Classes of control frames, the granularity at which control-plane
/// faults apply.
///
/// Each class groups a request with its response: faulting either
/// direction of an exchange exercises the same recovery path (the
/// initiator times out and retries on its next wake).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum MessageClass {
    /// ProbeRequest / ProbeResponse (neighbor discovery).
    Probe,
    /// LoadQuery / LoadResponse (the paper's load-information exchange).
    Query,
    /// LockRequest / LockGrant / LockDeny / LockRelease (serialization).
    Lock,
    /// AssocRequest / AssocResponse / Disassoc (ledger mutations).
    Association,
}

impl MessageClass {
    /// All classes, in a fixed order (used for deterministic iteration).
    pub const ALL: [MessageClass; 4] = [
        MessageClass::Probe,
        MessageClass::Query,
        MessageClass::Lock,
        MessageClass::Association,
    ];

    /// A stable lowercase name (used as a JSON/report key).
    pub fn name(self) -> &'static str {
        match self {
            MessageClass::Probe => "probe",
            MessageClass::Query => "query",
            MessageClass::Lock => "lock",
            MessageClass::Association => "association",
        }
    }
}

/// A uniform extra-delay distribution in microseconds.
///
/// `min_us..=max_us` is sampled per affected frame. The default (`0..=0`)
/// adds no delay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DelayJitter {
    /// Smallest extra delay added to an affected frame.
    #[serde(default)]
    pub min_us: u64,
    /// Largest extra delay added to an affected frame.
    #[serde(default)]
    pub max_us: u64,
}

impl DelayJitter {
    /// No extra delay.
    pub fn none() -> DelayJitter {
        DelayJitter::default()
    }

    /// True if this jitter never delays anything.
    pub fn is_none(&self) -> bool {
        self.max_us == 0
    }
}

/// Fault distribution for one [`MessageClass`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MessageFaults {
    /// Probability that a frame of this class is silently dropped.
    #[serde(default)]
    pub drop_prob: f64,
    /// Probability that a delivered frame is delivered a second time
    /// (duplication, e.g. a retransmit whose ACK was lost).
    #[serde(default)]
    pub dup_prob: f64,
    /// Extra in-flight delay added to every frame of this class.
    #[serde(default)]
    pub jitter: DelayJitter,
}

impl MessageFaults {
    /// No faults for this class.
    pub fn none() -> MessageFaults {
        MessageFaults::default()
    }

    /// True if this class is fault-free.
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0 && self.dup_prob == 0.0 && self.jitter.is_none()
    }
}

/// A scheduled AP outage window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApOutage {
    /// The AP that goes down.
    pub ap: ApId,
    /// When it goes down (µs from simulation start).
    pub down_at_us: u64,
    /// When it comes back, if ever (µs from simulation start).
    #[serde(default)]
    pub up_at_us: Option<u64>,
}

/// Random (unscheduled) AP failures, compiled into concrete outage
/// windows by [`FaultPlan::compile`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomApFailures {
    /// Probability that each AP fails once during the horizon.
    pub failure_prob: f64,
    /// Mean downtime; actual downtime is uniform in `[0.5, 1.5] × mean`.
    pub mean_downtime_us: u64,
}

/// A scheduled user departure (the user powers off and never returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserDeparture {
    /// The departing user.
    pub user: UserId,
    /// When they leave (µs from simulation start).
    pub at_us: u64,
}

/// A scheduled position jump: the user's neighbor set is re-rolled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UserJump {
    /// The moving user.
    pub user: UserId,
    /// When they move (µs from simulation start).
    pub at_us: u64,
}

/// User churn and mobility.
///
/// Explicit departures/jumps fire exactly as listed; the probabilistic
/// knobs add one departure/jump per selected user at a seed-determined
/// time inside the middle 80% of the horizon.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Scheduled departures.
    #[serde(default)]
    pub departures: Vec<UserDeparture>,
    /// Scheduled position jumps.
    #[serde(default)]
    pub jumps: Vec<UserJump>,
    /// Probability that each user departs once during the horizon.
    #[serde(default)]
    pub departure_prob: f64,
    /// Probability that each user jumps once during the horizon.
    #[serde(default)]
    pub jump_prob: f64,
    /// When a user jumps, each candidate link survives with this
    /// probability (re-rolled per jump). `0` is treated as the default
    /// of `0.5` by the simulator's mobility model.
    #[serde(default)]
    pub link_keep_prob: f64,
}

impl ChurnModel {
    /// No churn.
    pub fn none() -> ChurnModel {
        ChurnModel::default()
    }

    /// True if no user ever departs or moves.
    pub fn is_none(&self) -> bool {
        self.departures.is_empty()
            && self.jumps.is_empty()
            && self.departure_prob == 0.0
            && self.jump_prob == 0.0
    }
}

/// A complete, seedable description of everything that goes wrong in a
/// run.
///
/// `FaultPlan::none()` is the identity plan: a simulator given it must
/// behave *event-for-event* identically to one with no fault layer at
/// all (a property the sim crate tests).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every random draw the plan implies (compilation and the
    /// simulator's per-frame fault rolls). Independent of the scenario
    /// and protocol seeds so fault patterns can be varied in isolation.
    #[serde(default)]
    pub seed: u64,
    /// Scheduled AP outage windows.
    #[serde(default)]
    pub ap_outages: Vec<ApOutage>,
    /// Random AP failures, if any.
    #[serde(default)]
    pub random_ap_failures: Option<RandomApFailures>,
    /// Faults on neighbor-discovery frames.
    #[serde(default)]
    pub probe: MessageFaults,
    /// Faults on load-query/response frames.
    #[serde(default)]
    pub query: MessageFaults,
    /// Faults on lock-protocol frames.
    #[serde(default)]
    pub lock: MessageFaults,
    /// Faults on association frames.
    #[serde(default)]
    pub association: MessageFaults,
    /// User churn and mobility.
    #[serde(default)]
    pub churn: ChurnModel,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The identity plan: nothing goes wrong.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            ap_outages: Vec::new(),
            random_ap_failures: None,
            probe: MessageFaults::none(),
            query: MessageFaults::none(),
            lock: MessageFaults::none(),
            association: MessageFaults::none(),
            churn: ChurnModel::none(),
        }
    }

    /// True if this plan injects no faults at all.
    pub fn is_none(&self) -> bool {
        self.ap_outages.is_empty()
            && self.random_ap_failures.is_none()
            && !self.has_message_faults()
            && self.churn.is_none()
    }

    /// True if any message class has a non-trivial fault distribution.
    pub fn has_message_faults(&self) -> bool {
        MessageClass::ALL
            .iter()
            .any(|&c| !self.faults_for(c).is_none())
    }

    /// The fault distribution for a message class.
    pub fn faults_for(&self, class: MessageClass) -> &MessageFaults {
        match class {
            MessageClass::Probe => &self.probe,
            MessageClass::Query => &self.query,
            MessageClass::Lock => &self.lock,
            MessageClass::Association => &self.association,
        }
    }

    /// The effective link-survival probability for mobility jumps.
    pub fn link_keep_prob(&self) -> f64 {
        if self.churn.link_keep_prob > 0.0 {
            self.churn.link_keep_prob
        } else {
            0.5
        }
    }

    /// Structural validation against an instance with `n_aps` APs and
    /// `n_users` users over a `horizon_us`-microsecond run.
    ///
    /// [`FaultPlan::compile`] is forgiving — it silently skips events it
    /// cannot schedule so hand-built plans stay usable in tests. Load
    /// paths (CLI `--plan` files, controller construction) call this
    /// first so that a typo'd AP id or an impossible probability is a
    /// named error instead of a silently weaker fault plan. Checks:
    ///
    /// - outage windows reference known APs, start inside the horizon,
    ///   and are not inverted or empty (`up_at_us > down_at_us`);
    /// - every probability (failure, drop, dup, churn, link-keep) lies
    ///   in `[0, 1]` and is finite;
    /// - jitter windows are not inverted (`min_us ≤ max_us`);
    /// - scheduled departures/jumps reference known users and fire
    ///   inside the horizon.
    pub fn validate(&self, n_aps: usize, n_users: usize, horizon_us: u64) -> Result<(), String> {
        let prob = |what: &str, p: f64| -> Result<(), String> {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                Err(format!("{what} is {p}, outside [0, 1]"))
            } else {
                Ok(())
            }
        };

        for (i, o) in self.ap_outages.iter().enumerate() {
            if o.ap.index() >= n_aps {
                return Err(format!(
                    "ap_outages[{i}] references unknown AP {} (instance has {n_aps} APs)",
                    o.ap.index()
                ));
            }
            if o.down_at_us >= horizon_us {
                return Err(format!(
                    "ap_outages[{i}]: AP {} goes down at {}µs, at or past the {horizon_us}µs horizon",
                    o.ap.index(),
                    o.down_at_us
                ));
            }
            if let Some(up) = o.up_at_us {
                if up <= o.down_at_us {
                    return Err(format!(
                        "ap_outages[{i}]: AP {} has an inverted outage window (up {up}µs ≤ down {}µs)",
                        o.ap.index(),
                        o.down_at_us
                    ));
                }
                if up > horizon_us {
                    return Err(format!(
                        "ap_outages[{i}]: AP {} recovers at {up}µs, past the {horizon_us}µs horizon",
                        o.ap.index()
                    ));
                }
            }
        }

        if let Some(rf) = self.random_ap_failures {
            prob("random_ap_failures.failure_prob", rf.failure_prob)?;
            if rf.failure_prob > 0.0 && rf.mean_downtime_us == 0 {
                return Err(
                    "random_ap_failures.mean_downtime_us is 0 (failures would be instantaneous)"
                        .to_string(),
                );
            }
        }

        for class in MessageClass::ALL {
            let f = self.faults_for(class);
            prob(&format!("{}.drop_prob", class.name()), f.drop_prob)?;
            prob(&format!("{}.dup_prob", class.name()), f.dup_prob)?;
            if f.jitter.min_us > f.jitter.max_us {
                return Err(format!(
                    "{}.jitter has an inverted window (min {}µs > max {}µs)",
                    class.name(),
                    f.jitter.min_us,
                    f.jitter.max_us
                ));
            }
        }

        for (i, d) in self.churn.departures.iter().enumerate() {
            if d.user.index() >= n_users {
                return Err(format!(
                    "churn.departures[{i}] references unknown user {} (instance has {n_users} users)",
                    d.user.index()
                ));
            }
            if d.at_us >= horizon_us {
                return Err(format!(
                    "churn.departures[{i}]: user {} departs at {}µs, at or past the {horizon_us}µs horizon",
                    d.user.index(),
                    d.at_us
                ));
            }
        }
        for (i, j) in self.churn.jumps.iter().enumerate() {
            if j.user.index() >= n_users {
                return Err(format!(
                    "churn.jumps[{i}] references unknown user {} (instance has {n_users} users)",
                    j.user.index()
                ));
            }
            if j.at_us >= horizon_us {
                return Err(format!(
                    "churn.jumps[{i}]: user {} jumps at {}µs, at or past the {horizon_us}µs horizon",
                    j.user.index(),
                    j.at_us
                ));
            }
        }
        prob("churn.departure_prob", self.churn.departure_prob)?;
        prob("churn.jump_prob", self.churn.jump_prob)?;
        prob("churn.link_keep_prob", self.churn.link_keep_prob)?;

        Ok(())
    }

    /// Compiles the plan into a concrete timeline for an instance with
    /// `n_aps` APs and `n_users` users over `horizon_us` microseconds.
    ///
    /// Compilation is a pure function of `(plan, n_aps, n_users,
    /// horizon_us)`: the same inputs always yield the same timeline.
    /// Random failures and probabilistic churn are resolved here with a
    /// [`rand_chacha::ChaCha8Rng`] seeded from [`FaultPlan::seed`], in a
    /// fixed draw order (APs by index, then users by index).
    pub fn compile(&self, n_aps: usize, n_users: usize, horizon_us: u64) -> FaultTimeline {
        use rand::{Rng, SeedableRng};

        let mut events: Vec<FaultEvent> = Vec::new();

        for o in &self.ap_outages {
            if o.ap.index() >= n_aps {
                continue;
            }
            events.push(FaultEvent {
                at_us: o.down_at_us,
                kind: FaultEventKind::ApDown(o.ap),
            });
            if let Some(up) = o.up_at_us {
                if up > o.down_at_us {
                    events.push(FaultEvent {
                        at_us: up,
                        kind: FaultEventKind::ApUp(o.ap),
                    });
                }
            }
        }

        // Probabilistic windows land in the middle 80% of the horizon so
        // the run has a clean start and some tail to reconverge in.
        let lo = horizon_us / 10;
        let hi = horizon_us.saturating_sub(horizon_us / 10).max(lo + 1);

        if let Some(rf) = self.random_ap_failures {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.seed ^ 0xA9_F4_17);
            for a in 0..n_aps {
                if rng.gen::<f64>() < rf.failure_prob {
                    let down = rng.gen_range(lo..hi);
                    let span = rf.mean_downtime_us.max(1);
                    let dur = rng.gen_range(span / 2..=span + span / 2).max(1);
                    events.push(FaultEvent {
                        at_us: down,
                        kind: FaultEventKind::ApDown(ApId(a as u32)),
                    });
                    events.push(FaultEvent {
                        at_us: down.saturating_add(dur),
                        kind: FaultEventKind::ApUp(ApId(a as u32)),
                    });
                }
            }
        }

        for d in &self.churn.departures {
            if d.user.index() < n_users {
                events.push(FaultEvent {
                    at_us: d.at_us,
                    kind: FaultEventKind::UserDepart(d.user),
                });
            }
        }
        for j in &self.churn.jumps {
            if j.user.index() < n_users {
                events.push(FaultEvent {
                    at_us: j.at_us,
                    kind: FaultEventKind::UserJump {
                        user: j.user,
                        // Derived, not drawn: explicit jumps must not
                        // perturb the probabilistic draw sequence.
                        seed: self.seed ^ mix(j.user.0 as u64, j.at_us),
                    },
                });
            }
        }

        if self.churn.departure_prob > 0.0 || self.churn.jump_prob > 0.0 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(self.seed ^ 0xC0_51_2E);
            for u in 0..n_users {
                if self.churn.departure_prob > 0.0 && rng.gen::<f64>() < self.churn.departure_prob {
                    events.push(FaultEvent {
                        at_us: rng.gen_range(lo..hi),
                        kind: FaultEventKind::UserDepart(UserId(u as u32)),
                    });
                }
                if self.churn.jump_prob > 0.0 && rng.gen::<f64>() < self.churn.jump_prob {
                    events.push(FaultEvent {
                        at_us: rng.gen_range(lo..hi),
                        kind: FaultEventKind::UserJump {
                            user: UserId(u as u32),
                            seed: rng.gen(),
                        },
                    });
                }
            }
        }

        FaultTimeline::new(events)
    }
}

/// A small deterministic mixer (SplitMix64 finalizer) for deriving
/// per-jump seeds without consuming RNG state.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(!p.has_message_faults());
        assert!(p.compile(10, 20, 1_000_000).events().is_empty());
    }

    #[test]
    fn default_is_none() {
        assert_eq!(FaultPlan::default(), FaultPlan::none());
    }

    #[test]
    fn message_faults_make_plan_faulty() {
        let mut p = FaultPlan::none();
        p.query.drop_prob = 0.1;
        assert!(!p.is_none());
        assert!(p.has_message_faults());
        assert!(!p.faults_for(MessageClass::Query).is_none());
        assert!(p.faults_for(MessageClass::Probe).is_none());
    }

    #[test]
    fn scheduled_outage_compiles_to_window() {
        let mut p = FaultPlan::none();
        p.ap_outages.push(ApOutage {
            ap: ApId(2),
            down_at_us: 500,
            up_at_us: Some(1500),
        });
        let t = p.compile(5, 10, 10_000);
        let evs: Vec<_> = t.events().to_vec();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at_us, 500);
        assert_eq!(evs[0].kind, FaultEventKind::ApDown(ApId(2)));
        assert_eq!(evs[1].at_us, 1500);
        assert_eq!(evs[1].kind, FaultEventKind::ApUp(ApId(2)));
    }

    #[test]
    fn out_of_range_ids_are_ignored() {
        let mut p = FaultPlan::none();
        p.ap_outages.push(ApOutage {
            ap: ApId(99),
            down_at_us: 0,
            up_at_us: None,
        });
        p.churn.departures.push(UserDeparture {
            user: UserId(99),
            at_us: 0,
        });
        assert!(p.compile(5, 10, 10_000).events().is_empty());
    }

    #[test]
    fn compile_is_deterministic() {
        let mut p = FaultPlan::none();
        p.seed = 7;
        p.random_ap_failures = Some(RandomApFailures {
            failure_prob: 0.5,
            mean_downtime_us: 40_000,
        });
        p.churn.departure_prob = 0.3;
        p.churn.jump_prob = 0.3;
        let a = p.compile(20, 50, 1_000_000);
        let b = p.compile(20, 50, 1_000_000);
        assert_eq!(a.events(), b.events());
        assert!(!a.events().is_empty());

        p.seed = 8;
        let c = p.compile(20, 50, 1_000_000);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn timeline_is_sorted() {
        let mut p = FaultPlan::none();
        p.seed = 3;
        p.random_ap_failures = Some(RandomApFailures {
            failure_prob: 1.0,
            mean_downtime_us: 10_000,
        });
        p.churn.departure_prob = 1.0;
        let t = p.compile(10, 10, 1_000_000);
        let times: Vec<u64> = t.events().iter().map(|e| e.at_us).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn serde_round_trip() {
        let mut p = FaultPlan::none();
        p.seed = 11;
        p.query = MessageFaults {
            drop_prob: 0.2,
            dup_prob: 0.05,
            jitter: DelayJitter {
                min_us: 10,
                max_us: 200,
            },
        };
        p.ap_outages.push(ApOutage {
            ap: ApId(1),
            down_at_us: 100,
            up_at_us: None,
        });
        p.churn.jumps.push(UserJump {
            user: UserId(4),
            at_us: 5_000,
        });
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn validate_accepts_reasonable_plans() {
        assert_eq!(FaultPlan::none().validate(5, 10, 1_000_000), Ok(()));
        let mut p = FaultPlan::none();
        p.ap_outages.push(ApOutage {
            ap: ApId(2),
            down_at_us: 500,
            up_at_us: Some(1_500),
        });
        p.query.drop_prob = 0.25;
        p.churn.jumps.push(UserJump {
            user: UserId(4),
            at_us: 9_000,
        });
        p.churn.jump_prob = 0.5;
        assert_eq!(p.validate(5, 10, 10_000), Ok(()));
    }

    #[test]
    fn validate_names_unknown_ap() {
        let mut p = FaultPlan::none();
        p.ap_outages.push(ApOutage {
            ap: ApId(99),
            down_at_us: 0,
            up_at_us: None,
        });
        let err = p.validate(5, 10, 10_000).unwrap_err();
        assert!(err.contains("unknown AP 99"), "{err}");
        assert!(err.contains("5 APs"), "{err}");
    }

    #[test]
    fn validate_rejects_inverted_outage_window() {
        let mut p = FaultPlan::none();
        p.ap_outages.push(ApOutage {
            ap: ApId(1),
            down_at_us: 1_500,
            up_at_us: Some(500),
        });
        let err = p.validate(5, 10, 10_000).unwrap_err();
        assert!(err.contains("inverted outage window"), "{err}");
        assert!(err.contains("AP 1"), "{err}");
    }

    #[test]
    fn validate_rejects_events_past_horizon() {
        let mut p = FaultPlan::none();
        p.ap_outages.push(ApOutage {
            ap: ApId(0),
            down_at_us: 10_000,
            up_at_us: None,
        });
        let err = p.validate(5, 10, 10_000).unwrap_err();
        assert!(err.contains("horizon"), "{err}");

        let mut p = FaultPlan::none();
        p.churn.departures.push(UserDeparture {
            user: UserId(3),
            at_us: 99_999,
        });
        let err = p.validate(5, 10, 10_000).unwrap_err();
        assert!(err.contains("user 3"), "{err}");
        assert!(err.contains("horizon"), "{err}");
    }

    #[test]
    fn validate_rejects_bad_probabilities() {
        let mut p = FaultPlan::none();
        p.query.drop_prob = 1.5;
        let err = p.validate(5, 10, 10_000).unwrap_err();
        assert!(err.contains("query.drop_prob"), "{err}");
        assert!(err.contains("outside [0, 1]"), "{err}");

        let mut p = FaultPlan::none();
        p.lock.dup_prob = -0.1;
        assert!(p
            .validate(5, 10, 10_000)
            .unwrap_err()
            .contains("lock.dup_prob"));

        let mut p = FaultPlan::none();
        p.churn.link_keep_prob = f64::NAN;
        assert!(p
            .validate(5, 10, 10_000)
            .unwrap_err()
            .contains("churn.link_keep_prob"));
    }

    #[test]
    fn validate_rejects_inverted_jitter_and_unknown_user_jump() {
        let mut p = FaultPlan::none();
        p.probe.jitter = DelayJitter {
            min_us: 200,
            max_us: 10,
        };
        let err = p.validate(5, 10, 10_000).unwrap_err();
        assert!(err.contains("probe.jitter"), "{err}");

        let mut p = FaultPlan::none();
        p.churn.jumps.push(UserJump {
            user: UserId(10),
            at_us: 100,
        });
        let err = p.validate(5, 10, 10_000).unwrap_err();
        assert!(err.contains("unknown user 10"), "{err}");
        assert!(err.contains("10 users"), "{err}");
    }

    #[test]
    fn link_keep_prob_defaults_to_half() {
        let mut p = FaultPlan::none();
        assert_eq!(p.link_keep_prob(), 0.5);
        p.churn.link_keep_prob = 0.8;
        assert_eq!(p.link_keep_prob(), 0.8);
    }
}
