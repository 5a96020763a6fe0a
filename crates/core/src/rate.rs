//! Transmission rates and the 802.11a rate–distance model (paper Table 1).

use std::fmt;

use serde::{Deserialize, Serialize};

/// A data rate in kilobits per second.
///
/// The model uses kbps integers so that load fractions
/// (`session_kbps / tx_kbps`) stay exactly rational.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Kbps(pub u32);

impl Kbps {
    /// Converts whole megabits per second.
    pub const fn from_mbps(mbps: u32) -> Kbps {
        Kbps(mbps * 1000)
    }
}

impl fmt::Display for Kbps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{}Mbps", self.0 / 1000)
        } else {
            write!(f, "{}kbps", self.0)
        }
    }
}

/// How multicast transmission rates may be chosen (§3.1).
///
/// The paper assumes multi-rate MAC-layer multicast is available (citing
/// Chou & Misra), but notes all three problems remain NP-hard — and its
/// algorithms still beat SSA — when broadcast is pinned to the basic rate,
/// as plain 802.11 requires. `BasicOnly` models that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RatePolicy {
    /// An AP may multicast at any supported rate every member can decode.
    #[default]
    MultiRate,
    /// Multicast is always transmitted at the basic (lowest) rate.
    BasicOnly,
}

/// One row of a rate table: a rate usable up to `max_distance_m` meters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateStep {
    /// The transmission rate.
    pub rate: Kbps,
    /// Maximum sender–receiver distance (meters) at which the rate holds.
    pub max_distance_m: f64,
}

/// A discrete rate–distance staircase: the maximum possible data rate of a
/// link as a function of distance.
///
/// Invariants (checked by [`RateTable::new`]): rates strictly increase while
/// distance thresholds strictly decrease — a shorter link always supports a
/// rate at least as high.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(try_from = "Vec<RateStep>", into = "Vec<RateStep>")]
pub struct RateTable {
    /// Sorted by ascending rate (descending distance).
    steps: Vec<RateStep>,
}

impl From<RateTable> for Vec<RateStep> {
    fn from(t: RateTable) -> Self {
        t.steps
    }
}

impl TryFrom<Vec<RateStep>> for RateTable {
    type Error = RateTableError;

    fn try_from(steps: Vec<RateStep>) -> Result<Self, Self::Error> {
        RateTable::new(steps)
    }
}

/// Errors constructing a [`RateTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RateTableError {
    /// The step list was empty.
    Empty,
    /// Rates must strictly increase while distances strictly decrease.
    NotMonotonic {
        /// Index of the first offending step.
        at: usize,
    },
    /// A zero rate or non-positive distance was supplied.
    InvalidStep {
        /// Index of the offending step.
        at: usize,
    },
}

impl fmt::Display for RateTableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RateTableError::Empty => write!(f, "rate table has no steps"),
            RateTableError::NotMonotonic { at } => write!(
                f,
                "rate table steps must have strictly increasing rates and strictly decreasing distances (violated at step {at})"
            ),
            RateTableError::InvalidStep { at } => {
                write!(f, "rate table step {at} has a zero rate or non-positive distance")
            }
        }
    }
}

impl std::error::Error for RateTableError {}

impl RateTable {
    /// Builds a table from steps in any order.
    ///
    /// # Errors
    ///
    /// See [`RateTableError`].
    pub fn new(mut steps: Vec<RateStep>) -> Result<RateTable, RateTableError> {
        if steps.is_empty() {
            return Err(RateTableError::Empty);
        }
        steps.sort_by_key(|a| a.rate);
        for (i, s) in steps.iter().enumerate() {
            if s.rate.0 == 0
                || s.max_distance_m.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            {
                return Err(RateTableError::InvalidStep { at: i });
            }
        }
        for i in 1..steps.len() {
            if steps[i].rate <= steps[i - 1].rate
                || steps[i].max_distance_m >= steps[i - 1].max_distance_m
            {
                return Err(RateTableError::NotMonotonic { at: i });
            }
        }
        Ok(RateTable { steps })
    }

    /// The paper's Table 1 — IEEE 802.11a rates and distance thresholds
    /// (Manshaei & Turletti, IST 2003):
    ///
    /// | Rate (Mbps)   | 6   | 12  | 18  | 24 | 36 | 48 | 54 |
    /// |---------------|-----|-----|-----|----|----|----|----|
    /// | Threshold (m) | 200 | 145 | 105 | 85 | 60 | 40 | 35 |
    pub fn ieee80211a() -> RateTable {
        RateTable::new(vec![
            RateStep {
                rate: Kbps::from_mbps(6),
                max_distance_m: 200.0,
            },
            RateStep {
                rate: Kbps::from_mbps(12),
                max_distance_m: 145.0,
            },
            RateStep {
                rate: Kbps::from_mbps(18),
                max_distance_m: 105.0,
            },
            RateStep {
                rate: Kbps::from_mbps(24),
                max_distance_m: 85.0,
            },
            RateStep {
                rate: Kbps::from_mbps(36),
                max_distance_m: 60.0,
            },
            RateStep {
                rate: Kbps::from_mbps(48),
                max_distance_m: 40.0,
            },
            RateStep {
                rate: Kbps::from_mbps(54),
                max_distance_m: 35.0,
            },
        ])
        .expect("Table 1 constants are monotonic")
    }

    /// The steps, sorted by ascending rate.
    pub fn steps(&self) -> &[RateStep] {
        &self.steps
    }

    /// All supported rates, ascending.
    pub fn rates(&self) -> impl Iterator<Item = Kbps> + '_ {
        self.steps.iter().map(|s| s.rate)
    }

    /// The basic (lowest) rate.
    pub fn basic_rate(&self) -> Kbps {
        self.steps[0].rate
    }

    /// The radio range: beyond this distance no rate is available.
    pub fn range_m(&self) -> f64 {
        self.steps[0].max_distance_m
    }

    /// The maximum possible data rate at `distance_m` meters, or `None` if
    /// the link is out of range.
    pub fn rate_at(&self, distance_m: f64) -> Option<Kbps> {
        self.steps
            .iter()
            .rev()
            .find(|s| distance_m <= s.max_distance_m)
            .map(|s| s.rate)
    }

    /// Scales every distance threshold by `factor` (adaptive power control:
    /// a higher transmit power extends each rate's reach).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not strictly positive and finite.
    pub fn scale_distances(&self, factor: f64) -> RateTable {
        assert!(
            factor.is_finite() && factor > 0.0,
            "power scale factor must be positive and finite"
        );
        RateTable {
            steps: self
                .steps
                .iter()
                .map(|s| RateStep {
                    rate: s.rate,
                    max_distance_m: s.max_distance_m * factor,
                })
                .collect(),
        }
    }
}

impl Default for RateTable {
    fn default() -> Self {
        RateTable::ieee80211a()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_constants() {
        let t = RateTable::ieee80211a();
        assert_eq!(t.steps().len(), 7);
        assert_eq!(t.basic_rate(), Kbps::from_mbps(6));
        assert_eq!(t.range_m(), 200.0);
    }

    #[test]
    fn rate_lookup_follows_staircase() {
        let t = RateTable::ieee80211a();
        assert_eq!(t.rate_at(0.0), Some(Kbps::from_mbps(54)));
        assert_eq!(t.rate_at(35.0), Some(Kbps::from_mbps(54)));
        assert_eq!(t.rate_at(35.1), Some(Kbps::from_mbps(48)));
        assert_eq!(t.rate_at(60.0), Some(Kbps::from_mbps(36)));
        assert_eq!(t.rate_at(84.9), Some(Kbps::from_mbps(24)));
        assert_eq!(t.rate_at(100.0), Some(Kbps::from_mbps(18)));
        assert_eq!(t.rate_at(145.0), Some(Kbps::from_mbps(12)));
        assert_eq!(t.rate_at(199.99), Some(Kbps::from_mbps(6)));
        assert_eq!(t.rate_at(200.0), Some(Kbps::from_mbps(6)));
        assert_eq!(t.rate_at(200.01), None);
    }

    #[test]
    fn rejects_non_monotonic_tables() {
        let err = RateTable::new(vec![
            RateStep {
                rate: Kbps(1000),
                max_distance_m: 100.0,
            },
            RateStep {
                rate: Kbps(2000),
                max_distance_m: 100.0,
            },
        ])
        .unwrap_err();
        assert!(matches!(err, RateTableError::NotMonotonic { at: 1 }));
        assert!(matches!(
            RateTable::new(vec![]).unwrap_err(),
            RateTableError::Empty
        ));
        assert!(matches!(
            RateTable::new(vec![RateStep {
                rate: Kbps(0),
                max_distance_m: 10.0
            }])
            .unwrap_err(),
            RateTableError::InvalidStep { at: 0 }
        ));
    }

    #[test]
    fn accepts_unsorted_input() {
        let t = RateTable::new(vec![
            RateStep {
                rate: Kbps(2000),
                max_distance_m: 50.0,
            },
            RateStep {
                rate: Kbps(1000),
                max_distance_m: 100.0,
            },
        ])
        .unwrap();
        assert_eq!(t.basic_rate(), Kbps(1000));
    }

    #[test]
    fn power_scaling_extends_range() {
        let t = RateTable::ieee80211a().scale_distances(1.5);
        assert_eq!(t.range_m(), 300.0);
        assert_eq!(t.rate_at(52.5), Some(Kbps::from_mbps(54)));
        assert_eq!(t.rate_at(250.0), Some(Kbps::from_mbps(6)));
    }

    #[test]
    fn kbps_display_and_conversion() {
        assert_eq!(Kbps::from_mbps(6).to_string(), "6Mbps");
        assert_eq!(Kbps(1500).to_string(), "1500kbps");
    }

    #[test]
    fn serde_roundtrip_validates() {
        let t = RateTable::ieee80211a();
        let json = serde_json::to_string(&t).unwrap();
        let back: RateTable = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        let bad = r#"[{"rate":1000,"max_distance_m":100.0},{"rate":2000,"max_distance_m":150.0}]"#;
        assert!(serde_json::from_str::<RateTable>(bad).is_err());
    }
}
