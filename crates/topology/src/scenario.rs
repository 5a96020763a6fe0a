//! Declarative scenario configuration and instance generation.

use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize, Value};

use mcast_core::{
    ApId, Instance, InstanceBuilder, Kbps, Load, RatePolicy, RateTable, SessionId, SessionSpec,
    SignalStrength, StreamingInstanceBuilder,
};

use crate::geometry::Point;
use crate::grid::SpatialGrid;
use crate::placement::Placement;

/// How users choose their multicast session.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum SessionPopularity {
    /// Uniformly at random — the paper's §7 model.
    #[default]
    Uniform,
    /// Zipf-distributed: session `k` (0-based) drawn with probability
    /// proportional to `1 / (k+1)^s`. Models real channel popularity
    /// (a few channels carry most viewers); `s ≈ 0.8–1.2` is typical.
    Zipf {
        /// The skew exponent (`0` degenerates to uniform).
        exponent: f64,
    },
}

/// A complete, seeded description of one evaluation scenario.
///
/// [`ScenarioConfig::paper_default`] reproduces the paper's §7 setup; the
/// sweep harness tweaks individual fields from there.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// RNG seed; every generated byte flows from it.
    pub seed: u64,
    /// Area width (m).
    pub width_m: f64,
    /// Area height (m).
    pub height_m: f64,
    /// Number of access points.
    pub n_aps: usize,
    /// Number of users.
    pub n_users: usize,
    /// Number of multicast sessions; each user picks one uniformly.
    pub n_sessions: usize,
    /// Stream rate of every session (the paper does not state its value;
    /// 1 Mbps is consistent with its worked examples — see DESIGN.md).
    pub session_rate: Kbps,
    /// Optional per-session stream rates (heterogeneous streams, e.g. SD
    /// and HD channels). When set, its length must equal `n_sessions` and
    /// it overrides `session_rate`.
    #[serde(default)]
    pub session_rates: Option<Vec<Kbps>>,
    /// How users pick their session.
    #[serde(default)]
    pub popularity: SessionPopularity,
    /// Per-AP multicast load budget (paper: 0.9).
    pub budget: Load,
    /// The rate–distance staircase (paper: Table 1).
    pub rate_table: RateTable,
    /// AP placement model.
    pub ap_placement: Placement,
    /// User placement model.
    pub user_placement: Placement,
    /// Multicast rate policy (multi-rate per the paper's assumption, or
    /// basic-rate-only for the §3.1 ablation).
    pub rate_policy: RatePolicy,
    /// Uniform transmit-power scale: multiplies every distance threshold
    /// (the §8 "adaptive power control" knob; 1.0 = nominal).
    pub power_scale: f64,
    /// If true (default), user positions are re-drawn until each user
    /// hears at least one AP — the paper's full-coverage assumption for
    /// the BLA/MLA objectives.
    pub require_coverage: bool,
}

impl ScenarioConfig {
    /// The paper's §7 defaults: ~1.2 km² (1095.45 m square), 200 APs, 400
    /// users, 5 sessions at 1 Mbps, budget 0.9, Table 1 rates, uniform
    /// placement, multi-rate multicast.
    pub fn paper_default() -> ScenarioConfig {
        let side = (1.2e6f64).sqrt();
        ScenarioConfig {
            seed: 0,
            width_m: side,
            height_m: side,
            n_aps: 200,
            n_users: 400,
            n_sessions: 5,
            session_rate: Kbps::from_mbps(1),
            session_rates: None,
            popularity: SessionPopularity::Uniform,
            budget: Load::permille(900),
            rate_table: RateTable::ieee80211a(),
            ap_placement: Placement::Uniform,
            user_placement: Placement::Uniform,
            rate_policy: RatePolicy::MultiRate,
            power_scale: 1.0,
            require_coverage: true,
        }
    }

    /// The paper's Figure 12 small-network setup: 30 APs, 600 m × 600 m
    /// (the caption's "600 m²" read as a 600 m square — see DESIGN.md),
    /// with the user count varied by the sweep.
    pub fn figure12_default() -> ScenarioConfig {
        ScenarioConfig {
            n_aps: 30,
            n_users: 50,
            width_m: 600.0,
            height_m: 600.0,
            ..ScenarioConfig::paper_default()
        }
    }

    /// Returns a copy with the given seed.
    pub fn with_seed(mut self, seed: u64) -> ScenarioConfig {
        self.seed = seed;
        self
    }

    /// Generates the scenario.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if the configuration is invalid
    /// (see [`ScenarioConfig::try_generate`] for the fallible form).
    pub fn generate(&self) -> Scenario {
        self.try_generate().expect("valid scenario config")
    }

    /// Generates the scenario, or explains why the configuration is bad.
    ///
    /// Each user's candidate row comes from one spatial-grid range query
    /// and streams straight into the CSR arena
    /// ([`StreamingInstanceBuilder`]); nothing proportional to the link
    /// count is held outside the finished instance.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] for non-positive dimensions / power scale, or
    /// when `require_coverage` cannot be met (no APs).
    pub fn try_generate(&self) -> Result<Scenario, ScenarioError> {
        let geo = self.sample_geometry(true)?;
        let grid = geo.grid.as_ref().expect("the fast path builds the grid");
        let instance = stream_instance(
            self,
            &geo.table,
            grid,
            geo.ap_positions.len(),
            &geo.user_positions,
            &geo.user_sessions,
        );
        Ok(Scenario {
            instance,
            ap_positions: geo.ap_positions,
            user_positions: geo.user_positions,
            config: self.clone(),
        })
    }

    /// [`ScenarioConfig::generate`] via the original all-pairs scans
    /// instead of the grid index — O(APs) per coverage check and
    /// O(APs × users) link building.
    ///
    /// Kept as the semantic reference: the equivalence tests assert
    /// `generate_reference() == generate()` link for link, and
    /// `repro bench` times the two paths against each other.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, like [`ScenarioConfig::generate`].
    pub fn generate_reference(&self) -> Scenario {
        self.try_generate_reference()
            .expect("valid scenario config")
    }

    /// Fallible form of [`ScenarioConfig::generate_reference`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError`], exactly as [`ScenarioConfig::try_generate`] —
    /// the two paths accept and reject identical configurations.
    pub fn try_generate_reference(&self) -> Result<Scenario, ScenarioError> {
        let geo = self.sample_geometry(false)?;
        let instance = all_pairs_instance(
            self,
            &geo.table,
            &geo.ap_positions,
            &geo.user_positions,
            &geo.user_sessions,
        );
        Ok(Scenario {
            instance,
            ap_positions: geo.ap_positions,
            user_positions: geo.user_positions,
            config: self.clone(),
        })
    }

    /// Validates the configuration and draws every random quantity — AP
    /// positions, user positions (rejection-sampled under
    /// `require_coverage`), then session choices — in the one canonical
    /// RNG order every generation path shares.
    fn sample_geometry(&self, use_grid: bool) -> Result<SampledGeometry, ScenarioError> {
        let positive = |v: f64| v.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(self.width_m) || !positive(self.height_m) {
            return Err(ScenarioError::BadDimensions);
        }
        if !positive(self.power_scale) || !self.power_scale.is_finite() {
            return Err(ScenarioError::BadPowerScale);
        }
        if self.n_sessions == 0 {
            return Err(ScenarioError::NoSessions);
        }
        if let Some(rates) = &self.session_rates {
            if rates.len() != self.n_sessions {
                return Err(ScenarioError::SessionRateCountMismatch {
                    got: rates.len(),
                    expected: self.n_sessions,
                });
            }
        }
        if self.require_coverage && self.n_aps == 0 && self.n_users > 0 {
            return Err(ScenarioError::CoverageImpossible);
        }

        let table = if self.power_scale == 1.0 {
            self.rate_table.clone()
        } else {
            self.rate_table.scale_distances(self.power_scale)
        };
        let range = table.range_m();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);

        let ap_positions =
            self.ap_placement
                .sample(self.n_aps, self.width_m, self.height_m, &mut rng);

        // Index the APs once: both the rejection sampling below and link
        // building query the same layout. (The reference path passes None
        // and falls back to the original linear scans.)
        let grid = use_grid.then(|| SpatialGrid::build(&ap_positions, range));

        // Draw users; under `require_coverage`, rejection-sample each user
        // until in range of some AP (give up loudly after many tries —
        // means the APs cannot cover the area).
        let mut user_positions = Vec::with_capacity(self.n_users);
        for _ in 0..self.n_users {
            let mut tries = 0;
            let p = loop {
                let p = self
                    .user_placement
                    .sample_one(self.width_m, self.height_m, &mut rng);
                let covered = match &grid {
                    Some(g) => g.covers(&p, range),
                    None => ap_positions.iter().any(|ap| ap.distance(&p) <= range),
                };
                if covered || !self.require_coverage {
                    break p;
                }
                tries += 1;
                if tries > 10_000 {
                    return Err(ScenarioError::CoverageImpossible);
                }
            };
            user_positions.push(p);
        }

        let user_sessions: Vec<u32> = match &self.popularity {
            SessionPopularity::Uniform => (0..self.n_users)
                .map(|_| rng.gen_range(0..self.n_sessions) as u32)
                .collect(),
            SessionPopularity::Zipf { exponent } => {
                // Cumulative Zipf weights over the session indices.
                let weights: Vec<f64> = (0..self.n_sessions)
                    .map(|k| 1.0 / ((k + 1) as f64).powf(*exponent))
                    .collect();
                let total: f64 = weights.iter().sum();
                (0..self.n_users)
                    .map(|_| {
                        let mut draw = rng.gen::<f64>() * total;
                        for (k, w) in weights.iter().enumerate() {
                            if draw < *w {
                                return k as u32;
                            }
                            draw -= w;
                        }
                        (self.n_sessions - 1) as u32
                    })
                    .collect()
            }
        };
        Ok(SampledGeometry {
            table,
            ap_positions,
            user_positions,
            user_sessions,
            grid,
        })
    }
}

/// Everything random about a scenario, drawn once: the effective rate
/// table (after power scaling), the geometry, the per-user session picks,
/// and the spatial index over the APs (when the fast path is in use).
struct SampledGeometry {
    table: RateTable,
    ap_positions: Vec<Point>,
    user_positions: Vec<Point>,
    user_sessions: Vec<u32>,
    grid: Option<SpatialGrid>,
}

/// Builds the combinatorial instance from explicit geometry and session
/// choices — the one construction path of generation and perturbation.
/// `grid` indexes the `n_aps` AP positions; each user's range query
/// returns its APs in ascending id order, which is exactly the row order
/// [`StreamingInstanceBuilder::push_user`] requires. Distances come from
/// the same `Point::distance` call the all-pairs reference makes, so
/// rates and signals match it bit for bit.
fn stream_instance(
    config: &ScenarioConfig,
    table: &RateTable,
    grid: &SpatialGrid,
    n_aps: usize,
    user_positions: &[Point],
    user_sessions: &[u32],
) -> Instance {
    let sessions: Vec<SessionSpec> = (0..config.n_sessions)
        .map(|s| SessionSpec {
            rate: config
                .session_rates
                .as_ref()
                .map_or(config.session_rate, |rs| rs[s]),
        })
        .collect();
    let mut b = StreamingInstanceBuilder::new(
        sessions,
        vec![config.budget; n_aps],
        table.rates(),
        config.rate_policy,
    )
    .expect("generated sessions and budgets are valid");
    // Links per user ≈ π·range² / area-per-AP; reserve that in one shot.
    let range = table.range_m();
    let density = n_aps as f64 / (config.width_m * config.height_m);
    let per_user = (std::f64::consts::PI * range * range * density).ceil() as usize;
    b.reserve(
        user_positions.len(),
        user_positions.len() * per_user.clamp(1, 64),
    );
    let mut hits: Vec<(u32, f64)> = Vec::new();
    let mut row: Vec<(ApId, Kbps, SignalStrength)> = Vec::new();
    for (up, &session) in user_positions.iter().zip(user_sessions) {
        grid.neighbors_within_into(up, range, &mut hits);
        row.clear();
        for &(ai, d) in &hits {
            if let Some(rate) = table.rate_at(d) {
                // Signal strength: negated distance in millimeters —
                // monotone in proximity, integral for exact ordering.
                let signal = SignalStrength(-(d * 1000.0).round() as i64);
                row.push((ApId(ai), rate, signal));
            }
        }
        b.push_user(SessionId(session), &row)
            .expect("grid rows are sorted and reference valid ids");
    }
    b.finish()
}

/// The all-pairs reference construction behind
/// [`ScenarioConfig::generate_reference`]: every AP–user distance is
/// measured and the links are declared AP-major through
/// [`InstanceBuilder`].
fn all_pairs_instance(
    config: &ScenarioConfig,
    table: &RateTable,
    ap_positions: &[Point],
    user_positions: &[Point],
    user_sessions: &[u32],
) -> Instance {
    let mut b = InstanceBuilder::new();
    b.supported_rates(table.rates());
    b.rate_policy(config.rate_policy);
    let sessions: Vec<_> = (0..config.n_sessions)
        .map(|s| {
            let rate = config
                .session_rates
                .as_ref()
                .map_or(config.session_rate, |rs| rs[s]);
            b.add_session(rate)
        })
        .collect();
    let aps: Vec<_> = (0..ap_positions.len())
        .map(|_| b.add_ap(config.budget))
        .collect();
    let users: Vec<_> = user_sessions
        .iter()
        .map(|&s| b.add_user(sessions[s as usize]))
        .collect();
    for (ai, &a) in aps.iter().enumerate() {
        for (ui, &u) in users.iter().enumerate() {
            let d = ap_positions[ai].distance(&user_positions[ui]);
            if let Some(rate) = table.rate_at(d) {
                let signal = SignalStrength(-(d * 1000.0).round() as i64);
                b.link_with_signal(a, u, rate, signal)
                    .expect("endpoints were just added");
            }
        }
    }
    b.build().expect("generated instance is valid")
}

/// Errors from [`ScenarioConfig::try_generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioError {
    /// Width or height is not strictly positive.
    BadDimensions,
    /// Power scale is not strictly positive and finite.
    BadPowerScale,
    /// Zero sessions requested.
    NoSessions,
    /// `require_coverage` is set but the APs cannot cover users.
    CoverageImpossible,
    /// `session_rates` was set with the wrong length.
    SessionRateCountMismatch {
        /// Length of the provided list.
        got: usize,
        /// The configured `n_sessions`.
        expected: usize,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadDimensions => write!(f, "area dimensions must be positive"),
            ScenarioError::BadPowerScale => write!(f, "power scale must be positive and finite"),
            ScenarioError::NoSessions => write!(f, "at least one session is required"),
            ScenarioError::CoverageImpossible => {
                write!(f, "cannot place users in coverage of any AP")
            }
            ScenarioError::SessionRateCountMismatch { got, expected } => {
                write!(
                    f,
                    "session_rates has {got} entries, n_sessions is {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A generated scenario: the combinatorial instance plus the geometry it
/// came from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// The validated WLAN instance.
    pub instance: Instance,
    /// AP coordinates, indexable by `ApId::index`.
    pub ap_positions: Vec<Point>,
    /// User coordinates, indexable by `UserId::index`.
    pub user_positions: Vec<Point>,
    /// The configuration that produced this scenario.
    pub config: ScenarioConfig,
}

impl Scenario {
    /// Renders the pre-v1 wire shape of the whole scenario — the
    /// [`Instance`] as dense APs × users matrices, everything else as its
    /// normal serialization. Byte-identical (after JSON rendering) to
    /// what older releases wrote, for interchange with tooling that still
    /// expects that shape; the default write path is the sparse wire.
    /// This materializes O(APs × users) values, so it stays behind the
    /// explicit `repro gen --legacy-dense` flag.
    pub fn to_legacy_dense_value(&self) -> Value {
        Value::Object(vec![
            ("instance".into(), self.instance.to_legacy_dense_value()),
            ("ap_positions".into(), self.ap_positions.serialize_value()),
            (
                "user_positions".into(),
                self.user_positions.serialize_value(),
            ),
            ("config".into(), self.config.serialize_value()),
        ])
    }

    /// Quasi-static mobility (paper §3.1: users "stay at one place for a
    /// relatively long time period before changing their location"):
    /// moves a `fraction` of the users by a Gaussian step of standard
    /// deviation `step_sigma_m`, keeping everyone's session, and rebuilds
    /// the instance. Under `require_coverage` a moved user re-draws its
    /// step until covered.
    ///
    /// Deterministic in `seed`; AP positions never change.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or `step_sigma_m` is
    /// negative/non-finite.
    pub fn perturb(&self, seed: u64, fraction: f64, step_sigma_m: f64) -> Scenario {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0, 1]");
        assert!(
            step_sigma_m.is_finite() && step_sigma_m >= 0.0,
            "step sigma must be non-negative and finite"
        );
        let cfg = &self.config;
        let table = if cfg.power_scale == 1.0 {
            cfg.rate_table.clone()
        } else {
            cfg.rate_table.scale_distances(cfg.power_scale)
        };
        let range = table.range_m();
        let grid = SpatialGrid::build(&self.ap_positions, range);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6d6f_6269_6c69_7479); // "mobility"

        let n = self.user_positions.len();
        let n_moving = (fraction * n as f64).ceil() as usize;
        // Choose movers: a seeded partial Fisher–Yates over user indices.
        let mut order: Vec<usize> = (0..n).collect();
        for i in 0..n_moving.min(n) {
            let j = rng.gen_range(i..n);
            order.swap(i, j);
        }
        let movers: Vec<usize> = order.into_iter().take(n_moving).collect();

        let mut user_positions = self.user_positions.clone();
        for &ui in &movers {
            let mut tries = 0;
            loop {
                // Box–Muller Gaussian step.
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let r = (-2.0 * u1.ln()).sqrt() * step_sigma_m;
                let theta = 2.0 * std::f64::consts::PI * u2;
                let candidate = Point {
                    x: (self.user_positions[ui].x + r * theta.cos()).clamp(0.0, cfg.width_m),
                    y: (self.user_positions[ui].y + r * theta.sin()).clamp(0.0, cfg.height_m),
                };
                let covered = grid.covers(&candidate, range);
                if covered || !cfg.require_coverage || tries > 1000 {
                    if covered || !cfg.require_coverage {
                        user_positions[ui] = candidate;
                    }
                    // After many failed tries the user simply stays put —
                    // still covered at its old spot.
                    break;
                }
                tries += 1;
            }
        }

        let user_sessions: Vec<u32> = self
            .instance
            .users()
            .map(|u| self.instance.user_session(u).0)
            .collect();
        let instance = stream_instance(
            cfg,
            &table,
            &grid,
            self.ap_positions.len(),
            &user_positions,
            &user_sessions,
        );
        Scenario {
            instance,
            ap_positions: self.ap_positions.clone(),
            user_positions,
            config: cfg.clone(),
        }
    }
}

/// Structural validation of a deserialized [`Scenario`] — the part an
/// [`Instance`] cannot vouch for. Every `Instance` constructor already
/// rejects dangling session or AP references, duplicate candidate APs,
/// negative budgets and zero session rates; what decodes can still carry
/// NaN/infinite coordinates (hand-edited or truncated files) or position
/// lists that don't match the instance. Every loader — both wire
/// formats — funnels through this one helper.
///
/// # Errors
///
/// The first violated invariant, as a human-readable message naming the
/// entity.
pub fn validate_scenario(scenario: &Scenario) -> Result<(), String> {
    let inst = &scenario.instance;
    if scenario.ap_positions.len() != inst.n_aps() {
        return Err(format!(
            "ap_positions has {} entries for {} APs",
            scenario.ap_positions.len(),
            inst.n_aps()
        ));
    }
    if scenario.user_positions.len() != inst.n_users() {
        return Err(format!(
            "user_positions has {} entries for {} users",
            scenario.user_positions.len(),
            inst.n_users()
        ));
    }
    for (i, p) in scenario.ap_positions.iter().enumerate() {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(format!(
                "AP {i} has a non-finite position ({}, {})",
                p.x, p.y
            ));
        }
    }
    for (i, p) in scenario.user_positions.iter().enumerate() {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(format!(
                "user {i} has a non-finite position ({}, {})",
                p.x, p.y
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ScenarioConfig {
        ScenarioConfig {
            n_aps: 20,
            n_users: 40,
            n_sessions: 3,
            ..ScenarioConfig::paper_default()
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = small().with_seed(42).generate();
        let b = small().with_seed(42).generate();
        let c = small().with_seed(43).generate();
        assert_eq!(a.ap_positions, b.ap_positions);
        assert_eq!(a.user_positions, b.user_positions);
        for u in a.instance.users() {
            assert_eq!(a.instance.user_session(u), b.instance.user_session(u));
        }
        assert_ne!(a.ap_positions, c.ap_positions);
    }

    #[test]
    fn links_match_distance_model() {
        let s = small().with_seed(1).generate();
        let table = &s.config.rate_table;
        for a in s.instance.aps() {
            for u in s.instance.users() {
                let d = s.ap_positions[a.index()].distance(&s.user_positions[u.index()]);
                assert_eq!(s.instance.link_rate(a, u), table.rate_at(d));
            }
        }
    }

    #[test]
    fn coverage_is_guaranteed_when_required() {
        let s = ScenarioConfig {
            n_aps: 3,
            n_users: 30,
            ..small()
        }
        .with_seed(9)
        .generate();
        for u in s.instance.users() {
            assert!(s.instance.user_coverable(u), "user {u} uncovered");
        }
    }

    #[test]
    fn signal_orders_by_proximity() {
        let s = small().with_seed(5).generate();
        // For any user hearing two APs, the closer one has higher signal.
        for u in s.instance.users() {
            let candidates = s.instance.candidate_aps(u);
            for w in candidates.windows(2) {
                let (a1, _) = w[0];
                let (a2, _) = w[1];
                let d1 = s.ap_positions[a1.index()].distance(&s.user_positions[u.index()]);
                let d2 = s.ap_positions[a2.index()].distance(&s.user_positions[u.index()]);
                let s1 = s.instance.signal(a1, u).unwrap();
                let s2 = s.instance.signal(a2, u).unwrap();
                if d1 < d2 - 0.01 {
                    assert!(s1 > s2);
                }
            }
        }
    }

    #[test]
    fn power_scale_extends_links() {
        let base = small().with_seed(3);
        let boosted = ScenarioConfig {
            power_scale: 1.5,
            ..base.clone()
        };
        let s1 = base.generate();
        let s2 = boosted.generate();
        let count_links = |inst: &Instance| {
            inst.aps()
                .flat_map(|a| {
                    inst.users()
                        .filter(move |&u| inst.link_rate(a, u).is_some())
                        .map(move |u| (a, u))
                })
                .count()
        };
        assert!(count_links(&s2.instance) >= count_links(&s1.instance));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert_eq!(
            ScenarioConfig {
                width_m: 0.0,
                ..small()
            }
            .try_generate()
            .unwrap_err(),
            ScenarioError::BadDimensions
        );
        assert_eq!(
            ScenarioConfig {
                power_scale: 0.0,
                ..small()
            }
            .try_generate()
            .unwrap_err(),
            ScenarioError::BadPowerScale
        );
        assert_eq!(
            ScenarioConfig {
                n_sessions: 0,
                ..small()
            }
            .try_generate()
            .unwrap_err(),
            ScenarioError::NoSessions
        );
        assert_eq!(
            ScenarioConfig {
                n_aps: 0,
                ..small()
            }
            .try_generate()
            .unwrap_err(),
            ScenarioError::CoverageImpossible
        );
    }

    #[test]
    fn sessions_distributed_over_all() {
        let s = ScenarioConfig {
            n_users: 200,
            n_sessions: 5,
            ..small()
        }
        .with_seed(11)
        .generate();
        let mut counts = vec![0usize; 5];
        for u in s.instance.users() {
            counts[s.instance.user_session(u).index()] += 1;
        }
        // Uniform choice over 200 draws: each session appears.
        assert!(counts.iter().all(|&c| c > 0), "counts {counts:?}");
    }

    #[test]
    fn serde_roundtrip_config() {
        let cfg = small().with_seed(77);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // Same config -> same scenario.
        assert_eq!(cfg.generate().ap_positions, back.generate().ap_positions);
    }

    #[test]
    fn heterogeneous_session_rates() {
        use mcast_core::SessionId;
        let s = ScenarioConfig {
            n_sessions: 3,
            session_rates: Some(vec![
                Kbps::from_mbps(1),
                Kbps::from_mbps(2),
                Kbps::from_mbps(4),
            ]),
            ..small()
        }
        .with_seed(4)
        .generate();
        assert_eq!(s.instance.session_rate(SessionId(0)), Kbps::from_mbps(1));
        assert_eq!(s.instance.session_rate(SessionId(1)), Kbps::from_mbps(2));
        assert_eq!(s.instance.session_rate(SessionId(2)), Kbps::from_mbps(4));
        // Same geometry as the uniform config with the same seed.
        let uniform = small().with_seed(4).generate();
        assert_eq!(s.user_positions, uniform.user_positions);
    }

    #[test]
    fn zipf_popularity_skews_toward_low_sessions() {
        let cfg = ScenarioConfig {
            n_users: 400,
            n_sessions: 8,
            popularity: SessionPopularity::Zipf { exponent: 1.2 },
            ..small()
        };
        let s = cfg.clone().with_seed(5).generate();
        let mut counts = vec![0usize; 8];
        for u in s.instance.users() {
            counts[s.instance.user_session(u).index()] += 1;
        }
        // Session 0 clearly dominates session 7 under s=1.2.
        assert!(counts[0] > 3 * counts[7], "counts {counts:?}");
        // And zero exponent degenerates to (statistically) uniform.
        let flat = ScenarioConfig {
            popularity: SessionPopularity::Zipf { exponent: 0.0 },
            ..cfg
        }
        .with_seed(5)
        .generate();
        let mut fcounts = [0usize; 8];
        for u in flat.instance.users() {
            fcounts[flat.instance.user_session(u).index()] += 1;
        }
        assert!(*fcounts.iter().max().unwrap() < 3 * *fcounts.iter().min().unwrap().max(&1));
    }

    #[test]
    fn session_rate_count_mismatch_rejected() {
        let err = ScenarioConfig {
            n_sessions: 3,
            session_rates: Some(vec![Kbps::from_mbps(1)]),
            ..small()
        }
        .try_generate()
        .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::SessionRateCountMismatch {
                got: 1,
                expected: 3
            }
        );
    }

    #[test]
    fn perturb_moves_only_the_requested_fraction() {
        let s = ScenarioConfig {
            n_aps: 25,
            n_users: 60,
            ..small()
        }
        .with_seed(2)
        .generate();
        let p = s.perturb(1, 0.25, 50.0);
        let moved = s
            .user_positions
            .iter()
            .zip(&p.user_positions)
            .filter(|(a, b)| a != b)
            .count();
        assert!(moved <= 15, "moved {moved} of the requested 15");
        assert!(moved > 0, "somebody should move");
        // APs fixed; sessions preserved per user.
        assert_eq!(s.ap_positions, p.ap_positions);
        for u in s.instance.users() {
            assert_eq!(s.instance.user_session(u), p.instance.user_session(u));
        }
    }

    #[test]
    fn perturb_preserves_coverage() {
        let s = ScenarioConfig {
            n_aps: 4,
            n_users: 30,
            ..small()
        }
        .with_seed(6)
        .generate();
        let p = s.perturb(3, 1.0, 300.0);
        for u in p.instance.users() {
            assert!(p.instance.user_coverable(u), "user {u} lost coverage");
        }
    }

    #[test]
    fn perturb_is_deterministic_and_zero_fraction_is_identity() {
        let s = small().with_seed(8).generate();
        let a = s.perturb(5, 0.5, 40.0);
        let b = s.perturb(5, 0.5, 40.0);
        assert_eq!(a.user_positions, b.user_positions);
        let none = s.perturb(5, 0.0, 40.0);
        assert_eq!(none.user_positions, s.user_positions);
    }

    #[test]
    fn figure12_defaults() {
        let cfg = ScenarioConfig::figure12_default();
        assert_eq!(cfg.n_aps, 30);
        assert_eq!(cfg.width_m, 600.0);
        let s = cfg.with_seed(1).generate();
        assert_eq!(s.instance.n_aps(), 30);
    }
}
