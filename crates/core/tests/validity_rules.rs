//! The validity rules of an [`Instance`], checked at every way in.
//!
//! Each [`Malformation`] is one edit of a valid instance. Every
//! constructor — [`StreamingInstanceBuilder`], [`InstanceBuilder`],
//! [`Instance::from_csr`] and the sparse and legacy dense wire decoders —
//! must reject it with the same [`InstanceError`]. The two exceptions are
//! part of the batch builder's contract: it sorts its declarations and
//! keeps the last of a repeated link, so a descending or repeated
//! declaration builds the instance the ascending rows describe.

use mcast_core::{
    ApId, Instance, InstanceBuilder, InstanceError, Kbps, Load, RatePolicy, SessionId, SessionSpec,
    SignalStrength, StreamingInstanceBuilder, UserId, UserSpec, SPARSE_FORMAT,
};
use serde::{Serialize, Value};

type Link = (ApId, Kbps, i64);

fn mbps(m: u32) -> Kbps {
    Kbps::from_mbps(m)
}

fn int(i: i64) -> Value {
    Value::Int(i128::from(i))
}

/// An instance as its raw parts, before any constructor has seen it.
#[derive(Clone)]
struct Parts {
    sessions: Vec<SessionSpec>,
    users: Vec<UserSpec>,
    budgets: Vec<Load>,
    rows: Vec<Vec<Link>>,
    rates: Vec<Kbps>,
    policy: RatePolicy,
}

/// Four users over three APs and two sessions; user 1 has no links.
fn valid() -> Parts {
    let user = |s| UserSpec {
        session: SessionId(s),
    };
    let link = |a, m, s| (ApId(a), mbps(m), s);
    Parts {
        sessions: vec![SessionSpec { rate: mbps(1) }, SessionSpec { rate: mbps(2) }],
        users: vec![user(0), user(1), user(0), user(1)],
        budgets: vec![Load::ONE, Load::new(1, 2), Load::ONE],
        rows: vec![
            vec![link(0, 6, -30), link(2, 12, -10)],
            vec![],
            vec![link(1, 6, -20)],
            vec![link(0, 6, -45), link(1, 12, -5), link(2, 24, -25)],
        ],
        rates: vec![mbps(6), mbps(12), mbps(24)],
        policy: RatePolicy::MultiRate,
    }
}

impl Parts {
    /// The user-major CSR arenas `(user_off, user_adj, user_sig)`.
    fn arenas(&self) -> (Vec<u32>, Vec<(ApId, Kbps)>, Vec<i64>) {
        let mut off = vec![0u32];
        let (mut adj, mut sig) = (Vec::new(), Vec::new());
        for row in &self.rows {
            for &(a, r, s) in row {
                adj.push((a, r));
                sig.push(s);
            }
            off.push(adj.len() as u32);
        }
        (off, adj, sig)
    }
}

#[derive(Clone, Copy, Debug)]
enum Malformation {
    NoSupportedRates,
    ZeroSessionRate,
    NegativeBudget,
    UnknownSession,
    UnknownAp,
    UnsupportedRate,
    DescendingRow,
    RepeatedAp,
    LoadQuantumOverflow,
    CoveringTotalOverflow,
}

impl Malformation {
    /// The valid instance with this one edit.
    fn applied(self) -> Parts {
        let mut p = valid();
        match self {
            Malformation::NoSupportedRates => p.rates.clear(),
            Malformation::ZeroSessionRate => p.sessions[1].rate = Kbps(0),
            Malformation::NegativeBudget => p.budgets[2] = Load::new(-1, 4),
            Malformation::UnknownSession => p.users[2].session = SessionId(7),
            Malformation::UnknownAp => p.rows[2][0].0 = ApId(9),
            Malformation::UnsupportedRate => p.rows[3][1].1 = mbps(4),
            Malformation::DescendingRow => p.rows[3].swap(0, 2),
            Malformation::RepeatedAp => p.rows[0][1].0 = ApId(0),
            // Two coprime rates near 2³² put the LCM of the rate set, and
            // with it every load numerator, beyond i64.
            Malformation::LoadQuantumOverflow => {
                p.rates.extend([Kbps(u32::MAX - 1), Kbps(u32::MAX)]);
            }
            // Two coprime rates near 1.5·10⁷ kbps keep the largest AP load
            // (about 2.7·10¹⁸ quanta) within i64, but the reduction's
            // sets, in half-quanta over three APs, total about 2.8·10¹⁹:
            // beyond u64.
            Malformation::CoveringTotalOverflow => {
                p.rates.extend([Kbps(15_000_001), Kbps(15_000_007)]);
            }
        }
        p
    }

    /// The error every rejecting constructor reports.
    fn error(self) -> InstanceError {
        match self {
            Malformation::NoSupportedRates => InstanceError::NoSupportedRates,
            Malformation::ZeroSessionRate => InstanceError::ZeroSessionRate(SessionId(1)),
            Malformation::NegativeBudget => InstanceError::NegativeBudget(ApId(2)),
            Malformation::UnknownSession => InstanceError::UnknownSession(SessionId(7)),
            Malformation::UnknownAp => InstanceError::UnknownAp(ApId(9)),
            Malformation::UnsupportedRate => InstanceError::UnsupportedLinkRate {
                ap: ApId(1),
                user: UserId(3),
                rate: mbps(4),
            },
            Malformation::DescendingRow => InstanceError::UnsortedCandidates(UserId(3)),
            Malformation::RepeatedAp => InstanceError::UnsortedCandidates(UserId(0)),
            Malformation::LoadQuantumOverflow | Malformation::CoveringTotalOverflow => {
                InstanceError::LoadQuantumOverflow
            }
        }
    }
}

// ---- the constructors --------------------------------------------------

fn streaming(p: &Parts) -> Result<Instance, InstanceError> {
    let mut b = StreamingInstanceBuilder::new(
        p.sessions.clone(),
        p.budgets.clone(),
        p.rates.clone(),
        p.policy,
    )?;
    for (spec, row) in p.users.iter().zip(&p.rows) {
        let links: Vec<_> = row
            .iter()
            .map(|&(a, r, s)| (a, r, SignalStrength(s)))
            .collect();
        b.push_user(spec.session, &links)?;
    }
    Ok(b.finish())
}

/// Declares every link in row order through [`InstanceBuilder`].
fn batch(p: &Parts) -> Result<Instance, InstanceError> {
    let mut b = InstanceBuilder::new();
    b.supported_rates(p.rates.iter().copied())
        .rate_policy(p.policy);
    for s in &p.sessions {
        b.add_session(s.rate);
    }
    for &budget in &p.budgets {
        b.add_ap(budget);
    }
    for u in &p.users {
        b.add_user(u.session);
    }
    for (u, row) in p.rows.iter().enumerate() {
        for &(a, r, s) in row {
            b.link_with_signal(a, UserId(u as u32), r, SignalStrength(s))?;
        }
    }
    b.build()
}

fn csr(p: &Parts) -> Result<Instance, String> {
    let (user_off, user_adj, user_sig) = p.arenas();
    Instance::from_csr(
        p.sessions.clone(),
        p.users.clone(),
        p.budgets.clone(),
        user_off,
        user_adj,
        user_sig,
        p.rates.clone(),
        p.policy,
    )
}

/// Writes the parts as sparse `mcast-instance/v1` JSON text and decodes it.
fn sparse_wire(p: &Parts) -> Result<Instance, String> {
    let (user_off, _, _) = p.arenas();
    let links = p
        .rows
        .iter()
        .flatten()
        .map(|&(a, r, s)| Value::Array(vec![int(a.0.into()), int(r.0.into()), int(s)]))
        .collect();
    decode(Value::Object(vec![
        ("format".into(), Value::Str(SPARSE_FORMAT.into())),
        ("sessions".into(), p.sessions.serialize_value()),
        (
            "users".into(),
            Value::Array(p.users.iter().map(|u| int(u.session.0.into())).collect()),
        ),
        ("budgets".into(), p.budgets.serialize_value()),
        (
            "user_off".into(),
            Value::Array(user_off.iter().map(|&o| int(o.into())).collect()),
        ),
        ("links".into(), Value::Array(links)),
        ("rates".into(), p.rates.serialize_value()),
        ("rate_policy".into(), p.policy.serialize_value()),
    ]))
}

/// Writes the parts as legacy dense-matrix JSON text and decodes it. A
/// matrix cell is one (AP, user) pair, so only malformations that fit in
/// the matrix can be written: no unknown AP, no out-of-order or repeated
/// candidate.
fn dense_wire(p: &Parts) -> Result<Instance, String> {
    let (n_aps, n_users) = (p.budgets.len(), p.users.len());
    let mut link = vec![Value::Null; n_aps * n_users];
    let mut signal = link.clone();
    for (u, row) in p.rows.iter().enumerate() {
        for &(a, r, s) in row {
            link[a.index() * n_users + u] = int(r.0.into());
            signal[a.index() * n_users + u] = int(s);
        }
    }
    decode(Value::Object(vec![
        ("sessions".into(), p.sessions.serialize_value()),
        ("users".into(), p.users.serialize_value()),
        ("budgets".into(), p.budgets.serialize_value()),
        ("link".into(), Value::Array(link)),
        ("signal".into(), Value::Array(signal)),
        ("user_aps".into(), Value::Array(vec![])),
        ("ap_users".into(), Value::Array(vec![])),
        ("rates".into(), p.rates.serialize_value()),
        ("rate_policy".into(), p.policy.serialize_value()),
    ]))
}

fn decode(doc: Value) -> Result<Instance, String> {
    let text = serde_json::to_string(&doc).unwrap();
    serde_json::from_str(&text).map_err(|e| e.to_string())
}

/// The sparse wire text, which pins every arena of an instance.
fn wire(inst: &Instance) -> String {
    serde_json::to_string(inst).unwrap()
}

/// The valid parts pushed in order through the streaming builder.
fn reference() -> String {
    wire(&streaming(&valid()).unwrap())
}

/// Asserts that a constructor reporting errors as text names the
/// malformation's error.
fn assert_names(result: Result<Instance, String>, m: Malformation) {
    let want = m.error().to_string();
    match result {
        Ok(_) => panic!("{m:?} was accepted"),
        Err(msg) => assert!(msg.contains(&want), "{m:?}: `{msg}` lacks `{want}`"),
    }
}

mod streaming {
    use super::*;

    fn check(m: Malformation) {
        assert_eq!(streaming(&m.applied()).unwrap_err(), m.error());
    }

    #[test]
    fn builds_the_valid_instance() {
        let inst = streaming(&valid()).unwrap();
        assert_eq!((inst.n_aps(), inst.n_users(), inst.n_links()), (3, 4, 6));
        assert_eq!(inst.reachable_users(ApId(1)), &[UserId(2), UserId(3)]);
    }

    #[test]
    fn no_supported_rates() {
        check(Malformation::NoSupportedRates);
    }

    #[test]
    fn zero_session_rate() {
        check(Malformation::ZeroSessionRate);
    }

    #[test]
    fn negative_budget() {
        check(Malformation::NegativeBudget);
    }

    #[test]
    fn unknown_session() {
        check(Malformation::UnknownSession);
    }

    #[test]
    fn unknown_ap() {
        check(Malformation::UnknownAp);
    }

    #[test]
    fn unsupported_rate() {
        check(Malformation::UnsupportedRate);
    }

    #[test]
    fn descending_row() {
        check(Malformation::DescendingRow);
    }

    #[test]
    fn repeated_ap() {
        check(Malformation::RepeatedAp);
    }

    #[test]
    fn load_quantum_overflow() {
        check(Malformation::LoadQuantumOverflow);
    }

    #[test]
    fn covering_total_overflow() {
        check(Malformation::CoveringTotalOverflow);
    }
}

mod batch_builder {
    use super::*;

    fn check(m: Malformation) {
        assert_eq!(batch(&m.applied()).unwrap_err(), m.error());
    }

    #[test]
    fn builds_the_valid_instance() {
        assert_eq!(wire(&batch(&valid()).unwrap()), reference());
    }

    #[test]
    fn no_supported_rates() {
        check(Malformation::NoSupportedRates);
    }

    #[test]
    fn zero_session_rate() {
        check(Malformation::ZeroSessionRate);
    }

    #[test]
    fn negative_budget() {
        check(Malformation::NegativeBudget);
    }

    #[test]
    fn unknown_session() {
        check(Malformation::UnknownSession);
    }

    /// Caught as the link is declared, before `build`.
    #[test]
    fn unknown_ap() {
        check(Malformation::UnknownAp);
    }

    #[test]
    fn unsupported_rate() {
        check(Malformation::UnsupportedRate);
    }

    #[test]
    fn load_quantum_overflow() {
        check(Malformation::LoadQuantumOverflow);
    }

    #[test]
    fn covering_total_overflow() {
        check(Malformation::CoveringTotalOverflow);
    }

    #[test]
    fn descending_declarations_build_the_ascending_row() {
        let inst = batch(&Malformation::DescendingRow.applied()).unwrap();
        assert_eq!(wire(&inst), reference());
    }

    #[test]
    fn repeated_ap_keeps_the_last_declaration() {
        let inst = batch(&Malformation::RepeatedAp.applied()).unwrap();
        let mut want = valid();
        want.rows[0] = vec![(ApId(0), mbps(12), -10)];
        assert_eq!(wire(&inst), wire(&streaming(&want).unwrap()));
        assert_eq!(inst.link_rate(ApId(0), UserId(0)), Some(mbps(12)));
        assert_eq!(inst.link_rate(ApId(2), UserId(0)), None);
    }
}

mod from_csr {
    use super::*;

    fn check(m: Malformation) {
        assert_names(csr(&m.applied()), m);
    }

    #[test]
    fn builds_the_valid_instance() {
        assert_eq!(wire(&csr(&valid()).unwrap()), reference());
    }

    #[test]
    fn no_supported_rates() {
        check(Malformation::NoSupportedRates);
    }

    #[test]
    fn zero_session_rate() {
        check(Malformation::ZeroSessionRate);
    }

    #[test]
    fn negative_budget() {
        check(Malformation::NegativeBudget);
    }

    #[test]
    fn unknown_session() {
        check(Malformation::UnknownSession);
    }

    #[test]
    fn unknown_ap() {
        check(Malformation::UnknownAp);
    }

    #[test]
    fn unsupported_rate() {
        check(Malformation::UnsupportedRate);
    }

    #[test]
    fn descending_row() {
        check(Malformation::DescendingRow);
    }

    #[test]
    fn repeated_ap() {
        check(Malformation::RepeatedAp);
    }

    #[test]
    fn load_quantum_overflow() {
        check(Malformation::LoadQuantumOverflow);
    }

    #[test]
    fn covering_total_overflow() {
        check(Malformation::CoveringTotalOverflow);
    }

    #[test]
    fn row_errors_name_the_user() {
        let err = csr(&Malformation::UnsupportedRate.applied()).unwrap_err();
        assert_eq!(
            err,
            format!("user 3: {}", Malformation::UnsupportedRate.error())
        );
    }

    #[test]
    fn offsets_must_match_the_user_count() {
        let p = valid();
        let (mut user_off, user_adj, user_sig) = p.arenas();
        user_off.pop();
        let err = Instance::from_csr(
            p.sessions, p.users, p.budgets, user_off, user_adj, user_sig, p.rates, p.policy,
        )
        .unwrap_err();
        assert_eq!(err, "user_off has 4 entries for 4 users");
    }

    #[test]
    fn offsets_must_not_decrease() {
        let p = valid();
        let (mut user_off, user_adj, user_sig) = p.arenas();
        assert_eq!(user_off, [0, 2, 2, 3, 6]);
        user_off[2] = 1;
        let err = Instance::from_csr(
            p.sessions, p.users, p.budgets, user_off, user_adj, user_sig, p.rates, p.policy,
        )
        .unwrap_err();
        assert_eq!(err, "user 1: offsets 2..1 out of order");
    }
}

mod sparse_json {
    use super::*;

    fn check(m: Malformation) {
        assert_names(sparse_wire(&m.applied()), m);
    }

    #[test]
    fn builds_the_valid_instance() {
        assert_eq!(wire(&sparse_wire(&valid()).unwrap()), reference());
    }

    #[test]
    fn no_supported_rates() {
        check(Malformation::NoSupportedRates);
    }

    #[test]
    fn zero_session_rate() {
        check(Malformation::ZeroSessionRate);
    }

    #[test]
    fn negative_budget() {
        check(Malformation::NegativeBudget);
    }

    #[test]
    fn unknown_session() {
        check(Malformation::UnknownSession);
    }

    #[test]
    fn unknown_ap() {
        check(Malformation::UnknownAp);
    }

    #[test]
    fn unsupported_rate() {
        check(Malformation::UnsupportedRate);
    }

    #[test]
    fn descending_row() {
        check(Malformation::DescendingRow);
    }

    #[test]
    fn repeated_ap() {
        check(Malformation::RepeatedAp);
    }

    #[test]
    fn load_quantum_overflow() {
        check(Malformation::LoadQuantumOverflow);
    }

    #[test]
    fn covering_total_overflow() {
        check(Malformation::CoveringTotalOverflow);
    }
}

mod dense_json {
    use super::*;

    fn check(m: Malformation) {
        assert_names(dense_wire(&m.applied()), m);
    }

    #[test]
    fn builds_the_valid_instance() {
        assert_eq!(wire(&dense_wire(&valid()).unwrap()), reference());
    }

    #[test]
    fn no_supported_rates() {
        check(Malformation::NoSupportedRates);
    }

    #[test]
    fn zero_session_rate() {
        check(Malformation::ZeroSessionRate);
    }

    #[test]
    fn negative_budget() {
        check(Malformation::NegativeBudget);
    }

    #[test]
    fn unknown_session() {
        check(Malformation::UnknownSession);
    }

    #[test]
    fn unsupported_rate() {
        check(Malformation::UnsupportedRate);
    }

    #[test]
    fn load_quantum_overflow() {
        check(Malformation::LoadQuantumOverflow);
    }

    #[test]
    fn covering_total_overflow() {
        check(Malformation::CoveringTotalOverflow);
    }

    /// The matrix has no row order of its own: a row written from a
    /// descending candidate list decodes ascending.
    #[test]
    fn descending_row_decodes_ascending() {
        let inst = dense_wire(&Malformation::DescendingRow.applied()).unwrap();
        assert_eq!(wire(&inst), reference());
    }
}

/// The covering total at its limit. With rates `{1, a, b}` kbps, `a` and
/// `b` the coprime `2³¹ − 1` and `2³¹ − 2`, and one 1 kbps session,
/// `Q = ab` and the largest AP load is `Q` quanta, within i64. Three users
/// top out at the three rates, so each AP holds a set per rate, costing
/// `2(Q + a + b) = 2⁶³ − 2³² − 2` half-quanta together: two APs total
/// `2⁶⁴ − 2³³ − 4`, just within u64, and a third AP overflows it.
mod covering_total {
    use super::*;
    use mcast_core::bla::budget_grid;
    use mcast_core::reduction::Reduction;
    use mcast_core::{solve_bla, solve_mla_with, solve_mnu, MlaAlgorithm};
    use mcast_covering::{
        greedy_mcg, greedy_set_cover, primal_dual_set_cover, solve_scg, total_cost, SetId,
    };

    const A: u32 = (1 << 31) - 1;
    const B: u32 = (1 << 31) - 2;

    /// Three users, each in range of every AP at one of the three rates.
    fn parts(n_aps: u32) -> Parts {
        let user = UserSpec {
            session: SessionId(0),
        };
        let row = |r| (0..n_aps).map(|a| (ApId(a), Kbps(r), -10)).collect();
        Parts {
            sessions: vec![SessionSpec { rate: Kbps(1) }],
            users: vec![user; 3],
            budgets: vec![Load::new(1 << 40, 1); n_aps as usize],
            rows: vec![row(1), row(B), row(A)],
            rates: vec![Kbps(1), Kbps(B), Kbps(A)],
            policy: RatePolicy::MultiRate,
        }
    }

    #[test]
    fn every_constructor_accepts_two_aps_and_rejects_three() {
        let two = parts(2);
        let inst = streaming(&two).unwrap();
        for other in [batch(&two).unwrap(), csr(&two).unwrap()] {
            assert_eq!(wire(&other), wire(&inst));
        }
        for decoded in [sparse_wire(&two), dense_wire(&two)] {
            assert_eq!(wire(&decoded.unwrap()), wire(&inst));
        }

        let three = parts(3);
        let m = Malformation::LoadQuantumOverflow;
        assert_eq!(streaming(&three).unwrap_err(), m.error());
        assert_eq!(batch(&three).unwrap_err(), m.error());
        assert_names(csr(&three), m);
        assert_names(sparse_wire(&three), m);
        assert_names(dense_wire(&three), m);
    }

    /// The two-AP instance's covering sums reach within 2³⁴ of
    /// `u64::MAX`; the solvers run on it without overflow and agree with
    /// the generic solvers on exact rationals.
    #[test]
    fn solvers_run_at_the_limit() {
        let inst = streaming(&parts(2)).unwrap();
        let q = Reduction::quantized(&inst);
        let exact = Reduction::build(&inst);
        let all: Vec<SetId> = (0..q.system().n_sets() as u32).map(SetId).collect();
        assert_eq!(all.len(), 6);
        assert_eq!(total_cost(q.system(), &all), u64::MAX - (1 << 33) - 3);
        assert_eq!(
            q.to_load(total_cost(q.system(), &all)),
            total_cost(exact.system(), &all)
        );
        // Budgets far above any load saturate to the odd u64::MAX.
        assert_eq!(q.budgets(), &[u64::MAX, u64::MAX]);

        let mnu = solve_mnu(&inst);
        let want = greedy_mcg(exact.system(), exact.budgets());
        assert_eq!(mnu.satisfied, 3);
        assert_eq!(mnu.model_cost, Some(*want.feasible().total_cost()));

        let mla = solve_mla_with(&inst, MlaAlgorithm::Greedy).unwrap();
        let want = greedy_set_cover(exact.system()).unwrap();
        assert_eq!(mla.model_cost, Some(*want.total_cost()));
        let mla = solve_mla_with(&inst, MlaAlgorithm::PrimalDual).unwrap();
        let want = primal_dual_set_cover(exact.system()).unwrap();
        assert_eq!(mla.model_cost, Some(*want.cover.total_cost()));

        // BLA's grid ends in the all-sets total, so its sweep compares
        // budgets up to 2⁶⁴ − 2³³ − 4.
        let bla = solve_bla(&inst).unwrap();
        let want = solve_scg(exact.system(), &budget_grid(&exact, 16)).unwrap();
        assert_eq!(bla.model_cost, Some(*want.max_group_cost()));
        assert_eq!(
            budget_grid(&q, 16).last(),
            Some(&(u64::MAX - (1 << 33) - 3))
        );
    }
}
