//! Reductions from the WLAN association problems to covering problems
//! (paper Theorems 1, 3 and 5).
//!
//! All three objectives share one construction: the ground set is the user
//! set; for every AP `a`, session `s` and usable multicast rate `r`, there
//! is a set containing every user that requests `s` and can decode rate `r`
//! from `a`, with cost `rate(s) / r`; the sets of AP `a` form group `a`.
//! MNU adds per-group budgets (the AP load limits); BLA minimizes the
//! maximum group cost; MLA ignores groups and minimizes total cost.
//!
//! The construction is generic over how a cost is written down
//! ([`ModelCost`]). [`Reduction::build`] writes exact [`Load`] rationals;
//! [`Reduction::quantized`] writes `u64` half-quanta, which the production
//! solvers run on. Both describe the same set system, and every covering
//! comparison gives the same answer on either.

use mcast_covering::{Cost, Cover, SetId, SetSystem, SetSystemBuilder};
use serde::{Deserialize, Serialize};

use crate::assoc::Association;
use crate::ids::{ApId, SessionId, UserId};
use crate::instance::Instance;
use crate::load::Load;
use crate::rate::Kbps;

/// What a covering set means in WLAN terms: AP `ap` multicasts session
/// `session` at transmission rate `tx_rate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Choice {
    /// The transmitting AP (also the group of the set).
    pub ap: ApId,
    /// The multicast session transmitted.
    pub session: SessionId,
    /// The transmission rate used.
    pub tx_rate: Kbps,
}

/// A cost type a [`Reduction`] can be written in: how a transmission's
/// load and a rational threshold map onto it, and how a cost maps back.
///
/// The map must be exact for the covering solvers: it scales every load
/// by one positive constant, so effectiveness ratios, and with them every
/// greedy pick and tie-break, are unchanged; and for every sum `x` of set
/// costs and every threshold `b`, `x ≥ threshold(b)` and
/// `x > threshold(b)` hold exactly when the load of `x` is `≥` and `>`
/// `b`.
pub trait ModelCost: Cost + Copy {
    /// The cost of multicasting session `s` at rate `tx`.
    fn transmission(inst: &Instance, s: SessionId, tx: Kbps) -> Self;
    /// The threshold `b` (an AP budget or a BLA candidate `B*`), in this
    /// type's units, for an instance of load quantum `quantum`.
    fn threshold(b: Load, quantum: u64) -> Self;
    /// The exact load of this cost.
    fn to_load(self, quantum: u64) -> Load;
}

/// Exact rationals: the identity map.
impl ModelCost for Load {
    fn transmission(inst: &Instance, s: SessionId, tx: Kbps) -> Load {
        Load::per_transmission(inst.session_rate(s), tx)
    }

    fn threshold(b: Load, _: u64) -> Load {
        b
    }

    fn to_load(self, _: u64) -> Load {
        self
    }
}

/// Half-quanta: a load `n/Q` is `2n`, and a threshold is
/// [`Load::half_threshold`] (see [`Instance::quantum`]).
impl ModelCost for u64 {
    fn transmission(inst: &Instance, s: SessionId, tx: Kbps) -> u64 {
        2 * inst.session_quanta(s, tx)
    }

    fn threshold(b: Load, quantum: u64) -> u64 {
        b.half_threshold(quantum)
    }

    fn to_load(self, quantum: u64) -> Load {
        Load::new(i128::from(self), 2 * i128::from(quantum))
    }
}

/// The covering instance produced from a WLAN [`Instance`], with the
/// mapping back from set ids to [`Choice`]s.
#[derive(Debug, Clone)]
pub struct Reduction<C = Load> {
    system: SetSystem<C>,
    choices: Vec<Choice>,
    budgets: Vec<C>,
    /// The instance's load quantum, for [`ModelCost`]'s maps.
    quantum: u64,
}

impl Reduction<Load> {
    /// Builds the covering instance (Theorem 1/3/5 construction) with exact
    /// [`Load`] costs, in time linear in the links plus the set members
    /// written: each user's row and each AP's row is walked once.
    ///
    /// Duplicate sets — e.g. two rates reaching exactly the same members —
    /// are pruned, keeping the cheaper (higher-rate) one; this never
    /// changes what any solver can achieve.
    pub fn build(inst: &Instance) -> Reduction<Load> {
        Reduction::construct(inst)
    }
}

impl Reduction<u64> {
    /// The set system of [`Reduction::build`] with costs in `u64`
    /// half-quanta: a set costs `2 · rate(s) · Q / r`, and each AP budget
    /// `b` becomes [`Load::half_threshold`]. The covering solvers pick the
    /// same sets, in the same order, on either system; this one compares
    /// integers instead of `i128` rationals.
    ///
    /// Every covering sum fits `u64`
    /// ([`InstanceError::LoadQuantumOverflow`](crate::InstanceError)).
    pub fn quantized(inst: &Instance) -> Reduction<u64> {
        Reduction::construct(inst)
    }
}

impl<C: ModelCost> Reduction<C> {
    /// The one construction body behind [`Reduction::build`] and
    /// [`Reduction::quantized`]: one pass over the users' rows files each
    /// link's top rate level by AP, and one pass over the APs' rows emits
    /// each (AP, session) chain of sets.
    fn construct(inst: &Instance) -> Reduction<C> {
        let mut builder = SetSystemBuilder::<C>::new(inst.n_users());
        builder.ensure_groups(inst.n_aps());
        let mut choices: Vec<Choice> = Vec::new();
        let rates = inst.multicast_rates();

        // Per link, parallel to the APs' `reachable_users` rows: the index
        // of the highest multicast rate the user decodes. Users are walked
        // in id order and each AP's row ascends by `UserId`, so each link
        // lands at its AP's cursor.
        let mut cursor: Vec<usize> = Vec::with_capacity(inst.n_aps());
        let mut n_links = 0;
        for a in inst.aps() {
            cursor.push(n_links);
            n_links += inst.reachable_users(a).len();
        }
        let mut levels = vec![0u32; n_links];
        for u in inst.users() {
            for &(a, link) in inst.candidate_aps(u) {
                // Every link runs at a supported rate, so at or above the
                // slowest multicast rate.
                let tx = inst.multicast_rate_over(link);
                let top = rates.partition_point(|&r| r <= tx) - 1;
                levels[cursor[a.index()]] = top as u32;
                cursor[a.index()] += 1;
            }
        }

        // Scratch reused across APs: per session, the AP's reachable users
        // of that session with their top level (ascending `UserId`); the
        // sessions seen; and per level, how many users top out exactly
        // there.
        let mut buckets: Vec<Vec<(u32, u32)>> = vec![Vec::new(); inst.n_sessions()];
        let mut seen: Vec<SessionId> = Vec::new();
        let mut top_at: Vec<usize> = vec![0; rates.len()];

        let mut row_start = 0;
        for a in inst.aps() {
            let users = inst.reachable_users(a);
            let row_levels = &levels[row_start..row_start + users.len()];
            row_start += users.len();
            for (&u, &top) in users.iter().zip(row_levels) {
                let s = inst.user_session(u);
                if buckets[s.index()].is_empty() {
                    seen.push(s);
                }
                buckets[s.index()].push((u.0, top));
            }
            seen.sort_unstable();
            for &s in &seen {
                let bucket = &mut buckets[s.index()];
                top_at.fill(0);
                for &(_, top) in bucket.iter() {
                    top_at[top as usize] += 1;
                }
                // Ascending rates: members shrink as the rate climbs, cost
                // falls. The members at rate `k` are the users topping out
                // at `k` or above, so they equal the members at the next
                // rate exactly when nobody tops out at `k`; that set (or an
                // empty one) is skipped, keeping only the cheaper one. The
                // members ascend, so they go into the system as they come.
                for (k, &r) in rates.iter().enumerate() {
                    if top_at[k] == 0 {
                        continue;
                    }
                    let members = bucket
                        .iter()
                        .filter(|&&(_, top)| top as usize >= k)
                        .map(|&(u, _)| u);
                    builder
                        .push_set(members, C::transmission(inst, s, r), a.0)
                        .expect("reduction sets are valid by construction");
                    choices.push(Choice {
                        ap: a,
                        session: s,
                        tx_rate: r,
                    });
                }
                bucket.clear();
            }
            seen.clear();
        }
        drop(levels); // before the builder's indexes are allocated

        // `push_set` order and `choices` stay parallel: the builder assigns
        // ids in push order, and the adjacent-rate skip above already
        // drops the only duplicate sets the construction can produce
        // within a group.
        let system = builder.build().expect("valid construction");
        debug_assert_eq!(system.n_sets(), choices.len());

        let quantum = inst.quantum();
        let budgets = inst
            .aps()
            .map(|a| C::threshold(inst.budget(a), quantum))
            .collect();
        Reduction {
            system,
            choices,
            budgets,
            quantum,
        }
    }

    /// The covering instance.
    pub fn system(&self) -> &SetSystem<C> {
        &self.system
    }

    /// The WLAN meaning of set `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn choice(&self, id: SetId) -> Choice {
        self.choices[id.0 as usize]
    }

    /// Per-group (= per-AP) budgets for the MNU instance.
    pub fn budgets(&self) -> &[C] {
        &self.budgets
    }

    /// The threshold `b` in this reduction's cost units (see
    /// [`ModelCost::threshold`]).
    pub fn threshold(&self, b: Load) -> C {
        C::threshold(b, self.quantum)
    }

    /// The exact load of cost `c`.
    pub fn to_load(&self, c: C) -> Load {
        c.to_load(self.quantum)
    }

    /// Users no AP can reach — the instance is uncoverable if non-empty.
    pub fn uncoverable_users(&self) -> Vec<UserId> {
        self.system
            .uncoverable_elements()
            .into_iter()
            .map(|e| UserId(e.0))
            .collect()
    }

    /// Translates a covering solution into an association: each covered
    /// element (user) associates with the AP of the set that covered it.
    ///
    /// The *realized* load of that association (minimum member rate per
    /// session, Definition 1) is never more than the covering-model cost:
    /// if two sets for the same (AP, session) were chosen, the AP really
    /// transmits once, at the lower rate.
    pub fn to_association(&self, cover: &Cover<C>) -> Association {
        let mut assoc = Association::empty(self.system.n_elements());
        for (e, assigned) in cover.assignment().iter().enumerate() {
            if let Some(sid) = assigned {
                assoc.set(UserId(e as u32), Some(self.choice(*sid).ap));
            }
        }
        assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure1_instance;
    use crate::instance::InstanceBuilder;
    use crate::rate::RatePolicy;
    use mcast_covering::{ElementId, GroupId};

    fn mbps(m: u32) -> Kbps {
        Kbps::from_mbps(m)
    }

    /// The reduction of Figure 1 at 1 Mbps must be exactly the paper's
    /// Figure 5 / Figure 7 set system (7 sets, after deduplication).
    #[test]
    fn figure1_reduction_matches_figure5() {
        let inst = figure1_instance(mbps(1));
        let red = Reduction::build(&inst);
        let sys = red.system();
        assert_eq!(sys.n_elements(), 5);
        assert_eq!(sys.n_groups(), 2);
        assert_eq!(sys.n_sets(), 7);

        // Collect (ap, members, cost) triples.
        let mut triples: Vec<(u32, Vec<u32>, Load)> = (0..sys.n_sets())
            .map(|i| {
                let set = sys.set(SetId(i as u32));
                (
                    set.group().0,
                    set.members().iter().map(|e| e.0).collect(),
                    *set.cost(),
                )
            })
            .collect();
        triples.sort();
        let expected: Vec<(u32, Vec<u32>, Load)> = vec![
            // a1: s1 @4 {u3}, s1 @3 {u1,u3}, s2 @6 {u2}, s2 @4 {u2,u4,u5}
            (0, vec![0, 2], Load::from_ratio(1, 3)),
            (0, vec![1], Load::from_ratio(1, 6)),
            (0, vec![1, 3, 4], Load::from_ratio(1, 4)),
            (0, vec![2], Load::from_ratio(1, 4)),
            // a2: s1 @5 {u3}, s2 @5 {u4}, s2 @3 {u4,u5}
            (1, vec![2], Load::from_ratio(1, 5)),
            (1, vec![3], Load::from_ratio(1, 5)),
            (1, vec![3, 4], Load::from_ratio(1, 3)),
        ];
        let mut expected = expected;
        expected.sort();
        assert_eq!(triples, expected);
    }

    /// With 3 Mbps sessions the same sets appear with tripled costs
    /// (Figure 2), and the budgets are the AP load limits.
    #[test]
    fn figure1_reduction_at_3mbps_matches_figure2() {
        let inst = figure1_instance(mbps(3));
        let red = Reduction::build(&inst);
        assert_eq!(red.system().n_sets(), 7);
        assert_eq!(red.budgets(), &[Load::ONE, Load::ONE]);
        // The (a1, s2, @4) set now costs 3/4.
        let found = (0..red.system().n_sets()).any(|i| {
            let id = SetId(i as u32);
            let set = red.system().set(id);
            let c = red.choice(id);
            c.ap == ApId(0)
                && c.tx_rate == mbps(4)
                && set.members() == [ElementId(1), ElementId(3), ElementId(4)]
                && *set.cost() == Load::from_ratio(3, 4)
        });
        assert!(found, "expected the S4 set of Figure 2");
    }

    /// The half-quantum reduction is the exact one, set for set, with
    /// each cost doubled on the quantum grid.
    #[test]
    fn quantized_mirrors_build() {
        let inst = figure1_instance(mbps(3));
        let exact = Reduction::build(&inst);
        let quantized = Reduction::quantized(&inst);
        assert_eq!(inst.quantum(), 60_000);
        assert_eq!(exact.system().n_sets(), quantized.system().n_sets());
        for (i, (x, q)) in exact
            .system()
            .sets()
            .iter()
            .zip(quantized.system().sets().iter())
            .enumerate()
        {
            assert_eq!(x.members(), q.members());
            assert_eq!(x.group(), q.group());
            assert_eq!(
                exact.choice(SetId(i as u32)),
                quantized.choice(SetId(i as u32))
            );
            assert_eq!(quantized.to_load(*q.cost()), *x.cost());
        }
        // Budget 1 is on the grid: 2 · 60,000 half-quanta.
        assert_eq!(quantized.budgets(), &[120_000, 120_000]);
        assert_eq!(quantized.threshold(Load::from_ratio(5, 7)), 85_715);
    }

    #[test]
    fn choices_align_with_groups() {
        let inst = figure1_instance(mbps(1));
        let red = Reduction::build(&inst);
        for i in 0..red.system().n_sets() {
            let id = SetId(i as u32);
            let choice = red.choice(id);
            assert_eq!(GroupId(choice.ap.0), red.system().set(id).group());
            // Cost is rate(session)/tx_rate.
            assert_eq!(
                *red.system().set(id).cost(),
                Load::per_transmission(inst.session_rate(choice.session), choice.tx_rate)
            );
            // Every member can decode tx_rate from the AP.
            for e in red.system().set(id).members() {
                let u = UserId(e.0);
                assert_eq!(inst.user_session(u), choice.session);
                assert!(inst.multicast_rate_to(choice.ap, u).unwrap() >= choice.tx_rate);
            }
        }
    }

    #[test]
    fn basic_only_policy_collapses_to_one_set_per_ap_session() {
        // The Figure 1 WLAN rebuilt with BasicOnly: every (AP, session)
        // gets exactly one set at the basic rate (3 Mbps) containing all
        // reachable requesters.
        let mut b = InstanceBuilder::new();
        b.supported_rates([mbps(3), mbps(4), mbps(5), mbps(6)]);
        b.rate_policy(RatePolicy::BasicOnly);
        let s1 = b.add_session(mbps(1));
        let s2 = b.add_session(mbps(1));
        let a1 = b.add_ap(Load::ONE);
        let a2 = b.add_ap(Load::ONE);
        let users = [
            (s1, vec![(a1, 3)]),
            (s2, vec![(a1, 6)]),
            (s1, vec![(a1, 4), (a2, 5)]),
            (s2, vec![(a1, 4), (a2, 5)]),
            (s2, vec![(a1, 4), (a2, 3)]),
        ];
        for (s, links) in users {
            let u = b.add_user(s);
            for (a, r) in links {
                b.link(a, u, mbps(r)).unwrap();
            }
        }
        let inst = b.build().unwrap();
        let red = Reduction::build(&inst);
        // a1 serves s1 and s2; a2 serves s1 and s2 => 4 sets, all at 3 Mbps.
        assert_eq!(red.system().n_sets(), 4);
        for i in 0..4 {
            assert_eq!(red.choice(SetId(i)).tx_rate, mbps(3));
            assert_eq!(*red.system().set(SetId(i)).cost(), Load::from_ratio(1, 3));
        }
    }

    #[test]
    fn uncoverable_user_reported() {
        let mut b = InstanceBuilder::new();
        let s = b.add_session(mbps(1));
        b.add_ap(Load::ONE);
        let _lonely = b.add_user(s);
        let inst = b.build().unwrap();
        let red = Reduction::build(&inst);
        assert_eq!(red.uncoverable_users(), vec![UserId(0)]);
    }
}
