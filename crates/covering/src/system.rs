//! The [`SetSystem`] covering instance: ground set, weighted subsets, groups.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::cost::Cost;

/// Identifies an element of the ground set (`0..n_elements`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ElementId(pub u32);

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifies a set within a [`SetSystem`] (index into its set list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SetId(pub u32);

impl fmt::Display for SetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Identifies a group of sets (index into the group list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct GroupId(pub u32);

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// One weighted subset of the ground set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetDef<C> {
    members: Vec<ElementId>,
    cost: C,
    group: GroupId,
}

impl<C: Cost> SetDef<C> {
    /// The elements of this set, sorted ascending and duplicate-free.
    pub fn members(&self) -> &[ElementId] {
        &self.members
    }

    /// The cost of selecting this set. Strictly positive.
    pub fn cost(&self) -> &C {
        &self.cost
    }

    /// The group this set belongs to.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Whether `e` is a member of this set (binary search).
    pub fn contains(&self, e: ElementId) -> bool {
        self.members.binary_search(&e).is_ok()
    }
}

/// Errors detected while constructing a [`SetSystem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A set referenced an element `>= n_elements`.
    ElementOutOfRange {
        /// The offending element.
        element: ElementId,
        /// Size of the ground set.
        n_elements: usize,
    },
    /// A set was given a non-positive cost.
    NonPositiveCost {
        /// Index the set would have received.
        set: SetId,
    },
    /// A set had an empty member list.
    EmptySet {
        /// Index the set would have received.
        set: SetId,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ElementOutOfRange {
                element,
                n_elements,
            } => write!(
                f,
                "set member {element} out of range for ground set of {n_elements} elements"
            ),
            BuildError::NonPositiveCost { set } => {
                write!(f, "set {set} has non-positive cost")
            }
            BuildError::EmptySet { set } => write!(f, "set {set} has no members"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for a [`SetSystem`].
///
/// Groups are created implicitly: pushing a set with group index `g`
/// guarantees groups `0..=g` exist in the built system (possibly empty).
#[derive(Debug, Clone)]
pub struct SetSystemBuilder<C> {
    n_elements: usize,
    sets: Vec<SetDef<C>>,
    min_groups: usize,
}

impl<C: Cost> SetSystemBuilder<C> {
    /// Starts a builder for a ground set `{0, …, n_elements - 1}`.
    pub fn new(n_elements: usize) -> Self {
        SetSystemBuilder {
            n_elements,
            sets: Vec::new(),
            min_groups: 0,
        }
    }

    /// Guarantees the built system has at least `n` groups, even if some
    /// end up empty (e.g. an AP that reaches no user still needs a budget
    /// slot in the MNU reduction).
    pub fn ensure_groups(&mut self, n: usize) -> &mut Self {
        self.min_groups = self.min_groups.max(n);
        self
    }

    /// Adds a set and returns its id.
    ///
    /// `members` may arrive in any order and with duplicates; they are
    /// sorted and deduplicated.
    ///
    /// # Errors
    ///
    /// [`BuildError::ElementOutOfRange`] if a member is outside the ground
    /// set, [`BuildError::NonPositiveCost`] for a cost `<= 0`, and
    /// [`BuildError::EmptySet`] for an empty member list.
    pub fn push_set<I>(&mut self, members: I, cost: C, group: u32) -> Result<SetId, BuildError>
    where
        I: IntoIterator<Item = u32>,
    {
        let id = SetId(self.sets.len() as u32);
        let mut members: Vec<ElementId> = members.into_iter().map(ElementId).collect();
        members.sort_unstable();
        members.dedup();
        if members.is_empty() {
            return Err(BuildError::EmptySet { set: id });
        }
        if let Some(&bad) = members.iter().find(|e| e.0 as usize >= self.n_elements) {
            return Err(BuildError::ElementOutOfRange {
                element: bad,
                n_elements: self.n_elements,
            });
        }
        if cost <= C::zero() {
            return Err(BuildError::NonPositiveCost { set: id });
        }
        self.min_groups = self.min_groups.max(group as usize + 1);
        self.sets.push(SetDef {
            members,
            cost,
            group: GroupId(group),
        });
        Ok(id)
    }

    /// Removes exact-duplicate sets: within each group, if two sets have
    /// identical member lists, only the cheapest survives. Removing such a
    /// set never changes the quality reachable by the greedy solvers.
    ///
    /// Returns the number of sets dropped. Call before [`build`]; set ids
    /// are assigned at build time, so pruning does not invalidate anything.
    ///
    /// [`build`]: SetSystemBuilder::build
    pub fn prune_duplicates(&mut self) -> usize {
        let mut best: HashMap<(GroupId, Vec<ElementId>), usize> = HashMap::new();
        let mut keep = vec![true; self.sets.len()];
        for (i, set) in self.sets.iter().enumerate() {
            let key = (set.group, set.members.clone());
            match best.get(&key) {
                Some(&j) if self.sets[j].cost <= set.cost => keep[i] = false,
                Some(&j) => {
                    keep[j] = false;
                    best.insert(key, i);
                }
                None => {
                    best.insert(key, i);
                }
            }
        }
        let before = self.sets.len();
        let mut iter = keep.iter();
        self.sets
            .retain(|_| *iter.next().expect("keep mask length"));
        before - self.sets.len()
    }

    /// Finalizes the system, building its group and element indexes and
    /// its effectiveness rank table.
    pub fn build(self) -> Result<SetSystem<C>, BuildError> {
        let mut groups: Vec<Vec<SetId>> = vec![Vec::new(); self.min_groups];
        let mut covering: Vec<Vec<SetId>> = vec![Vec::new(); self.n_elements];
        for (i, set) in self.sets.iter().enumerate() {
            let id = SetId(i as u32);
            groups[set.group.0 as usize].push(id);
            for e in &set.members {
                covering[e.0 as usize].push(id);
            }
        }
        let ranks = RankTable::build(&self.sets);
        Ok(SetSystem {
            n_elements: self.n_elements,
            sets: self.sets,
            groups,
            covering,
            ranks,
        })
    }
}

/// Every effectiveness `gain / cost` a set of the system can reach, ranked.
///
/// The distinct set costs are the *cost classes*. A set's gain never
/// exceeds its size, so class `k`'s reachable ratios are `g / c_k` for
/// `g` in `1..=` the class's largest set. All these pairs are sorted
/// by [`Cost::cmp_effectiveness`], most effective first, and numbered:
/// equal ratios share a rank (2 members at cost `2c` rank with 1 member at
/// cost `c`), so one rank is exactly one tie class of the greedy scans.
/// The table holds one `u32` per set plus at most `Σ|S|` ranks.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RankTable {
    /// Where each set's cost class starts in `rank`.
    start: Vec<u32>,
    /// `rank[start[s] + g - 1]`: the rank of gain `g` at set `s`'s cost.
    rank: Vec<u32>,
    /// How many distinct ranks there are.
    n_ranks: u32,
}

impl RankTable {
    fn build<C: Cost>(sets: &[SetDef<C>]) -> RankTable {
        // Classes are numbered in order of first appearance: only the
        // pairs' order matters.
        let mut class_of: BTreeMap<&C, usize> = BTreeMap::new();
        let mut costs: Vec<&C> = Vec::new();
        let mut largest: Vec<u32> = Vec::new();
        let mut class = Vec::with_capacity(sets.len());
        for set in sets {
            let k = *class_of.entry(&set.cost).or_insert_with(|| {
                costs.push(&set.cost);
                largest.push(0);
                costs.len() - 1
            });
            largest[k] = largest[k].max(set.members.len() as u32);
            class.push(k);
        }
        let mut offset = Vec::with_capacity(costs.len());
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (k, &max) in largest.iter().enumerate() {
            offset.push(u32::try_from(pairs.len()).expect("fewer than 2^32 (gain, cost) pairs"));
            pairs.extend((1..=max).map(|g| (g, k as u32)));
        }
        let ratio_desc = |&(g1, k1): &(u32, u32), &(g2, k2): &(u32, u32)| {
            C::cmp_effectiveness(
                u64::from(g2),
                costs[k2 as usize],
                u64::from(g1),
                costs[k1 as usize],
            )
        };
        pairs.sort_unstable_by(ratio_desc);
        let mut rank = vec![0u32; pairs.len()];
        let mut n_ranks = 0u32;
        for (i, &(g, k)) in pairs.iter().enumerate() {
            if i == 0 || ratio_desc(&pairs[i - 1], &pairs[i]).is_ne() {
                n_ranks += 1;
            }
            rank[(offset[k as usize] + g - 1) as usize] = n_ranks - 1;
        }
        RankTable {
            start: class.into_iter().map(|k| offset[k]).collect(),
            rank,
            n_ranks,
        }
    }
}

/// Sets filed by the effectiveness rank of their residual gain: the
/// selection loop both covering greedies share.
///
/// Soundness rests on gains only shrinking. A set's fresh rank is never
/// better than the bucket it was filed in, so once every bucket above
/// `top` is empty it stays empty, and `top` only moves down. A pick
/// therefore scans bucket `top`: sets that can no longer be picked are
/// dropped, sets whose fresh rank is worse move to that rank's bucket, and
/// the sets that remain are exactly the reference scan's tie class. An
/// empty class moves `top` down one rank.
///
/// The storage is reused across fills, so a sweep of many greedy calls
/// allocates its buckets once.
#[derive(Debug, Default)]
pub(crate) struct RankQueue {
    buckets: Vec<Vec<u32>>,
    top: usize,
}

impl RankQueue {
    /// Empties the queue, then files every set with a positive residual
    /// that `usable` admits, in id order.
    pub(crate) fn fill<C: Cost>(
        &mut self,
        system: &SetSystem<C>,
        residual: &[u64],
        usable: impl Fn(usize) -> bool,
    ) {
        let n_ranks = system.ranks.n_ranks as usize;
        self.buckets.truncate(n_ranks);
        self.buckets.resize_with(n_ranks, Vec::new);
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        for (i, &gain) in residual.iter().enumerate() {
            if gain > 0 && usable(i) {
                self.buckets[system.rank(i, gain)].push(i as u32);
            }
        }
        self.top = 0;
    }

    /// The next pick: among the most effective sets that `live` admits,
    /// the one with the smallest `key`, or `None` when no set is left.
    ///
    /// The pick stays filed; covering its members zeroes its residual, so
    /// the next scan drops it.
    pub(crate) fn pick<C: Cost, K: Ord>(
        &mut self,
        system: &SetSystem<C>,
        residual: &[u64],
        live: impl Fn(usize) -> bool,
        key: impl Fn(usize) -> K,
    ) -> Option<usize> {
        while self.top < self.buckets.len() {
            let top = self.top;
            let mut bucket = std::mem::take(&mut self.buckets[top]);
            let mut best: Option<(K, usize)> = None;
            bucket.retain(|&s| {
                let s = s as usize;
                if residual[s] == 0 || !live(s) {
                    return false; // gains only shrink, group costs only grow
                }
                let rank = system.rank(s, residual[s]);
                if rank != top {
                    debug_assert!(rank > top, "a gain grew");
                    self.buckets[rank].push(s as u32);
                    return false;
                }
                let k = key(s);
                if best.as_ref().is_none_or(|(b, _)| k < *b) {
                    best = Some((k, s));
                }
                true
            });
            self.buckets[top] = bucket;
            if let Some((_, s)) = best {
                return Some(s);
            }
            self.top += 1;
        }
        None
    }
}

/// A covering instance: ground set `{0, …, n-1}`, weighted subsets, and a
/// partition of the subsets into groups.
///
/// In the WLAN reduction each group is an access point and each set is one
/// `(AP, session, transmission-rate)` choice whose members are the users the
/// AP would reach at that rate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetSystem<C> {
    n_elements: usize,
    sets: Vec<SetDef<C>>,
    groups: Vec<Vec<SetId>>,
    /// For each element, the ids of the sets containing it.
    covering: Vec<Vec<SetId>>,
    ranks: RankTable,
}

impl<C: Cost> SetSystem<C> {
    /// Size of the ground set.
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Number of groups (some may be empty).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// The set with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&self, id: SetId) -> &SetDef<C> {
        &self.sets[id.0 as usize]
    }

    /// All sets, indexable by `SetId.0`.
    pub fn sets(&self) -> &[SetDef<C>] {
        &self.sets
    }

    /// The ids of the sets in group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_sets(&self, g: GroupId) -> &[SetId] {
        &self.groups[g.0 as usize]
    }

    /// The ids of the sets containing element `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn covering_sets(&self, e: ElementId) -> &[SetId] {
        &self.covering[e.0 as usize]
    }

    /// True if every element belongs to at least one set.
    pub fn all_coverable(&self) -> bool {
        self.covering.iter().all(|c| !c.is_empty())
    }

    /// Elements not contained in any set.
    pub fn uncoverable_elements(&self) -> Vec<ElementId> {
        self.covering
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_empty())
            .map(|(i, _)| ElementId(i as u32))
            .collect()
    }

    /// Every set's size: its residual gain with nothing covered.
    pub(crate) fn set_sizes(&self) -> Vec<u64> {
        self.sets.iter().map(|s| s.members.len() as u64).collect()
    }

    /// The effectiveness rank of set `set` with residual gain `gain`
    /// (`1 ≤ gain ≤` the set's size); 0 is the most effective.
    pub(crate) fn rank(&self, set: usize, gain: u64) -> usize {
        let t = &self.ranks;
        t.rank[t.start[set] as usize + gain as usize - 1] as usize
    }

    /// The largest single-set cost, or `None` for an empty system.
    pub fn max_set_cost(&self) -> Option<&C> {
        self.sets.iter().map(|s| &s.cost).max()
    }

    /// The smallest single-set cost, or `None` for an empty system.
    pub fn min_set_cost(&self) -> Option<&C> {
        self.sets.iter().map(|s| &s.cost).min()
    }

    /// The largest, over coverable elements, of the element's cheapest
    /// covering set: every cover holds a set at least this costly, so no
    /// group budget below it admits a complete cover. `None` when no
    /// element is coverable.
    pub fn cover_lower_bound(&self) -> Option<&C> {
        self.covering
            .iter()
            .filter_map(|sets| sets.iter().map(|id| &self.set(*id).cost).min())
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetSystem<u64> {
        let mut b = SetSystemBuilder::new(4);
        b.push_set([0, 1], 2, 0).unwrap();
        b.push_set([1, 2, 3], 3, 0).unwrap();
        b.push_set([3], 1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_indexes_groups_and_covering() {
        let s = small();
        assert_eq!(s.n_elements(), 4);
        assert_eq!(s.n_sets(), 3);
        assert_eq!(s.n_groups(), 2);
        assert_eq!(s.group_sets(GroupId(0)), &[SetId(0), SetId(1)]);
        assert_eq!(s.group_sets(GroupId(1)), &[SetId(2)]);
        assert_eq!(s.covering_sets(ElementId(1)), &[SetId(0), SetId(1)]);
        assert_eq!(s.covering_sets(ElementId(3)), &[SetId(1), SetId(2)]);
        assert!(s.all_coverable());
    }

    #[test]
    fn members_sorted_and_deduped() {
        let mut b = SetSystemBuilder::<u64>::new(5);
        let id = b.push_set([3, 1, 3, 0], 1, 0).unwrap();
        let s = b.build().unwrap();
        assert_eq!(
            s.set(id).members(),
            &[ElementId(0), ElementId(1), ElementId(3)]
        );
        assert!(s.set(id).contains(ElementId(3)));
        assert!(!s.set(id).contains(ElementId(2)));
    }

    #[test]
    fn rejects_out_of_range_member() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        let err = b.push_set([0, 2], 1, 0).unwrap_err();
        assert!(matches!(err, BuildError::ElementOutOfRange { .. }));
    }

    #[test]
    fn rejects_zero_cost_and_empty_set() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        assert!(matches!(
            b.push_set([0], 0, 0).unwrap_err(),
            BuildError::NonPositiveCost { .. }
        ));
        assert!(matches!(
            b.push_set(std::iter::empty(), 1, 0).unwrap_err(),
            BuildError::EmptySet { .. }
        ));
    }

    #[test]
    fn uncoverable_elements_reported() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0], 1, 0).unwrap();
        let s = b.build().unwrap();
        assert!(!s.all_coverable());
        assert_eq!(s.uncoverable_elements(), vec![ElementId(1), ElementId(2)]);
    }

    #[test]
    fn prune_duplicates_keeps_cheapest_per_group() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0, 1], 5, 0).unwrap();
        b.push_set([0, 1], 3, 0).unwrap(); // cheaper duplicate, same group
        b.push_set([0, 1], 2, 1).unwrap(); // other group: kept separately
        b.push_set([0, 2], 5, 0).unwrap(); // different members: kept
        let dropped = b.prune_duplicates();
        assert_eq!(dropped, 1);
        let s = b.build().unwrap();
        assert_eq!(s.n_sets(), 3);
        let costs: Vec<u64> = s.sets().iter().map(|s| *s.cost()).collect();
        assert!(
            costs.contains(&3) && !costs.contains(&5)
                || costs.iter().filter(|&&c| c == 5).count() == 1
        );
        // group 0 retains the cost-3 copy of {0,1} and the {0,2} set.
        let g0: Vec<u64> = s
            .group_sets(GroupId(0))
            .iter()
            .map(|&id| *s.set(id).cost())
            .collect();
        assert_eq!(g0, vec![3, 5]);
    }

    #[test]
    fn equal_ratios_share_a_rank_across_cost_classes() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0], 2, 0).unwrap(); // ratio 1/2
        b.push_set([0, 1], 4, 0).unwrap(); // ratios 1/4, 2/4
        b.push_set([0, 1, 2], 3, 1).unwrap(); // ratios 1/3, 2/3, 3/3
        let s = b.build().unwrap();
        // 1 > 2/3 > 1/2 = 2/4 > 1/3 > 1/4.
        assert_eq!(s.ranks.n_ranks, 5);
        assert_eq!([s.rank(2, 3), s.rank(2, 2)], [0, 1]);
        assert_eq!([s.rank(0, 1), s.rank(1, 2)], [2, 2]);
        assert_eq!([s.rank(2, 1), s.rank(1, 1)], [3, 4]);
    }

    #[test]
    fn ranks_order_every_reachable_ratio_over_many_cost_classes() {
        // 40 distinct costs, each used twice, so most sets find a class
        // that an earlier set opened.
        let mut b = SetSystemBuilder::<u64>::new(4);
        for i in 0..80u64 {
            let size = 1 + (i % 4) as u32;
            b.push_set(0..size, 1 + (i * 7) % 40, 0).unwrap();
        }
        let s = b.build().unwrap();
        let pairs: Vec<(usize, u64)> = (0..s.n_sets())
            .flat_map(|i| (1..=s.sets()[i].members().len() as u64).map(move |g| (i, g)))
            .collect();
        for &(i, g) in &pairs {
            for &(j, h) in &pairs {
                let by_ratio = u64::cmp_effectiveness(h, s.sets()[j].cost(), g, s.sets()[i].cost());
                assert_eq!(
                    s.rank(i, g).cmp(&s.rank(j, h)),
                    by_ratio,
                    "{i}@{g} vs {j}@{h}"
                );
            }
        }
    }

    #[test]
    fn min_max_cost() {
        let s = small();
        assert_eq!(s.min_set_cost(), Some(&1));
        assert_eq!(s.max_set_cost(), Some(&3));
    }

    #[test]
    fn cover_lower_bound_is_the_dearest_cheapest_option() {
        // Cheapest options: e0 → 2, e1 → 2, e2 → 3, e3 → 1.
        assert_eq!(small().cover_lower_bound(), Some(&3));
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0], 4, 0).unwrap();
        // Element 1 is uncoverable and does not count.
        assert_eq!(b.build().unwrap().cover_lower_bound(), Some(&4));
        let empty = SetSystemBuilder::<u64>::new(0).build().unwrap();
        assert_eq!(empty.cover_lower_bound(), None);
    }
}
