//! The [`SetSystem`] covering instance: ground set, weighted subsets, groups.
//!
//! Storage is flat CSR: one member arena with a `u32` offset per set, and
//! the element→set and group→set indexes as transposes of it, so a system
//! holds a handful of arrays however many sets it has.

use std::collections::BTreeMap;
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

/// One weighted subset of the ground set, borrowed from its [`SetSystem`].
#[derive(Debug)]
pub struct SetRef<'a, C> {
    members: &'a [ElementId],
    cost: &'a C,
    group: GroupId,
}

impl<C> Clone for SetRef<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for SetRef<'_, C> {}

impl<'a, C: Cost> SetRef<'a, C> {
    /// The elements of this set, sorted ascending and duplicate-free.
    pub fn members(&self) -> &'a [ElementId] {
        self.members
    }

    /// The cost of selecting this set. Strictly positive.
    pub fn cost(&self) -> &'a C {
        self.cost
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

/// Every set of a [`SetSystem`], in id order.
#[derive(Debug)]
pub struct Sets<'a, C> {
    system: &'a SetSystem<C>,
}

impl<C> Clone for Sets<'_, C> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<C> Copy for Sets<'_, C> {}

impl<'a, C: Cost> Sets<'a, C> {
    /// The number of sets.
    pub fn len(&self) -> usize {
        self.system.n_sets()
    }

    /// True if the system has no sets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sets in id order: the `i`-th is `SetId(i)`.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SetRef<'a, C>> + 'a {
        let system = self.system;
        (0..system.n_sets() as u32).map(move |i| system.set(SetId(i)))
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
    /// `set_off[i]..set_off[i + 1]` indexes set `i`'s members.
    set_off: Vec<u32>,
    members: Vec<ElementId>,
    costs: Vec<C>,
    groups: Vec<GroupId>,
    min_groups: usize,
}

impl<C: Cost> SetSystemBuilder<C> {
    /// Starts a builder for a ground set `{0, …, n_elements - 1}`.
    pub fn new(n_elements: usize) -> Self {
        SetSystemBuilder {
            n_elements,
            set_off: vec![0],
            members: Vec::new(),
            costs: Vec::new(),
            groups: Vec::new(),
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
    /// sorted and deduplicated. Members that already ascend strictly are
    /// appended as they come.
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
        let id = SetId(u32::try_from(self.costs.len()).expect("fewer than 2^32 sets"));
        let start = self.members.len();
        self.members.extend(members.into_iter().map(ElementId));
        if !self.members[start..].is_sorted_by(|a, b| a < b) {
            let mut tail = self.members.split_off(start);
            tail.sort_unstable();
            tail.dedup();
            self.members.append(&mut tail);
        }
        let added = &self.members[start..];
        let error = if added.is_empty() {
            Some(BuildError::EmptySet { set: id })
        } else if let Some(&bad) = added.iter().find(|e| e.0 as usize >= self.n_elements) {
            Some(BuildError::ElementOutOfRange {
                element: bad,
                n_elements: self.n_elements,
            })
        } else if cost <= C::zero() {
            Some(BuildError::NonPositiveCost { set: id })
        } else {
            None
        };
        if let Some(error) = error {
            self.members.truncate(start);
            return Err(error);
        }
        let end = u32::try_from(self.members.len()).expect("fewer than 2^32 set members");
        self.set_off.push(end);
        self.costs.push(cost);
        self.groups.push(GroupId(group));
        self.min_groups = self.min_groups.max(group as usize + 1);
        Ok(id)
    }

    /// Finalizes the system, building its group and element indexes and
    /// its effectiveness rank table.
    pub fn build(self) -> Result<SetSystem<C>, BuildError> {
        let rows = self
            .set_off
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize]);
        let covering = SetIndex::transpose(self.n_elements, rows, |e| e.0 as usize);
        let groups = SetIndex::transpose(self.min_groups, self.groups.chunks(1), |g| g.0 as usize);
        let ranks = RankTable::build(&self.costs, &self.set_off);
        Ok(SetSystem {
            n_elements: self.n_elements,
            set_off: self.set_off,
            members: self.members,
            costs: self.costs,
            groups: self.groups,
            group_index: groups,
            covering,
            ranks,
        })
    }
}

/// Set ids filed by a key (an element or a group), as CSR: key `k`'s sets
/// are `sets[off[k]..off[k + 1]]`, in ascending id order.
#[derive(Debug, Clone)]
struct SetIndex {
    off: Vec<u32>,
    sets: Vec<SetId>,
}

impl SetIndex {
    /// Files each set under the keys of its row, for keys `0..n_keys`: a
    /// counting pass, a prefix sum, then a fill in set order, so every
    /// key's sets come out ascending without sorting.
    fn transpose<'a, K: Copy + 'a>(
        n_keys: usize,
        rows: impl Iterator<Item = &'a [K]> + Clone,
        index: impl Fn(K) -> usize,
    ) -> SetIndex {
        let mut off = vec![0u32; n_keys + 1];
        for row in rows.clone() {
            for &k in row {
                off[index(k) + 1] += 1;
            }
        }
        for k in 0..n_keys {
            off[k + 1] += off[k];
        }
        let mut cursor = off[..n_keys].to_vec();
        let mut sets = vec![SetId(0); off[n_keys] as usize];
        for (s, row) in rows.enumerate() {
            for &k in row {
                let at = &mut cursor[index(k)];
                sets[*at as usize] = SetId(s as u32);
                *at += 1;
            }
        }
        SetIndex { off, sets }
    }

    fn row(&self, k: usize) -> &[SetId] {
        &self.sets[self.off[k] as usize..self.off[k + 1] as usize]
    }

    fn rows(&self) -> impl Iterator<Item = &[SetId]> {
        self.off
            .windows(2)
            .map(|w| &self.sets[w[0] as usize..w[1] as usize])
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
#[derive(Debug, Clone)]
struct RankTable {
    /// Where each set's cost class starts in `rank`.
    start: Vec<u32>,
    /// `rank[start[s] + g - 1]`: the rank of gain `g` at set `s`'s cost.
    rank: Vec<u32>,
    /// How many distinct ranks there are.
    n_ranks: u32,
}

impl RankTable {
    /// The table for sets of costs `costs` whose sizes are the steps of
    /// `set_off`.
    fn build<C: Cost>(costs: &[C], set_off: &[u32]) -> RankTable {
        // Classes are numbered in order of first appearance: only the
        // pairs' order matters.
        let mut class_of: BTreeMap<&C, usize> = BTreeMap::new();
        let mut classes: Vec<&C> = Vec::new();
        let mut largest: Vec<u32> = Vec::new();
        let mut class = Vec::with_capacity(costs.len());
        for (cost, w) in costs.iter().zip(set_off.windows(2)) {
            let k = *class_of.entry(cost).or_insert_with(|| {
                classes.push(cost);
                largest.push(0);
                classes.len() - 1
            });
            largest[k] = largest[k].max(w[1] - w[0]);
            class.push(k);
        }
        let mut offset = Vec::with_capacity(classes.len());
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (k, &max) in largest.iter().enumerate() {
            offset.push(u32::try_from(pairs.len()).expect("fewer than 2^32 (gain, cost) pairs"));
            pairs.extend((1..=max).map(|g| (g, k as u32)));
        }
        let ratio_desc = |&(g1, k1): &(u32, u32), &(g2, k2): &(u32, u32)| {
            C::cmp_effectiveness(
                u64::from(g2),
                classes[k2 as usize],
                u64::from(g1),
                classes[k1 as usize],
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
#[derive(Debug, Clone)]
pub struct SetSystem<C> {
    n_elements: usize,
    /// `set_off[i]..set_off[i + 1]` indexes set `i`'s members.
    set_off: Vec<u32>,
    members: Vec<ElementId>,
    costs: Vec<C>,
    /// Each set's group.
    groups: Vec<GroupId>,
    /// For each group, the ids of its sets.
    group_index: SetIndex,
    /// For each element, the ids of the sets containing it.
    covering: SetIndex,
    ranks: RankTable,
}

impl<C: Cost> SetSystem<C> {
    /// Size of the ground set.
    pub fn n_elements(&self) -> usize {
        self.n_elements
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.costs.len()
    }

    /// Number of groups (some may be empty).
    pub fn n_groups(&self) -> usize {
        self.group_index.off.len() - 1
    }

    /// The set with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&self, id: SetId) -> SetRef<'_, C> {
        let i = id.0 as usize;
        SetRef {
            members: &self.members[self.set_off[i] as usize..self.set_off[i + 1] as usize],
            cost: &self.costs[i],
            group: self.groups[i],
        }
    }

    /// All sets, in id order.
    pub fn sets(&self) -> Sets<'_, C> {
        Sets { system: self }
    }

    /// Every set's cost, indexable by `SetId.0`.
    pub fn costs(&self) -> &[C] {
        &self.costs
    }

    /// Every set's group, indexable by `SetId.0`.
    pub(crate) fn set_groups(&self) -> &[GroupId] {
        &self.groups
    }

    /// The ids of the sets in group `g`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_sets(&self, g: GroupId) -> &[SetId] {
        self.group_index.row(g.0 as usize)
    }

    /// The ids of the sets containing element `e`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn covering_sets(&self, e: ElementId) -> &[SetId] {
        self.covering.row(e.0 as usize)
    }

    /// True if every element belongs to at least one set.
    pub fn all_coverable(&self) -> bool {
        self.covering.rows().all(|c| !c.is_empty())
    }

    /// Elements not contained in any set.
    pub fn uncoverable_elements(&self) -> Vec<ElementId> {
        self.covering
            .rows()
            .enumerate()
            .filter(|(_, c)| c.is_empty())
            .map(|(i, _)| ElementId(i as u32))
            .collect()
    }

    /// Every set's size: its residual gain with nothing covered.
    pub(crate) fn set_sizes(&self) -> Vec<u64> {
        self.set_off
            .windows(2)
            .map(|w| u64::from(w[1] - w[0]))
            .collect()
    }

    /// The effectiveness rank of set `set` with residual gain `gain`
    /// (`1 ≤ gain ≤` the set's size); 0 is the most effective.
    pub(crate) fn rank(&self, set: usize, gain: u64) -> usize {
        let t = &self.ranks;
        t.rank[t.start[set] as usize + gain as usize - 1] as usize
    }

    /// The largest single-set cost, or `None` for an empty system.
    pub fn max_set_cost(&self) -> Option<&C> {
        self.costs.iter().max()
    }

    /// The largest, over coverable elements, of the element's cheapest
    /// covering set: every cover holds a set at least this costly, so no
    /// group budget below it admits a complete cover. `None` when no
    /// element is coverable.
    pub fn cover_lower_bound(&self) -> Option<&C> {
        self.covering
            .rows()
            .filter_map(|sets| sets.iter().map(|id| &self.costs[id.0 as usize]).min())
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

    fn ids(raw: &[u32]) -> Vec<SetId> {
        raw.iter().map(|&i| SetId(i)).collect()
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
        b.push_set([4, 2], 1, 0).unwrap();
        let id = b.push_set([3, 1, 3, 0], 1, 0).unwrap();
        b.push_set([2, 2], 1, 0).unwrap();
        let s = b.build().unwrap();
        assert_eq!(s.set(SetId(0)).members(), &[ElementId(2), ElementId(4)]);
        assert_eq!(
            s.set(id).members(),
            &[ElementId(0), ElementId(1), ElementId(3)]
        );
        assert_eq!(s.set(SetId(2)).members(), &[ElementId(2)]);
        assert!(s.set(id).contains(ElementId(3)));
        assert!(!s.set(id).contains(ElementId(2)));
        assert_eq!(s.covering_sets(ElementId(2)), ids(&[0, 2]));
        assert_eq!(s.set_sizes(), [2, 3, 1]);
    }

    #[test]
    fn sets_pushed_out_of_group_order_are_indexed_ascending() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0], 1, 2).unwrap();
        b.push_set([1], 2, 0).unwrap();
        b.push_set([2], 3, 2).unwrap();
        b.push_set([0, 1], 4, 0).unwrap();
        let s = b.build().unwrap();
        assert_eq!(s.n_groups(), 3);
        assert_eq!(s.group_sets(GroupId(0)), ids(&[1, 3]));
        assert!(s.group_sets(GroupId(1)).is_empty());
        assert_eq!(s.group_sets(GroupId(2)), ids(&[0, 2]));
        assert_eq!(
            s.set_groups(),
            [GroupId(2), GroupId(0), GroupId(2), GroupId(0)]
        );
        assert_eq!(s.costs(), [1, 2, 3, 4]);
        assert_eq!(s.set(SetId(3)).group(), GroupId(0));
    }

    #[test]
    fn ensure_groups_adds_trailing_empty_groups() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.ensure_groups(5);
        b.push_set([0, 1], 1, 1).unwrap();
        let s = b.build().unwrap();
        assert_eq!(s.n_groups(), 5);
        assert_eq!(s.group_sets(GroupId(1)), ids(&[0]));
        for g in [0, 2, 3, 4] {
            assert!(s.group_sets(GroupId(g)).is_empty(), "group {g}");
        }
    }

    #[test]
    fn zero_sets_build_an_empty_system() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.ensure_groups(2);
        let s = b.build().unwrap();
        assert_eq!((s.n_sets(), s.n_groups(), s.n_elements()), (0, 2, 3));
        assert!(s.sets().is_empty());
        assert_eq!(s.sets().iter().count(), 0);
        assert!(s.group_sets(GroupId(1)).is_empty());
        assert!(s.covering_sets(ElementId(2)).is_empty());
        assert_eq!(s.uncoverable_elements().len(), 3);
        assert_eq!(s.max_set_cost(), None);
        let none = SetSystemBuilder::<u64>::new(0).build().unwrap();
        assert_eq!((none.n_sets(), none.n_groups()), (0, 0));
        assert!(none.all_coverable());
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
    fn a_rejected_set_leaves_no_trace() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([1], 1, 0).unwrap();
        b.push_set([2, 0, 5], 1, 3).unwrap_err();
        b.push_set([0, 2], 0, 4).unwrap_err();
        assert_eq!(b.push_set([2, 0], 1, 0), Ok(SetId(1)));
        let s = b.build().unwrap();
        assert_eq!(s.n_sets(), 2);
        assert_eq!(s.n_groups(), 1);
        assert_eq!(s.set(SetId(1)).members(), &[ElementId(0), ElementId(2)]);
        assert_eq!(s.covering_sets(ElementId(0)), ids(&[1]));
    }

    #[test]
    fn uncoverable_elements_reported() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0], 1, 0).unwrap();
        let s = b.build().unwrap();
        assert!(!s.all_coverable());
        assert_eq!(s.uncoverable_elements(), vec![ElementId(1), ElementId(2)]);
        assert!(s.covering_sets(ElementId(2)).is_empty());
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
        let pairs: Vec<(usize, u64)> = s
            .sets()
            .iter()
            .enumerate()
            .flat_map(|(i, set)| (1..=set.members().len() as u64).map(move |g| (i, g)))
            .collect();
        let cost = |i: usize| &s.costs()[i];
        for &(i, g) in &pairs {
            for &(j, h) in &pairs {
                let by_ratio = u64::cmp_effectiveness(h, cost(j), g, cost(i));
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
