//! Greedy weighted set cover — the paper's `CostSC` (Fig. 8).

use std::fmt;

use crate::cost::Cost;
use crate::system::{ElementId, RankQueue, SetId, SetSystem};

/// The result of a covering run: which sets were chosen, in order, and which
/// elements each chosen set newly covered.
///
/// The *assignment* (element → the set that first covered it) matters to the
/// WLAN reduction: a user associates with the AP of the set that covered it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover<C> {
    chosen: Vec<SetId>,
    newly_covered: Vec<Vec<ElementId>>,
    assignment: Vec<Option<SetId>>,
    total_cost: C,
    n_elements: usize,
}

impl<C: Cost> Cover<C> {
    pub(crate) fn from_picks(n_elements: usize, picks: Vec<(SetId, Vec<ElementId>, C)>) -> Self {
        let mut assignment = vec![None; n_elements];
        let mut chosen = Vec::with_capacity(picks.len());
        let mut newly_covered = Vec::with_capacity(picks.len());
        let mut total = C::zero();
        for (id, news, cost) in picks {
            for e in &news {
                debug_assert!(assignment[e.0 as usize].is_none());
                assignment[e.0 as usize] = Some(id);
            }
            total = total.add(&cost);
            chosen.push(id);
            newly_covered.push(news);
        }
        Cover {
            chosen,
            newly_covered,
            assignment,
            total_cost: total,
            n_elements,
        }
    }

    /// Chosen sets in selection order.
    pub fn chosen(&self) -> &[SetId] {
        &self.chosen
    }

    /// For the `i`-th chosen set, the elements it newly covered.
    pub fn newly_covered(&self) -> &[Vec<ElementId>] {
        &self.newly_covered
    }

    /// For each element, the set that first covered it (if covered).
    pub fn assignment(&self) -> &[Option<SetId>] {
        &self.assignment
    }

    /// Sum of the chosen sets' costs.
    pub fn total_cost(&self) -> &C {
        &self.total_cost
    }

    /// Number of covered elements.
    pub fn covered_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }

    /// True if every element of the ground set is covered.
    pub fn covers_all(&self) -> bool {
        self.assignment.iter().all(|a| a.is_some())
    }

    /// Elements left uncovered.
    pub fn uncovered(&self) -> Vec<ElementId> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(i, _)| ElementId(i as u32))
            .collect()
    }
}

/// Errors from [`greedy_set_cover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoverError {
    /// Some elements belong to no set, so no cover exists.
    Uncoverable {
        /// The elements no set contains.
        elements: Vec<ElementId>,
    },
}

impl fmt::Display for CoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverError::Uncoverable { elements } => {
                write!(f, "{} element(s) belong to no set", elements.len())
            }
        }
    }
}

impl std::error::Error for CoverError {}

/// The classic cost-effectiveness greedy for weighted set cover
/// (`CostSC`, paper Fig. 8): repeatedly select the set maximizing
/// `|S ∩ X'| / c(S)` over the still-uncovered elements `X'`.
///
/// Groups are ignored — MLA only minimizes the *total* load.
/// Guarantee: `ln(n) + 1` times the optimal cost (Vazirani, ch. 2).
///
/// Ties are broken toward the lowest `SetId`, making the algorithm fully
/// deterministic.
///
/// # Errors
///
/// [`CoverError::Uncoverable`] if an element belongs to no set.
///
/// # Example
///
/// ```
/// use mcast_covering::{SetSystemBuilder, greedy_set_cover};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = SetSystemBuilder::<u64>::new(3);
/// b.push_set([0, 1, 2], 4u64, 0)?;
/// b.push_set([0], 1u64, 0)?;
/// b.push_set([1, 2], 2u64, 1)?;
/// let cover = greedy_set_cover(&b.build()?)?;
/// assert_eq!(cover.total_cost(), &3); // picks {1,2} then {0}
/// # Ok(())
/// # }
/// ```
pub fn greedy_set_cover<C: Cost>(system: &SetSystem<C>) -> Result<Cover<C>, CoverError> {
    if !system.all_coverable() {
        return Err(CoverError::Uncoverable {
            elements: system.uncoverable_elements(),
        });
    }

    let n = system.n_elements();
    let mut covered = vec![false; n];
    let mut n_uncovered = n;
    // Residual |S ∩ X'| per set, maintained incrementally.
    let mut residual = system.set_sizes();
    let mut picks = Vec::new();

    // Rank buckets: the most effective class is scanned and its lowest id
    // taken, matching the reference scan's "strictly greater replaces".
    let mut queue = RankQueue::default();
    queue.fill(system, &residual, |_| true);

    while n_uncovered > 0 {
        let id = queue
            .pick(system, &residual, |_| true, |s| s)
            .map(|s| SetId(s as u32))
            .expect("all elements coverable implies progress");
        let news: Vec<ElementId> = system
            .set(id)
            .members()
            .iter()
            .copied()
            .filter(|e| !covered[e.0 as usize])
            .collect();
        for &e in &news {
            covered[e.0 as usize] = true;
            n_uncovered -= 1;
            for &other in system.covering_sets(e) {
                residual[other.0 as usize] -= 1;
            }
        }
        let cost = system.set(id).cost().clone();
        picks.push((id, news, cost));
    }

    Ok(Cover::from_picks(n, picks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SetSystemBuilder;

    #[test]
    fn picks_most_cost_effective_first() {
        // Classic: a big cheap set beats many small ones.
        let mut b = SetSystemBuilder::<u64>::new(4);
        b.push_set([0], 1, 0).unwrap(); // eff 1
        b.push_set([1], 1, 0).unwrap();
        b.push_set([0, 1, 2, 3], 2, 0).unwrap(); // eff 2 — wins alone
        let cover = greedy_set_cover(&b.build().unwrap()).unwrap();
        assert_eq!(cover.chosen(), &[SetId(2)]);
        assert_eq!(cover.total_cost(), &2);
        assert!(cover.covers_all());
        assert_eq!(cover.covered_count(), 4);
    }

    #[test]
    fn assignment_records_first_coverer() {
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0, 1], 1, 0).unwrap(); // eff 2: picked first
        b.push_set([1, 2], 1, 0).unwrap(); // then covers only {2}
        let cover = greedy_set_cover(&b.build().unwrap()).unwrap();
        assert_eq!(cover.assignment()[0], Some(SetId(0)));
        assert_eq!(cover.assignment()[1], Some(SetId(0)));
        assert_eq!(cover.assignment()[2], Some(SetId(1)));
        assert_eq!(cover.newly_covered()[1], vec![ElementId(2)]);
    }

    #[test]
    fn uncoverable_is_an_error() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0], 1, 0).unwrap();
        let err = greedy_set_cover(&b.build().unwrap()).unwrap_err();
        assert_eq!(
            err,
            CoverError::Uncoverable {
                elements: vec![ElementId(1)]
            }
        );
    }

    #[test]
    fn ties_break_to_lowest_set_id() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0], 1, 0).unwrap();
        b.push_set([1], 1, 0).unwrap();
        b.push_set([0], 1, 1).unwrap(); // same as S0
        let cover = greedy_set_cover(&b.build().unwrap()).unwrap();
        assert_eq!(cover.chosen(), &[SetId(0), SetId(1)]);
    }

    #[test]
    fn empty_ground_set_is_trivially_covered() {
        let b = SetSystemBuilder::<u64>::new(0);
        let cover = greedy_set_cover(&b.build().unwrap()).unwrap();
        assert!(cover.covers_all());
        assert_eq!(cover.total_cost(), &0);
        assert!(cover.chosen().is_empty());
    }

    #[test]
    fn paper_figure7_mla_example() {
        // The MLA reduction of the Figure 1 WLAN with both sessions at
        // 1 Mbps (paper Fig. 7). Ground set u1..u5 = 0..4; s1 requested by
        // u1(0), u3(2); s2 by u2(1), u4(3), u5(4). Costs scaled ×60 to stay
        // integral: cost = 60 * (1 Mbps / rate).
        let mut b = SetSystemBuilder::<u64>::new(5);
        b.push_set([2], 60 / 4, 0).unwrap(); // S1: a1, s1 @4 -> {u3}, cost 15
        b.push_set([0, 2], 60 / 3, 0).unwrap(); // S2: a1, s1 @3 -> {u1,u3}, cost 20
        b.push_set([1], 60 / 6, 0).unwrap(); // S3: a1, s2 @6 -> {u2}, cost 10
        b.push_set([1, 3, 4], 60 / 4, 0).unwrap(); // S4: a1, s2 @4 -> {u2,u4,u5}, cost 15
        b.push_set([2], 60 / 5, 1).unwrap(); // S5: a2, s1 @5 -> {u3}, cost 12
        b.push_set([3], 60 / 5, 1).unwrap(); // S6: a2, s2 @5 -> {u4}, cost 12
        b.push_set([3, 4], 60 / 3, 1).unwrap(); // S7: a2, s2 @3 -> {u4,u5}, cost 20
        let cover = greedy_set_cover(&b.build().unwrap()).unwrap();
        // Paper: optimal (and greedy) H = {S2, S4}: all users on a1,
        // total load 1/3 + 1/4 = 7/12 -> 35 in ×60 units.
        let mut chosen = cover.chosen().to_vec();
        chosen.sort();
        assert_eq!(chosen, vec![SetId(1), SetId(3)]);
        assert_eq!(cover.total_cost(), &35);
    }
}
