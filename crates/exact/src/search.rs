//! Search state, bound and dominance test shared by the branch-and-bound
//! solvers.

use mcast_covering::{ElementId, SetId, SetSystem};

/// Sub-units per cost unit in which [`fractional_shares`] are written.
pub(crate) const SUB_UNIT: u128 = 1 << 20;

/// The elements the current partial selection covers.
pub(crate) struct Covered {
    flags: Vec<bool>,
    count: usize,
}

impl Covered {
    pub(crate) fn new(n_elements: usize) -> Covered {
        Covered {
            flags: vec![false; n_elements],
            count: 0,
        }
    }

    pub(crate) fn contains(&self, e: ElementId) -> bool {
        self.flags[e.0 as usize]
    }

    /// How many elements are covered.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// The uncovered elements, ascending.
    pub(crate) fn uncovered(&self) -> impl Iterator<Item = ElementId> + '_ {
        (0..self.flags.len() as u32)
            .map(ElementId)
            .filter(|&e| !self.contains(e))
    }

    /// The members of `s` not covered yet.
    pub(crate) fn fresh<'a>(
        &'a self,
        sys: &'a SetSystem<u64>,
        s: SetId,
    ) -> impl Iterator<Item = ElementId> + 'a {
        sys.set(s)
            .members()
            .iter()
            .copied()
            .filter(|&m| !self.contains(m))
    }

    /// Covers the fresh members of `s` and returns them for
    /// [`Covered::untake`].
    pub(crate) fn take(&mut self, sys: &SetSystem<u64>, s: SetId) -> Vec<ElementId> {
        let fresh: Vec<ElementId> = self.fresh(sys, s).collect();
        for &m in &fresh {
            self.flags[m.0 as usize] = true;
        }
        self.count += fresh.len();
        fresh
    }

    /// Uncovers what [`Covered::take`] returned.
    pub(crate) fn untake(&mut self, taken: &[ElementId]) {
        for &m in taken {
            self.flags[m.0 as usize] = false;
        }
        self.count -= taken.len();
    }

    /// Whether every fresh member of `s1` is a member of `s2`.
    pub(crate) fn fresh_within(&self, sys: &SetSystem<u64>, s1: SetId, s2: SetId) -> bool {
        self.fresh(sys, s1).all(|m| sys.set(s2).contains(m))
    }
}

/// Drops every candidate `(set, fresh members)` that another candidate of
/// the same group dominates: no costlier, at least as many fresh members,
/// all of the first's among them, and strictly better or of lower id (so
/// exactly one of a run of equals survives).
pub(crate) fn retain_undominated_in_group(
    sys: &SetSystem<u64>,
    covered: &Covered,
    candidates: &mut Vec<(SetId, usize)>,
) {
    let snapshot = candidates.clone();
    candidates.retain(|&(s1, n1)| {
        let (c1, g1) = (sys.set(s1).cost(), sys.set(s1).group());
        !snapshot.iter().any(|&(s2, n2)| {
            let c2 = sys.set(s2).cost();
            if s2 == s1 || sys.set(s2).group() != g1 || c2 > c1 || n2 < n1 {
                return false;
            }
            let strictly = c2 < c1 || n2 > n1 || s2 < s1;
            strictly && covered.fresh_within(sys, s1, s2)
        })
    });
}

/// For each element, a lower bound on its share of any cover's cost: the
/// least `cost(S) / |S|` over the sets `S ∋ e`, in `1/SUB_UNIT` cost
/// units, rounded *down*.
///
/// Any cover pays at least the sum of the true shares over the uncovered
/// elements: covering `e` with `S` charges `e` at least `cost(S)/|S|`,
/// and a set's members charge it at most its cost in total. Summing the
/// rounded-down shares therefore never exceeds the cost of any remaining
/// cover. The shares are `u128`: a `u64` cost times `SUB_UNIT` fits.
pub(crate) fn fractional_shares(sys: &SetSystem<u64>) -> Vec<u128> {
    (0..sys.n_elements() as u32)
        .map(|e| {
            sys.covering_sets(ElementId(e))
                .iter()
                .map(|&s| {
                    let set = sys.set(s);
                    u128::from(*set.cost()) * SUB_UNIT / set.members().len() as u128
                })
                .min()
                .unwrap_or(0)
        })
        .collect()
}

/// A set system from `(members, cost, group)` triples.
#[cfg(test)]
pub(crate) fn system(n_elements: usize, sets: &[(&[u32], u64, u32)]) -> SetSystem<u64> {
    let mut b = mcast_covering::SetSystemBuilder::<u64>::new(n_elements);
    for &(members, cost, group) in sets {
        b.push_set(members.iter().copied(), cost, group).unwrap();
    }
    b.build().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractional_shares_are_admissible() {
        let sys = system(3, &[(&[0, 1], 2, 0), (&[1, 2], 3, 0), (&[2], 4, 1)]);
        let shares = fractional_shares(&sys);
        // e0: S0 only → 2/2 = 1; e1: min(2/2, 3/2) = 1; e2: min(3/2, 4/1)
        // = 3/2.
        assert_eq!(shares, vec![SUB_UNIT, SUB_UNIT, 3 * SUB_UNIT / 2]);
        // The bound for covering all is 3.5; the optimum {S0, S2} costs 6.
        let lb: u128 = shares.iter().sum();
        assert!(lb <= 6 * SUB_UNIT);
    }
}
