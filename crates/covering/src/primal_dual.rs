//! The primal–dual ("layering") set-cover algorithm — the paper's §6.1
//! alternative: "the layer algorithm, which is bounded by a constant, can
//! also be used if for any user the number of APs that it can associate
//! with is bounded by a constant" (Vazirani, ch. 2 & 15).
//!
//! Guarantee: `f`-approximation, where `f` is the maximum *frequency* —
//! the number of sets any single element belongs to. In the WLAN
//! reduction `f` is (APs in range) × (usable rates), a constant in
//! bounded-density deployments, making this a constant-factor MLA solver
//! where the greedy only offers `ln(n) + 1`.

use crate::cost::Cost;
use crate::set_cover::{Cover, CoverError};
use crate::system::{ElementId, SetId, SetSystem};

/// Extra diagnostics of a primal–dual run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimalDualOutcome<C> {
    /// The (pruned) cover.
    pub cover: Cover<C>,
    /// The maximum element frequency `f` — the approximation factor.
    pub max_frequency: usize,
    /// The dual objective `Σ y_e` reached — a certified lower bound on
    /// the optimal cover cost (weak duality).
    pub dual_lower_bound: C,
}

/// Primal–dual weighted set cover.
///
/// Iterates over uncovered elements in id order, raising each one's dual
/// variable until some containing set goes *tight* (its cost is fully
/// paid); tight sets enter the cover. A final reverse-delete pass prunes
/// sets made redundant by later picks. The result is at most
/// `f × OPT`, and `Σ y_e` is returned as a certified lower bound on OPT.
///
/// The extra `Sub + Copy` bounds (beyond [`Cost`]) exist because this is
/// the one covering algorithm that *decreases* residual costs; every cost
/// type in this workspace (`u32`, `u64`, `Load`) satisfies them.
///
/// # Errors
///
/// [`CoverError::Uncoverable`] if some element belongs to no set.
pub fn primal_dual_set_cover<C>(system: &SetSystem<C>) -> Result<PrimalDualOutcome<C>, CoverError>
where
    C: Cost + std::ops::Sub<Output = C> + Copy,
{
    if !system.all_coverable() {
        return Err(CoverError::Uncoverable {
            elements: system.uncoverable_elements(),
        });
    }

    let n = system.n_elements();
    // Residual (unpaid) cost per set; a set is tight at zero.
    let mut residual: Vec<C> = system.costs().to_vec();
    let mut tight: Vec<bool> = vec![false; system.n_sets()];
    let mut covered = vec![false; n];
    let mut picked_order: Vec<SetId> = Vec::new();
    let mut dual_total = C::zero();

    for e in 0..n as u32 {
        if covered[e as usize] {
            continue;
        }
        // Raise y_e by the minimum residual among sets containing e.
        let delta = system
            .covering_sets(ElementId(e))
            .iter()
            .map(|&s| residual[s.0 as usize])
            .min()
            .expect("coverable element has sets");
        dual_total = dual_total.add(&delta);
        for &s in system.covering_sets(ElementId(e)) {
            let r = &mut residual[s.0 as usize];
            *r = *r - delta;
            if r.is_zero() && !tight[s.0 as usize] {
                tight[s.0 as usize] = true;
                picked_order.push(s);
                for &m in system.set(s).members() {
                    covered[m.0 as usize] = true;
                }
            }
        }
        debug_assert!(covered[e as usize], "raising to tightness covers e");
    }

    // Reverse delete: drop sets whose members are all covered by the
    // remaining picks (never breaks feasibility, only trims cost).
    let mut keep: Vec<bool> = vec![true; picked_order.len()];
    for i in (0..picked_order.len()).rev() {
        let s = picked_order[i];
        let redundant = system.set(s).members().iter().all(|e| {
            picked_order
                .iter()
                .zip(&keep)
                .any(|(&t, &k)| k && t != s && system.set(t).contains(*e))
        });
        if redundant {
            keep[i] = false;
        }
    }
    let kept: Vec<SetId> = picked_order
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(s, _)| s)
        .collect();

    // Build the Cover with first-coverer assignment over the kept order.
    let mut assigned = vec![false; n];
    let mut picks = Vec::with_capacity(kept.len());
    for s in kept {
        let news: Vec<ElementId> = system
            .set(s)
            .members()
            .iter()
            .copied()
            .filter(|e| !assigned[e.0 as usize])
            .collect();
        for e in &news {
            assigned[e.0 as usize] = true;
        }
        picks.push((s, news, *system.set(s).cost()));
    }
    let cover = Cover::from_picks(n, picks);
    debug_assert!(cover.covers_all());

    let max_frequency = (0..n as u32)
        .map(|e| system.covering_sets(ElementId(e)).len())
        .max()
        .unwrap_or(0);

    Ok(PrimalDualOutcome {
        cover,
        max_frequency,
        dual_lower_bound: dual_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_cover::greedy_set_cover;
    use crate::system::SetSystemBuilder;
    use crate::verify::{check_cover, total_cost};

    fn simple() -> SetSystem<u64> {
        let mut b = SetSystemBuilder::new(4);
        b.push_set([0, 1], 3, 0).unwrap();
        b.push_set([1, 2], 4, 0).unwrap();
        b.push_set([2, 3], 2, 1).unwrap();
        b.push_set([0], 1, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn produces_a_valid_cover() {
        let sys = simple();
        let out = primal_dual_set_cover(&sys).unwrap();
        assert!(out.cover.covers_all());
        assert!(check_cover(&sys, out.cover.chosen()));
        // f = max frequency: element 0,1,2 in 2 sets each -> f = 2.
        assert_eq!(out.max_frequency, 2);
    }

    #[test]
    fn dual_bound_certifies() {
        let sys = simple();
        let out = primal_dual_set_cover(&sys).unwrap();
        let cost = total_cost(&sys, out.cover.chosen());
        // Weak duality: dual <= OPT <= primal <= f * dual.
        assert!(out.dual_lower_bound <= cost);
        assert!(cost <= out.dual_lower_bound * out.max_frequency as u64);
        // And the greedy's cover is also >= the dual bound.
        let greedy = greedy_set_cover(&sys).unwrap();
        assert!(*greedy.total_cost() >= out.dual_lower_bound);
    }

    #[test]
    fn reverse_delete_prunes_redundant_sets() {
        // Element order makes the expensive superset tight late; the
        // reverse pass must remove early singletons it subsumes... or vice
        // versa: check no kept set is fully covered by the others.
        let mut b = SetSystemBuilder::<u64>::new(3);
        b.push_set([0], 1, 0).unwrap();
        b.push_set([1], 1, 0).unwrap();
        b.push_set([0, 1, 2], 1, 0).unwrap();
        let sys = b.build().unwrap();
        let out = primal_dual_set_cover(&sys).unwrap();
        let chosen = out.cover.chosen();
        for &s in chosen {
            let redundant = sys
                .set(s)
                .members()
                .iter()
                .all(|e| chosen.iter().any(|&t| t != s && sys.set(t).contains(*e)));
            assert!(!redundant, "kept a redundant set {s}");
        }
    }

    #[test]
    fn uncoverable_is_an_error() {
        let mut b = SetSystemBuilder::<u64>::new(2);
        b.push_set([0], 1, 0).unwrap();
        let sys = b.build().unwrap();
        assert!(matches!(
            primal_dual_set_cover(&sys).unwrap_err(),
            CoverError::Uncoverable { .. }
        ));
    }

    #[test]
    fn empty_ground_set() {
        let b = SetSystemBuilder::<u64>::new(0);
        let out = primal_dual_set_cover(&b.build().unwrap()).unwrap();
        assert!(out.cover.covers_all());
        assert_eq!(out.dual_lower_bound, 0);
    }

    #[test]
    fn within_f_times_optimal_on_small_instances() {
        // Brute-force check on the simple system: f=2, so primal <= 2 OPT.
        let sys = simple();
        let out = primal_dual_set_cover(&sys).unwrap();
        let mut opt = u64::MAX;
        for mask in 0u32..16 {
            let sets: Vec<SetId> = (0..4)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| SetId(i as u32))
                .collect();
            if check_cover(&sys, &sets) {
                opt = opt.min(total_cost(&sys, &sets));
            }
        }
        assert!(total_cost(&sys, out.cover.chosen()) <= 2 * opt);
    }
}
