//! Live network state: which APs are up, which users are present, and
//! which candidate links currently exist.

use std::collections::HashSet;

use mcast_core::{ApId, Instance, UserId};

/// The network's health as fault events have left it: the one place a
/// [`FaultEventKind`](crate::FaultEventKind) takes effect, shared by the
/// simulator and the controller so a fault plan means the same thing to
/// both runtimes.
///
/// The link mask is stored sparsely (only *masked* links, normally a
/// tiny fraction): a dense `users × APs` bool matrix is 40 GB at the
/// scale-suite size (2 000 000 × 20 000), while the sparse set is
/// O(currently-masked) and empty on a fault-free run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetworkState {
    down: Vec<bool>,
    gone: Vec<bool>,
    /// The candidate links currently *masked* (out of range), as
    /// `(user index, AP index)`. Links never touched by a jump are ok
    /// by definition, so absence means ok — non-candidate pairs are
    /// never inserted.
    masked: HashSet<(u32, u32)>,
    downs: usize,
    gones: usize,
}

impl NetworkState {
    /// A pristine network: everything up, everyone present, all links ok.
    pub fn new(n_aps: usize, n_users: usize) -> NetworkState {
        NetworkState {
            down: vec![false; n_aps],
            gone: vec![false; n_users],
            masked: HashSet::new(),
            downs: 0,
            gones: 0,
        }
    }

    /// An empty service: every AP up, every link ok, but **no user
    /// present yet**. The event-driven service starts here and admits
    /// users as their join events arrive; once everyone has joined (and
    /// nothing else broke) the state is pristine, so epoch-0 batched
    /// admission takes the same full-solve fast path as the lock-step
    /// runtime.
    pub fn absent(n_aps: usize, n_users: usize) -> NetworkState {
        NetworkState {
            down: vec![false; n_aps],
            gone: vec![true; n_users],
            masked: HashSet::new(),
            downs: 0,
            gones: n_users,
        }
    }

    /// Marks user `u` present (a join). Idempotent; returns `true` on
    /// the transition. The inverse of [`NetworkState::depart`] — a user
    /// who left can rejoin with a fresh join event.
    pub fn join(&mut self, u: UserId) -> bool {
        if !self.gone[u.index()] {
            return false;
        }
        self.gone[u.index()] = false;
        self.gones -= 1;
        true
    }

    /// True if nothing has ever deviated from the pristine state — no AP
    /// down, no user departed, no candidate link lost. On a pristine
    /// network the effective instance *is* the original instance.
    pub fn pristine(&self) -> bool {
        self.downs == 0 && self.gones == 0 && self.masked.is_empty()
    }

    /// True if AP `a` is currently down.
    #[inline]
    pub fn is_down(&self, a: ApId) -> bool {
        self.down[a.index()]
    }

    /// Marks AP `a` down. Idempotent; returns `true` if this call
    /// transitioned it (callers evict the AP's users exactly once).
    pub fn set_down(&mut self, a: ApId) -> bool {
        if self.down[a.index()] {
            return false;
        }
        self.down[a.index()] = true;
        self.downs += 1;
        true
    }

    /// Marks AP `a` up again. Idempotent.
    pub fn set_up(&mut self, a: ApId) {
        if self.down[a.index()] {
            self.down[a.index()] = false;
            self.downs -= 1;
        }
    }

    /// True if user `u` has not departed.
    #[inline]
    pub fn is_present(&self, u: UserId) -> bool {
        !self.gone[u.index()]
    }

    /// Marks user `u` departed for good. Idempotent; returns `true` on
    /// the transition.
    pub fn depart(&mut self, u: UserId) -> bool {
        if self.gone[u.index()] {
            return false;
        }
        self.gone[u.index()] = true;
        self.gones += 1;
        true
    }

    /// True if the candidate link `u — a` currently exists.
    // Not `#[inline]`, nor is `allowed`: inlined into the controller's
    // rehome scan, the hash probe made its repair epochs slower.
    pub fn link_ok(&self, u: UserId, a: ApId) -> bool {
        !self.masked.contains(&(u.index() as u32, a.index() as u32))
    }

    /// True if `a` is a usable target for `u` right now: up and in range.
    /// (Candidacy itself — does the instance have the link at all — is
    /// the caller's concern.)
    pub fn allowed(&self, u: UserId, a: ApId) -> bool {
        !self.down[a.index()] && self.link_ok(u, a)
    }

    /// Applies a position jump: re-rolls every candidate link of `u`,
    /// in candidate order, from a ChaCha8 stream seeded with `seed`; each
    /// link survives with probability `keep`.
    pub fn roll_jump(&mut self, inst: &Instance, u: UserId, seed: u64, keep: f64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for &(a, _) in inst.candidate_aps(u) {
            let key = (u.index() as u32, a.index() as u32);
            if rng.gen::<f64>() < keep {
                self.masked.remove(&key);
            } else {
                self.masked.insert(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::examples_paper::{a, figure1_instance, u};
    use mcast_core::Kbps;

    #[test]
    fn pristine_until_something_breaks() {
        let mut s = NetworkState::new(3, 4);
        assert!(s.pristine());
        assert!(s.set_down(ApId(1)));
        assert!(!s.pristine());
        assert!(!s.set_down(ApId(1)), "second down is not a transition");
        s.set_up(ApId(1));
        assert!(s.pristine(), "recovery restores pristinity");

        assert!(s.depart(UserId(2)));
        assert!(!s.depart(UserId(2)));
        assert!(!s.pristine(), "departures mask until a rejoin");
        assert!(s.join(UserId(2)));
        assert!(!s.join(UserId(2)), "second join is not a transition");
        assert!(s.pristine(), "a rejoin restores pristinity");
    }

    #[test]
    fn absent_state_fills_up_as_users_join() {
        let mut s = NetworkState::absent(2, 3);
        assert!(!s.pristine());
        for u in 0..3 {
            assert!(!s.is_present(UserId(u)));
            assert!(s.join(UserId(u)));
        }
        assert!(s.pristine(), "everyone joined, nothing broken");
    }

    #[test]
    fn allowed_requires_up_and_in_range() {
        let mut s = NetworkState::new(2, 2);
        assert!(s.allowed(UserId(0), ApId(1)));
        s.set_down(ApId(1));
        assert!(!s.allowed(UserId(0), ApId(1)));
        assert!(s.allowed(UserId(0), ApId(0)));
    }

    #[test]
    fn roll_jump_is_deterministic_and_tracks_mask_count() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut s1 = NetworkState::new(inst.n_aps(), inst.n_users());
        let mut s2 = NetworkState::new(inst.n_aps(), inst.n_users());
        s1.roll_jump(&inst, u(5), 42, 0.5);
        s2.roll_jump(&inst, u(5), 42, 0.5);
        assert_eq!(s1, s2);
        // Re-rolling back to all-ok restores pristinity.
        s1.roll_jump(&inst, u(5), 7, 1.0);
        assert!(s1.pristine());
        // keep = 0 masks every candidate link of the user.
        s1.roll_jump(&inst, u(5), 7, 0.0);
        assert!(!s1.link_ok(u(5), a(1)));
        assert!(!s1.link_ok(u(5), a(2)));
        assert!(!s1.pristine());
    }

    #[test]
    fn jump_only_touches_candidate_links() {
        // u1 (id 0) is only a candidate of a1: a jump with keep = 0 must
        // leave its (non-candidate) a2 entry alone.
        let inst = figure1_instance(Kbps::from_mbps(1));
        let mut s = NetworkState::new(inst.n_aps(), inst.n_users());
        s.roll_jump(&inst, u(1), 3, 0.0);
        assert!(!s.link_ok(u(1), a(1)));
        assert!(s.link_ok(u(1), a(2)));
    }
}
