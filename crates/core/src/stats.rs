//! Instance statistics: the deployment-shape numbers papers report
//! alongside results (coverage degree, link-rate mix, session demand).

use crate::instance::Instance;
use crate::rate::Kbps;

/// Summary statistics of a WLAN instance.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceStats {
    /// Users per AP-coverage count: `degree_histogram[d]` = users hearing
    /// exactly `d` APs (index 0 = uncovered users).
    pub degree_histogram: Vec<usize>,
    /// Mean number of APs a user hears.
    pub mean_user_degree: f64,
    /// Total number of (AP, user) links.
    pub n_links: usize,
    /// Links per supported rate, ascending by rate.
    pub rate_histogram: Vec<(Kbps, usize)>,
    /// Users per session, indexable by `SessionId::index`.
    pub session_demand: Vec<usize>,
    /// Estimated resident size of the instance's arrays in bytes
    /// ([`Instance::resident_bytes_estimate`]): what holding this
    /// instance in memory actually costs, O(links) not O(APs × users).
    pub resident_bytes_est: usize,
}

impl InstanceStats {
    /// Computes the statistics of `inst`.
    pub fn of(inst: &Instance) -> InstanceStats {
        let mut degree_histogram = Vec::new();
        let mut n_links = 0usize;
        let mut degree_total = 0usize;
        for u in inst.users() {
            let d = inst.candidate_aps(u).len();
            if degree_histogram.len() <= d {
                degree_histogram.resize(d + 1, 0);
            }
            degree_histogram[d] += 1;
            n_links += d;
            degree_total += d;
        }
        if degree_histogram.is_empty() {
            degree_histogram.push(0);
        }

        let mut rate_histogram: Vec<(Kbps, usize)> =
            inst.supported_rates().iter().map(|&r| (r, 0)).collect();
        for a in inst.aps() {
            for &u in inst.reachable_users(a) {
                let rate = inst.link_rate(a, u).expect("reachable implies link");
                if let Some(slot) = rate_histogram.iter_mut().find(|(r, _)| *r == rate) {
                    slot.1 += 1;
                }
            }
        }

        let mut session_demand = vec![0usize; inst.n_sessions()];
        for u in inst.users() {
            session_demand[inst.user_session(u).index()] += 1;
        }

        InstanceStats {
            mean_user_degree: if inst.n_users() == 0 {
                0.0
            } else {
                degree_total as f64 / inst.n_users() as f64
            },
            degree_histogram,
            n_links,
            rate_histogram,
            session_demand,
            resident_bytes_est: inst.resident_bytes_estimate(),
        }
    }

    /// The busiest session's user count.
    pub fn peak_session_demand(&self) -> usize {
        self.session_demand.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples_paper::figure1_instance;
    use crate::instance::InstanceBuilder;
    use crate::load::Load;

    #[test]
    fn figure1_stats() {
        let inst = figure1_instance(Kbps::from_mbps(1));
        let stats = InstanceStats::of(&inst);
        // u1, u2 hear one AP; u3, u4, u5 hear two.
        assert_eq!(stats.degree_histogram, vec![0, 2, 3]);
        assert_eq!(stats.n_links, 8);
        assert!((stats.mean_user_degree - 1.6).abs() < 1e-12);
        // Sessions: s1 has 2 users, s2 has 3.
        assert_eq!(stats.session_demand, vec![2, 3]);
        assert_eq!(stats.peak_session_demand(), 3);
        // Rate mix: 3 Mbps ×2 (a1-u1, a2-u5), 4 ×3, 5 ×2, 6 ×1.
        let counts: Vec<usize> = stats.rate_histogram.iter().map(|&(_, c)| c).collect();
        assert_eq!(counts, vec![2, 3, 2, 1]);
        assert_eq!(stats.resident_bytes_est, inst.resident_bytes_estimate());
        assert!(stats.resident_bytes_est > 0);
    }

    #[test]
    fn empty_instance_stats() {
        let mut b = InstanceBuilder::new();
        b.add_session(Kbps::from_mbps(1));
        b.add_ap(Load::ONE);
        let inst = b.build().unwrap();
        let stats = InstanceStats::of(&inst);
        assert_eq!(stats.n_links, 0);
        assert_eq!(stats.mean_user_degree, 0.0);
        assert_eq!(stats.peak_session_demand(), 0);
    }

    #[test]
    fn uncovered_users_counted() {
        let mut b = InstanceBuilder::new();
        let s = b.add_session(Kbps::from_mbps(1));
        b.add_ap(Load::ONE);
        b.add_user(s);
        let inst = b.build().unwrap();
        let stats = InstanceStats::of(&inst);
        assert_eq!(stats.degree_histogram, vec![1]);
    }
}
