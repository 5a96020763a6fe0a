//! Channel assignment as bounded graph coloring.

use mcast_core::ApId;
use serde::{Deserialize, Serialize};

use crate::graph::InterferenceGraph;

/// A radio channel index (`0..n_channels`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Channel(pub u16);

/// How channels are picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColoringStrategy {
    /// Vertices in id order, smallest least-conflicting channel each.
    Greedy,
    /// DSATUR: highest color-saturation first (ties: higher degree, then
    /// lower id) — usually needs fewer channels on geometric graphs.
    #[default]
    Dsatur,
}

/// A complete channel assignment under a fixed budget.
///
/// When the budget is smaller than the graph needs, some interfering pairs
/// end up co-channel; the assignment minimizes those greedily and reports
/// them as [`conflicts`](ChannelAssignment::conflicts).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelAssignment {
    channels: Vec<Channel>,
    n_channels: u16,
    conflicts: Vec<(ApId, ApId)>,
}

impl ChannelAssignment {
    /// The channel of AP `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn channel(&self, a: ApId) -> Channel {
        self.channels[a.index()]
    }

    /// The per-AP channels, indexable by `ApId::index`.
    pub fn channels(&self) -> &[Channel] {
        &self.channels
    }

    /// The channel budget the assignment was made under.
    pub fn n_channels(&self) -> u16 {
        self.n_channels
    }

    /// Interfering AP pairs that had to share a channel (empty when the
    /// budget sufficed). Pairs are `(lower, higher)` by id, sorted.
    pub fn conflicts(&self) -> &[(ApId, ApId)] {
        &self.conflicts
    }
}

/// Colors the interference graph with at most `n_channels` channels.
///
/// Every AP always receives a channel: when all budget channels conflict,
/// the one with the fewest already-assigned interfering neighbors is
/// chosen (minimizing residual conflicts greedily).
///
/// # Panics
///
/// Panics if `n_channels == 0` and the graph has at least one AP.
pub fn assign_channels(
    graph: &InterferenceGraph,
    n_channels: u16,
    strategy: ColoringStrategy,
) -> ChannelAssignment {
    let n = graph.n_aps();
    if n > 0 {
        assert!(n_channels > 0, "at least one channel required");
    }
    let mut assigned: Vec<Option<Channel>> = vec![None; n];

    let order: Vec<ApId> = match strategy {
        ColoringStrategy::Greedy => (0..n as u32).map(ApId).collect(),
        ColoringStrategy::Dsatur => Vec::new(), // computed incrementally
    };

    let pick = |a: ApId, assigned: &[Option<Channel>]| -> Channel {
        // Count assigned interfering neighbors per channel.
        let mut conflict_count = vec![0u32; n_channels as usize];
        for &b in graph.neighbors(a) {
            if let Some(ch) = assigned[b.index()] {
                conflict_count[ch.0 as usize] += 1;
            }
        }
        let best = (0..n_channels)
            .min_by_key(|&c| (conflict_count[c as usize], c))
            .expect("n_channels > 0");
        Channel(best)
    };

    match strategy {
        ColoringStrategy::Greedy => {
            for a in order {
                assigned[a.index()] = Some(pick(a, &assigned));
            }
        }
        ColoringStrategy::Dsatur => {
            for _ in 0..n {
                // Saturation = distinct channels among assigned neighbors.
                let next = (0..n as u32)
                    .map(ApId)
                    .filter(|a| assigned[a.index()].is_none())
                    .max_by_key(|&a| {
                        let mut sat: Vec<Channel> = graph
                            .neighbors(a)
                            .iter()
                            .filter_map(|b| assigned[b.index()])
                            .collect();
                        sat.sort_unstable();
                        sat.dedup();
                        (sat.len(), graph.degree(a), std::cmp::Reverse(a))
                    })
                    .expect("unassigned vertex exists");
                assigned[next.index()] = Some(pick(next, &assigned));
            }
        }
    }

    let channels: Vec<Channel> = assigned
        .into_iter()
        .map(|c| c.expect("all assigned"))
        .collect();
    let mut conflicts = Vec::new();
    for a in 0..n as u32 {
        for &b in graph.neighbors(ApId(a)) {
            if b.0 > a && channels[a as usize] == channels[b.index()] {
                conflicts.push((ApId(a), b));
            }
        }
    }
    conflicts.sort_unstable();

    ChannelAssignment {
        channels,
        n_channels,
        conflicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of distinct channels the assignment actually uses.
    fn channels_used(asg: &ChannelAssignment) -> usize {
        let mut used = asg.channels().to_vec();
        used.sort_unstable();
        used.dedup();
        used.len()
    }

    /// A 5-cycle needs 3 colors; both strategies find a conflict-free
    /// assignment with 3 channels.
    #[test]
    fn cycle_needs_three_channels() {
        let g = InterferenceGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        for strategy in [ColoringStrategy::Greedy, ColoringStrategy::Dsatur] {
            let asg = assign_channels(&g, 3, strategy);
            assert!(asg.conflicts().is_empty(), "{strategy:?}");
            assert!(channels_used(&asg) <= 3);
        }
        // Two channels cannot color an odd cycle: at least one conflict.
        let asg2 = assign_channels(&g, 2, ColoringStrategy::Dsatur);
        assert!(!asg2.conflicts().is_empty());
    }

    #[test]
    fn one_channel_everything_conflicts() {
        let g = InterferenceGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let asg = assign_channels(&g, 1, ColoringStrategy::Greedy);
        assert_eq!(channels_used(&asg), 1);
        assert_eq!(asg.conflicts().len(), 3);
        assert_eq!(asg.n_channels(), 1);
    }

    #[test]
    fn triangle_with_three_channels_is_clean() {
        let g = InterferenceGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let asg = assign_channels(&g, 3, ColoringStrategy::Dsatur);
        assert!(asg.conflicts().is_empty());
        assert_eq!(channels_used(&asg), 3);
        // All three channels distinct.
        assert_ne!(asg.channel(ApId(0)), asg.channel(ApId(1)));
        assert_ne!(asg.channel(ApId(1)), asg.channel(ApId(2)));
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let g = InterferenceGraph::from_edges(0, &[]);
        let asg = assign_channels(&g, 3, ColoringStrategy::Dsatur);
        assert!(asg.channels().is_empty());

        let g2 = InterferenceGraph::from_edges(4, &[]);
        let asg2 = assign_channels(&g2, 1, ColoringStrategy::Greedy);
        assert!(asg2.conflicts().is_empty());
        assert_eq!(channels_used(&asg2), 1);
    }

    /// DSATUR never uses more channels than greedy needs on a star (hub
    /// colored against all leaves).
    #[test]
    fn star_uses_two_channels() {
        let g = InterferenceGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
        let asg = assign_channels(&g, 12, ColoringStrategy::Dsatur);
        assert!(asg.conflicts().is_empty());
        assert_eq!(channels_used(&asg), 2);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let g = InterferenceGraph::from_edges(1, &[]);
        assign_channels(&g, 0, ColoringStrategy::Greedy);
    }
}
