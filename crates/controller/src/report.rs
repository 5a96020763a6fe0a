//! Disruption-metrics reporting for controller runs.

use serde::{Deserialize, Serialize};

use mcast_faults::RecoverySummary;

use crate::ladder::SolvePath;

/// What one epoch did, and what it cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: u64,
    /// Fault events ingested at the start of this epoch.
    pub events: u64,
    /// Join events admitted at the start of this epoch (always 0 for
    /// [`crate::run`], where every user is present from the start).
    #[serde(default)]
    pub joins: u64,
    /// The rung that ran.
    pub path: SolvePath,
    /// True if the work budget (or a solver failure) forced this epoch
    /// below its policy's preferred rung — including a repair sweep that
    /// finished on the SSA rung.
    pub degraded: bool,
    /// The coverage promise the auditor held this epoch against
    /// ([`crate::CoverageRule::name`]).
    pub rule: String,
    /// Work units spent ([`crate::WorkMeter`]).
    pub work: u64,
    /// Users whose AP at epoch end differs from their AP at epoch start
    /// (both being served — joins and losses are not handoffs).
    pub handoffs: u64,
    /// Users placed by the repair or SSA rung this epoch.
    pub rehomed: u64,
    /// Users newly shed this epoch (no allowed AP could admit them).
    pub shed: u64,
    /// Previously shed users admitted this epoch.
    pub readmitted: u64,
    /// Unserved users the work budget did not even let the controller
    /// examine (retried next epoch).
    pub deferred: u64,
    /// Users served at epoch end.
    pub satisfied: usize,
    /// True if any user's association changed during this epoch.
    pub changed: bool,
    /// Invariant violations the auditor found after this epoch.
    pub violations: u64,
}

/// The disruption-metrics report of one controller run.
///
/// Serialized (via the PR-3 atomic-write/journal machinery) as the
/// per-trial payload of `repro controller`, so runs replay byte-
/// identically from the journal on `--resume`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerReport {
    /// Objective name (`MNU`/`BLA`/`MLA`).
    pub objective: String,
    /// Ladder policy name ([`crate::LadderPolicy::name`]).
    pub policy: String,
    /// Epoch length in microseconds (the fault-timeline clock).
    pub epoch_us: u64,
    /// Epochs executed.
    pub n_epochs: u64,
    /// Per-epoch records, in order.
    pub epochs: Vec<EpochRecord>,
    /// Reconvergence times across disruption windows, **in epochs** —
    /// the same summary type the simulator reports in microseconds
    /// (`SimReport::reconvergence_summary` in the sim crate), so the
    /// two runtimes are directly comparable.
    pub reconvergence_epochs: RecoverySummary,
    /// Total handoffs across the run.
    pub handoffs: u64,
    /// Σ over disruption windows and epochs of how far coverage stayed
    /// below its pre-disruption baseline (user·epochs).
    pub coverage_loss_user_epochs: u64,
    /// The headline disruption score: handoffs + coverage-loss
    /// user·epochs. Lower is better at equal final coverage.
    pub disruption: u64,
    /// Total join events admitted across the run.
    #[serde(default)]
    pub joins: u64,
    /// Total shed events across the run.
    pub shed: u64,
    /// Total readmissions across the run.
    pub readmitted: u64,
    /// Total deferrals across the run.
    pub deferred: u64,
    /// Total invariant violations (must be 0).
    pub invariant_violations: u64,
    /// Up to the first 8 violation messages, for diagnosis.
    pub violations_sample: Vec<String>,
    /// Users served when the run ended.
    pub final_satisfied: usize,
    /// Maximum AP load when the run ended.
    pub final_max_load: f64,
    /// Total load when the run ended.
    pub final_total_load: f64,
    /// Total work units spent across all epochs.
    pub work: u64,
}

/// Everything [`assemble_report`] needs beyond what the epoch records
/// already carry.
#[derive(Debug)]
pub(crate) struct ReportParts {
    /// Objective name.
    pub objective: String,
    /// Ladder policy name.
    pub policy: String,
    /// Epoch length in µs.
    pub epoch_us: u64,
    /// Per-epoch records, in order.
    pub records: Vec<EpochRecord>,
    /// Up to 8 formatted violation messages.
    pub violations_sample: Vec<String>,
    /// Maximum AP load at run end.
    pub final_max_load: f64,
    /// Total load at run end.
    pub final_total_load: f64,
}

/// Derives the full [`ControllerReport`] from per-epoch records: the
/// disruption windows, reconvergence percentiles, coverage loss, and
/// run totals. Shared by the live runtimes and event-stream replay, so
/// a replayed report is byte-identical to the live one by construction
/// — both run this exact fold over the same records.
pub(crate) fn assemble_report(parts: ReportParts) -> ControllerReport {
    let records = parts.records;

    // Disruption windows: every epoch that ingested fault events opens
    // one, running until the next such epoch (or the end of the run).
    let disruptions: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.events > 0)
        .map(|(i, _)| i)
        .collect();
    let mut reconv: Vec<Option<f64>> = Vec::with_capacity(disruptions.len());
    let mut coverage_loss = 0u64;
    for (i, &d) in disruptions.iter().enumerate() {
        let end = disruptions.get(i + 1).copied().unwrap_or(records.len());
        // Reconvergence: the last epoch in the window whose association
        // still changed. A same-epoch repair that stays quiet afterwards
        // reconverges in 0 epochs; a window still churning in the run's
        // final epoch never settled.
        let last_change = (d..end).rfind(|&e| records[e].changed);
        reconv.push(match last_change {
            None => Some(0.0),
            Some(e) if e == records.len() - 1 && end == records.len() && e > d => None,
            Some(e) => Some((e - d) as f64),
        });
        // Coverage loss: user·epochs below the pre-disruption baseline.
        let baseline = if d == 0 { 0 } else { records[d - 1].satisfied } as i64;
        for r in &records[d..end] {
            coverage_loss += (baseline - r.satisfied as i64).max(0) as u64;
        }
    }

    let handoffs: u64 = records.iter().map(|r| r.handoffs).sum();
    ControllerReport {
        objective: parts.objective,
        policy: parts.policy,
        epoch_us: parts.epoch_us,
        n_epochs: records.len() as u64,
        reconvergence_epochs: RecoverySummary::from_options(&reconv),
        handoffs,
        coverage_loss_user_epochs: coverage_loss,
        disruption: handoffs + coverage_loss,
        joins: records.iter().map(|r| r.joins).sum(),
        shed: records.iter().map(|r| r.shed).sum(),
        readmitted: records.iter().map(|r| r.readmitted).sum(),
        deferred: records.iter().map(|r| r.deferred).sum(),
        invariant_violations: records.iter().map(|r| r.violations).sum(),
        violations_sample: parts.violations_sample,
        final_satisfied: records.last().map_or(0, |r| r.satisfied),
        final_max_load: parts.final_max_load,
        final_total_load: parts.final_total_load,
        work: records.iter().map(|r| r.work).sum(),
        epochs: records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serde_round_trip() {
        let report = ControllerReport {
            objective: "MNU".to_string(),
            policy: "repair".to_string(),
            epoch_us: 100_000,
            n_epochs: 2,
            epochs: vec![EpochRecord {
                epoch: 0,
                events: 0,
                joins: 4,
                path: SolvePath::Full,
                degraded: false,
                rule: "exact".to_string(),
                work: 120,
                handoffs: 0,
                rehomed: 3,
                shed: 1,
                readmitted: 0,
                deferred: 0,
                satisfied: 9,
                changed: true,
                violations: 0,
            }],
            reconvergence_epochs: RecoverySummary::of(&[1.0], 0),
            handoffs: 4,
            coverage_loss_user_epochs: 7,
            disruption: 11,
            joins: 4,
            shed: 1,
            readmitted: 1,
            deferred: 0,
            invariant_violations: 0,
            violations_sample: Vec::new(),
            final_satisfied: 9,
            final_max_load: 0.75,
            final_total_load: 2.5,
            work: 240,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: ControllerReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
