//! `repro gen` / `repro solve`: scenario files for reproducible one-off
//! runs (generate once, solve many ways, diff outputs) — plus the
//! command-line flag validation shared with `main`.

use std::path::Path;

/// A flag that does nothing for the command it was passed with,
/// rejected by name instead of silently ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlagError {
    /// The command the flag was passed to.
    pub command: String,
    /// The offending flag, as typed (`--plot`, `--resume`).
    pub flag: String,
    /// Why the combination is meaningless.
    pub reason: &'static str,
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid flags: {} does not support {} ({})",
            self.command, self.flag, self.reason
        )
    }
}

impl std::error::Error for FlagError {}

/// The repro CLI's error taxonomy, mapped one-to-one onto distinct
/// process exit codes so scripts and CI can tell *why* a run failed
/// without parsing messages:
///
/// | variant        | exit | meaning                                    |
/// |----------------|------|--------------------------------------------|
/// | `Usage`        | 2    | bad flags, commands, or algorithm names    |
/// | `Validation`   | 3    | a scenario/plan failed semantic validation |
/// | `IoDecode`     | 4    | an IO failure or a wire-decode failure     |
/// | `Divergence`   | 5    | a replay/oracle determinism proof failed   |
///
/// Exit 1 stays reserved for `compare`'s "regressions flagged" outcome,
/// and 0 for success, so every code is distinct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Bad usage: unknown command, flag, or algorithm name (exit 2).
    Usage(String),
    /// A scenario or plan failed semantic validation (exit 3).
    Validation(String),
    /// An IO failure or an untrusted-input decode failure (exit 4).
    IoDecode(String),
    /// A determinism proof failed: replay or oracle divergence (exit 5).
    Divergence(String),
}

impl CliError {
    /// The process exit code this error class maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Validation(_) => 3,
            CliError::IoDecode(_) => 4,
            CliError::Divergence(_) => 5,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Validation(m)
            | CliError::IoDecode(m)
            | CliError::Divergence(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

impl From<FlagError> for CliError {
    fn from(e: FlagError) -> CliError {
        CliError::Usage(e.to_string())
    }
}

impl From<mcast_events::DecodeError> for CliError {
    fn from(e: mcast_events::DecodeError) -> CliError {
        CliError::IoDecode(e.to_string())
    }
}

/// Commands that render figure series, where `--plot` adds ASCII plots.
const PLOTTING: &[&str] = &[
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "channels",
    "mobility",
    "revenue",
    "all",
];

/// Commands that sweep under the journaled orchestrator, where
/// `--resume` replays finished trials from `.runstate/`.
const RESUMABLE: &[&str] = &[
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "channels",
    "mobility",
    "faults",
    "controller",
    "chaos",
    "revenue",
    "all",
];

/// Commands that inject scripted faults, where `--chaos SEED` picks the
/// fault plan.
const CHAOTIC: &[&str] = &["chaos"];

/// Commands that write recovery snapshots, where `--checkpoint-every K`
/// sets the cadence.
const CHECKPOINTED: &[&str] = &["chaos", "serve"];

/// Commands that stream an event log through the resilient sink, where
/// `--io-chaos SEED` injects a scripted IO-fault plan.
const IO_CHAOS: &[&str] = &["serve"];

/// Commands that run work on the scoped-thread pool (sweeps via
/// `parallel_map`, plus `bench`'s partitioned scaling curve), where
/// `--threads N` sets the worker count.
const THREADED: &[&str] = &[
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ablations",
    "channels",
    "mobility",
    "faults",
    "controller",
    "revenue",
    "bench",
    "all",
];

/// Rejects a meaningless `--threads` value or placement: zero workers
/// (the pool cannot run anything), or a command with no parallel work.
///
/// # Errors
///
/// A [`FlagError`] naming the command, the flag, and the reason.
pub fn validate_threads(command: &str, threads: Option<usize>) -> Result<(), FlagError> {
    let Some(n) = threads else { return Ok(()) };
    if n == 0 {
        return Err(FlagError {
            command: command.to_string(),
            flag: "--threads".to_string(),
            reason: "worker count must be at least 1",
        });
    }
    if !THREADED.contains(&command) {
        return Err(FlagError {
            command: command.to_string(),
            flag: "--threads".to_string(),
            reason: "it runs no parallel work",
        });
    }
    Ok(())
}

/// Rejects flag combinations that would silently do nothing — `--plot`
/// with a command that renders no figure series (e.g. `serve`), or
/// `--resume` with a command that keeps no journal.
///
/// # Errors
///
/// A [`FlagError`] naming the command, the flag, and the reason.
pub fn validate_flags(command: &str, plot: bool, resume: bool) -> Result<(), FlagError> {
    if plot && !PLOTTING.contains(&command) {
        return Err(FlagError {
            command: command.to_string(),
            flag: "--plot".to_string(),
            reason: "it renders no figure series to plot",
        });
    }
    if resume && !RESUMABLE.contains(&command) {
        return Err(FlagError {
            command: command.to_string(),
            flag: "--resume".to_string(),
            reason: "it keeps no trial journal to resume from",
        });
    }
    Ok(())
}

/// Rejects `--suite NAME` on commands other than `bench` (the only
/// command with named suites) and unknown suite names.
///
/// # Errors
///
/// A [`FlagError`] naming the command, the flag, and the reason.
pub fn validate_suite(command: &str, suite: Option<&str>) -> Result<(), FlagError> {
    match suite {
        None => Ok(()),
        Some(_) if command != "bench" => Err(FlagError {
            command: command.to_string(),
            flag: "--suite".to_string(),
            reason: "only `bench` has named suites",
        }),
        Some("default") | Some("scale") => Ok(()),
        Some(_) => Err(FlagError {
            command: command.to_string(),
            flag: "--suite".to_string(),
            reason: "expected `default` or `scale`",
        }),
    }
}

/// Rejects the fault-tolerance flags on commands that cannot honor
/// them: `--chaos SEED` needs a supervised run to inject into, and
/// `--checkpoint-every K` needs a run that writes recovery snapshots.
///
/// # Errors
///
/// A [`FlagError`] naming the command, the flag, and the reason.
pub fn validate_recovery_flags(
    command: &str,
    chaos: bool,
    checkpoint_every: Option<usize>,
) -> Result<(), FlagError> {
    if chaos && !CHAOTIC.contains(&command) {
        return Err(FlagError {
            command: command.to_string(),
            flag: "--chaos".to_string(),
            reason: "it runs no supervised engine to inject faults into",
        });
    }
    if let Some(k) = checkpoint_every {
        if k == 0 {
            return Err(FlagError {
                command: command.to_string(),
                flag: "--checkpoint-every".to_string(),
                reason: "the snapshot cadence must be at least 1 round",
            });
        }
        if !CHECKPOINTED.contains(&command) {
            return Err(FlagError {
                command: command.to_string(),
                flag: "--checkpoint-every".to_string(),
                reason: "it writes no recovery snapshots",
            });
        }
    }
    Ok(())
}

/// Rejects `--io-chaos SEED` on commands without a resilient event sink
/// to inject into, and the `--io-chaos` + `--checkpoint-every`
/// combination: a faulted sink cannot promise the exact byte positions
/// checkpoints record, so the pairing would silently weaken both.
///
/// # Errors
///
/// A [`FlagError`] naming the command, the flag, and the reason.
pub fn validate_io_chaos(
    command: &str,
    io_chaos: Option<u64>,
    checkpoint_every: Option<usize>,
) -> Result<(), FlagError> {
    if io_chaos.is_none() {
        return Ok(());
    }
    if !IO_CHAOS.contains(&command) {
        return Err(FlagError {
            command: command.to_string(),
            flag: "--io-chaos".to_string(),
            reason: "it streams no event log to inject IO faults into",
        });
    }
    if checkpoint_every.is_some() {
        return Err(FlagError {
            command: command.to_string(),
            flag: "--io-chaos".to_string(),
            reason:
                "a faulted sink cannot back byte-positioned checkpoints; drop --checkpoint-every",
        });
    }
    Ok(())
}

use mcast_core::{
    run_distributed, solve_bla, solve_mla, solve_mla_with, solve_mnu, solve_ssa, Association,
    DistributedConfig, Load, MlaAlgorithm, Objective, Policy, Solution,
};
use mcast_exact::{optimal_bla, optimal_mla, optimal_mnu, SearchLimits};
use mcast_topology::{Scenario, ScenarioConfig};

/// Options for `repro gen`.
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// RNG seed.
    pub seed: u64,
    /// AP count.
    pub aps: usize,
    /// User count.
    pub users: usize,
    /// Session count.
    pub sessions: usize,
    /// Budget in permille (e.g. 900 = 0.9).
    pub budget_permille: u32,
    /// Emit the pre-v1 dense JSON wire (APs × users matrices) instead of
    /// the sparse default — downgrade interchange only; O(APs × users).
    pub legacy_dense: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            seed: 0,
            aps: 200,
            users: 400,
            sessions: 5,
            budget_permille: 900,
            legacy_dense: false,
        }
    }
}

/// Generates a scenario and writes it out. The extension picks the
/// format: `.mcb` gets the compact binary wire (streamed, never a JSON
/// value tree), anything else the sparse JSON wire — or the pre-v1 dense
/// JSON wire under `--legacy-dense`.
///
/// # Errors
///
/// I/O or serialization failures ([`CliError::IoDecode`]), a config the
/// generator rejects ([`CliError::Validation`]), or `--legacy-dense`
/// combined with a `.mcb` destination ([`CliError::Usage`] — the binary
/// wire has no dense variant).
pub fn generate_to_file(opts: &GenOptions, path: &Path) -> Result<(), CliError> {
    let is_mcb = path.extension().is_some_and(|e| e == "mcb");
    if opts.legacy_dense && is_mcb {
        return Err(CliError::Usage(
            "--legacy-dense writes the old dense JSON wire; it cannot target .mcb".into(),
        ));
    }
    let scenario = ScenarioConfig {
        n_aps: opts.aps,
        n_users: opts.users,
        n_sessions: opts.sessions,
        budget: Load::permille(opts.budget_permille),
        ..ScenarioConfig::paper_default()
    }
    .with_seed(opts.seed)
    .try_generate()
    .map_err(|e| CliError::Validation(format!("generation failed: {e}")))?;
    if is_mcb {
        mcast_topology::write_mcb(&scenario, path).map_err(CliError::IoDecode)?;
    } else {
        let json = if opts.legacy_dense {
            serde_json::to_string(&scenario.to_legacy_dense_value())
                .map_err(|e| CliError::IoDecode(e.to_string()))?
        } else {
            serde_json::to_string(&scenario).map_err(|e| CliError::IoDecode(e.to_string()))?
        };
        crate::journal::atomic_write(path, json.as_bytes())
            .map_err(|e| CliError::IoDecode(e.to_string()))?;
    }
    let stats = mcast_core::InstanceStats::of(&scenario.instance);
    println!(
        "wrote scenario: {} APs, {} users, {} sessions, budget {} (seed {}) -> {}",
        opts.aps,
        opts.users,
        opts.sessions,
        Load::permille(opts.budget_permille),
        opts.seed,
        path.display()
    );
    println!(
        "  {} links, mean user degree {:.2}, ~{:.1} MiB resident",
        stats.n_links,
        stats.mean_user_degree,
        stats.resident_bytes_est as f64 / (1024.0 * 1024.0)
    );
    Ok(())
}

/// Loads a scenario file and validates it (see [`validate_scenario`]) so
/// solvers never see corrupt geometry. `.mcb` files take the binary read
/// path; everything else parses as JSON (sparse or legacy dense wire).
///
/// # Errors
///
/// I/O or deserialization failures ([`CliError::IoDecode`], with byte
/// offsets on the binary path) or validation failures
/// ([`CliError::Validation`], naming the offending field).
pub fn load_scenario(path: &Path) -> Result<Scenario, CliError> {
    let scenario = if path.extension().is_some_and(|e| e == "mcb") {
        mcast_topology::read_mcb(path)?
    } else {
        let json = std::fs::read_to_string(path)
            .map_err(|e| CliError::IoDecode(format!("cannot read {}: {e}", path.display())))?;
        serde_json::from_str(&json)
            .map_err(|e| CliError::IoDecode(format!("bad scenario file: {e}")))?
    };
    validate_scenario(&scenario)
        .map_err(|e| CliError::Validation(format!("invalid scenario {}: {e}", path.display())))?;
    Ok(scenario)
}

// Structural validation of a deserialized `Scenario` lives next to the
// wire formats now (`mcast_topology::validate_scenario`) so the binary
// and JSON read paths funnel through the same helper; re-exported here
// because this is where every CLI call site and test historically found
// it.
pub use mcast_topology::validate_scenario;

/// Runs `algo` on a loaded scenario and prints a summary; optionally
/// writes the association JSON.
///
/// # Errors
///
/// Unknown algorithm names ([`CliError::Usage`]), solver failures
/// ([`CliError::Validation`]), or I/O failures ([`CliError::IoDecode`]).
pub fn solve_file(path: &Path, algo: &str, assoc_out: Option<&Path>) -> Result<(), CliError> {
    let scenario = load_scenario(path)?;
    let inst = &scenario.instance;
    let limits = SearchLimits::default();
    let solver = |e: &dyn std::fmt::Display| CliError::Validation(e.to_string());
    let (solution, note): (Solution, Option<String>) = match algo {
        "ssa" => (solve_ssa(inst, Objective::Mla), None),
        "mla" => (solve_mla(inst).map_err(|e| solver(&e))?, None),
        "mla-pd" => (
            solve_mla_with(inst, MlaAlgorithm::PrimalDual).map_err(|e| solver(&e))?,
            None,
        ),
        "bla" => (solve_bla(inst).map_err(|e| solver(&e))?, None),
        "mnu" => (solve_mnu(inst), None),
        "mla-d" | "mnu-d" => {
            let out = run_distributed(
                inst,
                &DistributedConfig::default(),
                Association::empty(inst.n_users()),
            );
            let objective = if algo == "mla-d" { Objective::Mla } else { Objective::Mnu };
            (
                Solution::evaluate(objective, out.association, inst, None),
                Some(format!("converged: {} in {} rounds", out.converged, out.rounds)),
            )
        }
        "bla-d" => {
            let out = run_distributed(
                inst,
                &DistributedConfig {
                    policy: Policy::MinMaxVector,
                    ..DistributedConfig::default()
                },
                Association::empty(inst.n_users()),
            );
            (
                Solution::evaluate(Objective::Bla, out.association, inst, None),
                Some(format!("converged: {} in {} rounds", out.converged, out.rounds)),
            )
        }
        "opt-mla" => {
            let out = optimal_mla(inst, limits).map_err(|e| solver(&e))?;
            (out.solution, Some(format!("certified optimal: {}", out.proved_optimal)))
        }
        "opt-bla" => {
            let out = optimal_bla(inst, limits).map_err(|e| solver(&e))?;
            (out.solution, Some(format!("certified optimal: {}", out.proved_optimal)))
        }
        "opt-mnu" => {
            let out = optimal_mnu(inst, limits);
            (out.solution, Some(format!("certified optimal: {}", out.proved_optimal)))
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown algorithm '{other}' (want ssa|mla|mla-pd|mla-d|bla|bla-d|mnu|mnu-d|opt-mla|opt-bla|opt-mnu)"
            )))
        }
    };

    println!("scenario   : {}", path.display());
    println!("algorithm  : {algo}");
    println!("satisfied  : {}/{}", solution.satisfied, inst.n_users());
    println!(
        "total load : {} = {:.4}",
        solution.total_load,
        solution.total_load.as_f64()
    );
    println!(
        "max load   : {} = {:.4}",
        solution.max_load,
        solution.max_load.as_f64()
    );
    if let Some(note) = note {
        println!("note       : {note}");
    }
    if let Some(out) = assoc_out {
        let json = serde_json::to_string(&solution.association)
            .map_err(|e| CliError::IoDecode(e.to_string()))?;
        crate::journal::atomic_write(out, json.as_bytes())
            .map_err(|e| CliError::IoDecode(e.to_string()))?;
        println!("association written to {}", out.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mcast_cli_{name}_{}", std::process::id()))
    }

    #[test]
    fn gen_and_solve_roundtrip() {
        let path = tmp("scenario.json");
        let opts = GenOptions {
            seed: 3,
            aps: 10,
            users: 25,
            sessions: 3,
            budget_permille: 900,
            legacy_dense: false,
        };
        generate_to_file(&opts, &path).unwrap();
        let scenario = load_scenario(&path).unwrap();
        assert_eq!(scenario.instance.n_aps(), 10);
        assert_eq!(scenario.instance.n_users(), 25);

        for algo in ["ssa", "mla", "mla-pd", "bla", "mnu", "mla-d", "bla-d"] {
            solve_file(&path, algo, None).unwrap();
        }
        let out = tmp("assoc.json");
        solve_file(&path, "mla", Some(&out)).unwrap();
        let assoc: Association =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(assoc.satisfied_count(), 25);
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(out);
    }

    #[test]
    fn gen_mcb_and_json_agree() {
        let opts = GenOptions {
            seed: 6,
            aps: 8,
            users: 20,
            sessions: 2,
            ..GenOptions::default()
        };
        let json_path = tmp("agree.json");
        let mcb_path = tmp("agree").with_extension("mcb");
        generate_to_file(&opts, &json_path).unwrap();
        generate_to_file(&opts, &mcb_path).unwrap();
        let from_json = load_scenario(&json_path).unwrap();
        let from_mcb = load_scenario(&mcb_path).unwrap();
        assert_eq!(
            serde_json::to_string(&from_json).unwrap(),
            serde_json::to_string(&from_mcb).unwrap()
        );
        // The binary wire is denser than the JSON wire.
        let json_len = std::fs::metadata(&json_path).unwrap().len();
        let mcb_len = std::fs::metadata(&mcb_path).unwrap().len();
        assert!(mcb_len < json_len, "mcb {mcb_len} vs json {json_len}");
        // Solvers run on the binary file too.
        solve_file(&mcb_path, "mla", None).unwrap();
        let _ = std::fs::remove_file(json_path);
        let _ = std::fs::remove_file(mcb_path);
    }

    #[test]
    fn legacy_dense_flag_writes_the_old_wire() {
        let opts = GenOptions {
            seed: 2,
            aps: 6,
            users: 12,
            sessions: 2,
            ..GenOptions::default()
        };
        let dense_path = tmp("dense.json");
        generate_to_file(
            &GenOptions {
                legacy_dense: true,
                ..opts.clone()
            },
            &dense_path,
        )
        .unwrap();
        let bytes = std::fs::read_to_string(&dense_path).unwrap();
        assert!(bytes.contains("\"link\":"), "dense wire carries matrices");
        assert!(
            !bytes.contains("mcast-instance/v1"),
            "dense wire has no format tag"
        );
        // The dense file loads through the fallback path and describes
        // the same scenario as the sparse default.
        let dense = load_scenario(&dense_path).unwrap();
        let sparse_path = tmp("sparse.json");
        generate_to_file(&opts, &sparse_path).unwrap();
        let sparse = load_scenario(&sparse_path).unwrap();
        assert_eq!(
            serde_json::to_string(&dense).unwrap(),
            serde_json::to_string(&sparse).unwrap()
        );
        let _ = std::fs::remove_file(dense_path);
        let _ = std::fs::remove_file(sparse_path);
    }

    #[test]
    fn legacy_dense_cannot_target_mcb() {
        let err = generate_to_file(
            &GenOptions {
                legacy_dense: true,
                ..GenOptions::default()
            },
            &tmp("bad").with_extension("mcb"),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--legacy-dense"), "{err}");
        assert_eq!(err.exit_code(), 2, "flag misuse is a usage error");
    }

    #[test]
    fn unknown_algorithm_is_a_usage_error() {
        let path = tmp("scenario2.json");
        generate_to_file(
            &GenOptions {
                aps: 3,
                users: 5,
                sessions: 1,
                ..GenOptions::default()
            },
            &path,
        )
        .unwrap();
        let err = solve_file(&path, "nonsense", None).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = load_scenario(Path::new("/nonexistent/file.json")).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
    }

    #[test]
    fn exit_codes_are_distinct_per_error_class() {
        let errors = [
            CliError::Usage("u".into()),
            CliError::Validation("v".into()),
            CliError::IoDecode("i".into()),
            CliError::Divergence("d".into()),
        ];
        let codes: Vec<i32> = errors.iter().map(CliError::exit_code).collect();
        assert_eq!(codes, vec![2, 3, 4, 5]);
        // 0 (success) and 1 (compare's flagged-regressions) stay free.
        assert!(!codes.contains(&0) && !codes.contains(&1));
    }

    #[test]
    fn error_classes_convert_from_their_sources() {
        let flag: CliError = FlagError {
            command: "serve".into(),
            flag: "--plot".into(),
            reason: "nope",
        }
        .into();
        assert_eq!(flag.exit_code(), 2);
        assert!(flag.to_string().contains("--plot"), "{flag}");

        let decode: CliError = mcast_events::DecodeError::new(
            mcast_events::DecodeErrorKind::Truncated,
            12,
            "section SESSIONS payload",
        )
        .into();
        assert_eq!(decode.exit_code(), 4);
        assert!(decode.to_string().contains("byte 12"), "{decode}");
    }

    #[test]
    fn io_chaos_is_rejected_by_command_and_combination() {
        for cmd in ["bench", "fig9", "chaos", "replay", "all"] {
            let err = validate_io_chaos(cmd, Some(7), None).unwrap_err();
            assert_eq!(err.flag, "--io-chaos");
            assert_eq!(err.command, cmd);
        }
        assert_eq!(validate_io_chaos("serve", Some(7), None), Ok(()));
        // Without the flag, anything goes.
        assert_eq!(validate_io_chaos("bench", None, Some(4)), Ok(()));
        // With it, checkpointing is an explicit conflict.
        let err = validate_io_chaos("serve", Some(7), Some(4)).unwrap_err();
        assert!(
            err.to_string().contains("--checkpoint-every"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn corrupt_mcb_loads_as_a_named_io_decode_error() {
        let path = tmp("corrupt").with_extension("mcb");
        generate_to_file(
            &GenOptions {
                aps: 4,
                users: 9,
                sessions: 2,
                ..GenOptions::default()
            },
            &path,
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = load_scenario(&path).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("byte"), "offset provenance: {err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn plot_is_rejected_for_commands_without_figures() {
        for cmd in [
            "serve",
            "replay",
            "faults",
            "controller",
            "bench",
            "validate",
            "table1",
        ] {
            let err = validate_flags(cmd, true, false).unwrap_err();
            assert_eq!(err.command, cmd);
            assert_eq!(err.flag, "--plot");
            assert!(err.to_string().contains("invalid flags"), "{err}");
        }
        for cmd in ["fig9", "fig12", "mobility", "revenue", "all"] {
            assert_eq!(validate_flags(cmd, true, false), Ok(()), "{cmd}");
        }
    }

    #[test]
    fn resume_is_rejected_for_journalless_commands() {
        for cmd in ["serve", "replay", "bench", "validate", "table1"] {
            let err = validate_flags(cmd, false, true).unwrap_err();
            assert_eq!(err.flag, "--resume");
        }
        // Sweeping commands journal their trials, so --resume is valid —
        // and chaos resumes from its recovery checkpoint.
        for cmd in ["faults", "controller", "fig10", "chaos", "all"] {
            assert_eq!(validate_flags(cmd, false, true), Ok(()), "{cmd}");
        }
    }

    #[test]
    fn chaos_flag_is_rejected_outside_the_chaos_command() {
        for cmd in ["serve", "bench", "fig9", "controller", "all"] {
            let err = validate_recovery_flags(cmd, true, None).unwrap_err();
            assert_eq!(err.flag, "--chaos");
            assert_eq!(err.command, cmd);
        }
        assert_eq!(validate_recovery_flags("chaos", true, None), Ok(()));
    }

    #[test]
    fn checkpoint_cadence_is_validated_by_command_and_value() {
        for cmd in ["bench", "fig9", "controller", "all"] {
            let err = validate_recovery_flags(cmd, false, Some(10)).unwrap_err();
            assert_eq!(err.flag, "--checkpoint-every");
            assert_eq!(err.command, cmd);
        }
        for cmd in ["chaos", "serve"] {
            assert_eq!(
                validate_recovery_flags(cmd, false, Some(10)),
                Ok(()),
                "{cmd}"
            );
        }
        let err = validate_recovery_flags("chaos", false, Some(0)).unwrap_err();
        assert!(err.to_string().contains("at least 1"), "{err}");
        assert_eq!(validate_recovery_flags("bench", false, None), Ok(()));
    }

    #[test]
    fn no_flags_is_always_valid() {
        for cmd in ["serve", "replay", "bench", "fig9", "table1", "unknown"] {
            assert_eq!(validate_flags(cmd, false, false), Ok(()), "{cmd}");
            assert_eq!(validate_threads(cmd, None), Ok(()), "{cmd}");
        }
    }

    #[test]
    fn zero_threads_is_rejected_by_name() {
        let err = validate_threads("bench", Some(0)).unwrap_err();
        assert_eq!(err.flag, "--threads");
        assert_eq!(err.command, "bench");
        assert!(
            err.to_string().contains("at least 1"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn threads_is_rejected_for_serial_commands() {
        for cmd in ["serve", "replay", "table1", "validate", "gen"] {
            let err = validate_threads(cmd, Some(4)).unwrap_err();
            assert_eq!(err.flag, "--threads");
            assert_eq!(err.command, cmd);
        }
        for cmd in ["bench", "fig9", "mobility", "all"] {
            assert_eq!(validate_threads(cmd, Some(4)), Ok(()), "{cmd}");
        }
    }

    fn small_scenario() -> mcast_topology::Scenario {
        ScenarioConfig {
            n_aps: 4,
            n_users: 8,
            n_sessions: 2,
            ..ScenarioConfig::paper_default()
        }
        .with_seed(1)
        .generate()
    }

    #[test]
    fn valid_scenario_passes_validation() {
        assert_eq!(validate_scenario(&small_scenario()), Ok(()));
    }

    #[test]
    fn nan_coordinate_is_rejected_with_a_named_entity() {
        let mut sc = small_scenario();
        sc.user_positions[3].x = f64::NAN;
        let err = validate_scenario(&sc).unwrap_err();
        assert!(err.contains("user 3"), "unexpected message: {err}");
        assert!(err.contains("non-finite"), "unexpected message: {err}");

        // And the same through the file path: JSON cannot carry NaN/inf
        // directly, but a hand-edited file can say `1e999`, which parses
        // to +inf. Patch the first AP's x coordinate to exactly that.
        sc.user_positions[3].x = 0.0;
        let json = serde_json::to_string(&sc).unwrap();
        let x0 = format!("{}", sc.ap_positions[0].x);
        assert!(json.contains(&x0), "wire format changed; update test");
        let patched = json.replacen(&x0, "1e999", 1);
        let path = tmp("nan.json");
        std::fs::write(&path, patched).unwrap();
        let err = load_scenario(&path).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("non-finite") || msg.contains("bad scenario file"),
            "unexpected message: {msg}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn mismatched_position_list_is_rejected() {
        let mut sc = small_scenario();
        sc.user_positions.pop();
        let err = validate_scenario(&sc).unwrap_err();
        assert!(err.contains("user_positions"), "unexpected message: {err}");

        let mut sc = small_scenario();
        sc.ap_positions.push(sc.ap_positions[0]);
        let err = validate_scenario(&sc).unwrap_err();
        assert!(err.contains("ap_positions"), "unexpected message: {err}");
    }

    /// Writes [`small_scenario`] as sparse JSON with `patch` applied to
    /// its `instance` object, loads the file back and returns the error.
    fn load_with_patched_instance(
        name: &str,
        patch: impl FnOnce(&mut Vec<(String, serde::Value)>),
    ) -> CliError {
        let json = serde_json::to_string(&small_scenario()).unwrap();
        let mut v = serde_json::parse_value(&json).unwrap();
        let serde::Value::Object(top) = &mut v else {
            panic!("wire format changed; update test")
        };
        let Some((_, serde::Value::Object(inst))) = top.iter_mut().find(|(k, _)| k == "instance")
        else {
            panic!("wire format changed; update test")
        };
        patch(inst);
        let path = tmp(name);
        std::fs::write(&path, serde_json::to_string(&v).unwrap()).unwrap();
        let err = load_scenario(&path).unwrap_err();
        let _ = std::fs::remove_file(path);
        err
    }

    /// The array field `key` of a sparse-wire instance object.
    fn array_field<'v>(
        inst: &'v mut [(String, serde::Value)],
        key: &str,
    ) -> &'v mut Vec<serde::Value> {
        match inst.iter_mut().find(|(k, _)| k == key) {
            Some((_, serde::Value::Array(items))) => items,
            _ => panic!("wire format changed; update test"),
        }
    }

    #[test]
    fn malformed_instance_file_is_rejected() {
        use serde::{Serialize, Value};
        // Each malformation breaks one rule the `Instance` constructor
        // enforces. It is caught while *resolving* the sparse wire
        // (inside deserialization), so it classifies as a decode error —
        // `validate_scenario` findings on a structurally sound scenario
        // are the ones that classify as validation (exit 3).
        type Patch = Box<dyn FnOnce(&mut Vec<(String, Value)>)>;
        let cases: Vec<(&str, Patch, &str)> = vec![
            (
                "bad_session.json",
                // Point the first user at a session that does not exist.
                Box::new(|inst| array_field(inst, "users")[0] = Value::Int(99)),
                "session s99",
            ),
            (
                "duplicate_ap.json",
                // Give the first user its first candidate AP twice.
                Box::new(|inst| {
                    let links = array_field(inst, "links");
                    links.insert(0, links[0].clone());
                    for off in array_field(inst, "user_off").iter_mut().skip(1) {
                        let Value::Int(o) = off else {
                            panic!("wire format changed")
                        };
                        *o += 1;
                    }
                }),
                "not strictly ascending",
            ),
            (
                "negative_budget.json",
                Box::new(|inst| {
                    array_field(inst, "budgets")[0] = Load::new(-1, 2).serialize_value();
                }),
                "negative budget",
            ),
            (
                "zero_session_rate.json",
                Box::new(|inst| {
                    array_field(inst, "sessions")[0] = mcast_core::SessionSpec {
                        rate: mcast_core::Kbps(0),
                    }
                    .serialize_value();
                }),
                "zero stream rate",
            ),
        ];
        for (name, patch, needle) in cases {
            let err = load_with_patched_instance(name, patch);
            assert_eq!(err.exit_code(), 4, "{name}: {err}");
            assert!(
                err.to_string().contains(needle),
                "{name}: unexpected message: {err}"
            );
        }
    }
}

/// One parsed CSV row: `(figure, series, x) → (mean, min, max)`.
type ResultKey = (String, String, String);
type ResultRow = (f64, f64, f64);

/// Reads every `*.csv` written by the harness in `dir` into a map.
///
/// # Errors
///
/// I/O failures; malformed rows are skipped with a warning on stderr.
pub fn read_results_dir(
    dir: &Path,
) -> Result<std::collections::BTreeMap<ResultKey, ResultRow>, String> {
    let mut map = std::collections::BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let content = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        for line in content.lines().skip(1) {
            let parts: Vec<&str> = line.split(',').collect();
            if parts.len() != 7 {
                eprintln!(
                    "warning: skipping malformed row in {}: {line}",
                    path.display()
                );
                continue;
            }
            let key = (
                parts[0].to_string(),
                parts[1].to_string(),
                parts[2].to_string(),
            );
            let parse = |s: &str| s.parse::<f64>().map_err(|e| e.to_string());
            map.insert(key, (parse(parts[3])?, parse(parts[4])?, parse(parts[5])?));
        }
    }
    Ok(map)
}

/// Compares two harness result directories and prints per-point relative
/// mean deltas, flagging those beyond `tolerance` (fraction, e.g. 0.05).
/// Returns the number of flagged regressions.
///
/// # Errors
///
/// I/O or parse failures.
pub fn compare_results(dir_a: &Path, dir_b: &Path, tolerance: f64) -> Result<usize, String> {
    let a = read_results_dir(dir_a)?;
    let b = read_results_dir(dir_b)?;
    let mut flagged = 0usize;
    let mut compared = 0usize;
    println!(
        "{:<26} {:<22} {:>8} | {:>10} {:>10} {:>8}",
        "figure", "series", "x", "A mean", "B mean", "delta"
    );
    for (key, (mean_a, _, _)) in &a {
        let Some((mean_b, _, _)) = b.get(key) else {
            println!("{:<26} {:<22} {:>8} | only in A", key.0, key.1, key.2);
            continue;
        };
        compared += 1;
        let denom = mean_a.abs().max(1e-12);
        let delta = (mean_b - mean_a) / denom;
        let marker = if delta.abs() > tolerance {
            flagged += 1;
            "  <-- exceeds tolerance"
        } else {
            ""
        };
        println!(
            "{:<26} {:<22} {:>8} | {:>10.4} {:>10.4} {:>+7.2}%{marker}",
            key.0,
            key.1,
            key.2,
            mean_a,
            mean_b,
            delta * 100.0
        );
    }
    for key in b.keys() {
        if !a.contains_key(key) {
            println!("{:<26} {:<22} {:>8} | only in B", key.0, key.1, key.2);
        }
    }
    println!(
        "\ncompared {compared} points; {flagged} beyond ±{:.1}%",
        tolerance * 100.0
    );
    Ok(flagged)
}

#[cfg(test)]
mod compare_tests {
    use super::*;
    use crate::report::write_csv;
    use crate::stats::{Figure, Series, Summary};

    fn dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mcast_cmp_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn fig(mean: f64) -> Figure {
        Figure {
            id: "figX".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series {
                label: "S".into(),
                points: vec![(1.0, Summary::of(&[mean]))],
            }],
        }
    }

    #[test]
    fn identical_dirs_flag_nothing() {
        let (a, b) = (dir("a1"), dir("b1"));
        write_csv(&fig(2.0), &a).unwrap();
        write_csv(&fig(2.0), &b).unwrap();
        assert_eq!(compare_results(&a, &b, 0.05).unwrap(), 0);
    }

    #[test]
    fn large_delta_is_flagged() {
        let (a, b) = (dir("a2"), dir("b2"));
        write_csv(&fig(2.0), &a).unwrap();
        write_csv(&fig(3.0), &b).unwrap();
        assert_eq!(compare_results(&a, &b, 0.05).unwrap(), 1);
        // A generous tolerance accepts it.
        assert_eq!(compare_results(&a, &b, 0.60).unwrap(), 0);
    }

    #[test]
    fn missing_dir_is_an_error() {
        assert!(read_results_dir(Path::new("/nonexistent")).is_err());
    }
}
