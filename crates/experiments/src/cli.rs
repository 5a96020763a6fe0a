//! The `repro` front end. `COMMANDS` declares every command once: its
//! help line, the flags it accepts, whether it sweeps under the journaled
//! [`Runner`], whether `all` runs it, and its entry point. One parser
//! reads every command line against it. The tools `gen`, `solve` and
//! `compare` live here too: scenario files for reproducible one-off runs
//! (generate once, solve many ways) and a diff of two result directories.

use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use mcast_core::Load;
use mcast_exact::SearchLimits;
use mcast_topology::{validate_scenario, Scenario, ScenarioConfig};

use crate::algos::{self, Algo};
use crate::figures::{
    ablations, channels, controller, faults, fig10, fig11, fig12, fig9, mobility, revenue, table1,
    validate,
};
use crate::report::{render_table, write_csv};
use crate::runner::Runner;
use crate::stats::Figure;
use crate::Options;

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

/// The flags of every command without operands, each as the usage line
/// shows it, with the reason a command that does not list the flag rejects
/// it by; `None` means every such command takes it. A command line breaking
/// several rules is rejected for the first flag here that it breaks.
#[rustfmt::skip]
const HARNESS_FLAGS: &[(&str, Option<&str>)] = &[
    ("--seeds N", None),
    ("--out DIR", None),
    ("--max-nodes N", None),
    ("--quick", None),
    ("--deadline SECS", None),
    ("--plot", Some("it renders no figure series to plot")),
    ("--resume", Some("it keeps no trial journal to resume from")),
    ("--threads N", Some("it runs no parallel work")),
    ("--checkpoint-every K", Some("it writes no recovery snapshots")),
    ("--suite NAME", Some("only `bench` has named suites")),
    ("--io-chaos SEED", Some("it streams no event log to inject IO faults into")),
];

/// One `repro` command.
struct Command {
    name: &'static str,
    help: &'static str,
    /// Positional operands, as the usage line shows them. A command with
    /// operands (a tool) reads only its own `flags`; one without reads
    /// [`HARNESS_FLAGS`], the gated ones only when `flags` lists them.
    operands: &'static [&'static str],
    /// A tool's flags as its usage line shows them (`"[--tol FRACTION]"`),
    /// or, by name, the gated harness flags a command without operands takes.
    flags: &'static [&'static str],
    /// Sweeps trials under the [`Runner`] journaled in `<out>/.runstate/`,
    /// which is what `--resume` resumes from.
    sweeps: bool,
    /// `all` runs it, in table order.
    in_all: bool,
    entry: fn(&Invocation, &Runner) -> Result<ExitCode, CliError>,
}

impl Command {
    /// Whether this command takes the gated harness flag `flag`.
    fn takes(&self, flag: &str) -> bool {
        self.operands.is_empty()
            && (self.flags.contains(&flag) || (flag == "--resume" && self.sweeps))
    }
}

/// Every `repro` command, in the order the usage listing shows them.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    Command { name: "table1", help: "Table 1 (rate vs distance threshold) + staircase check",
        operands: &[], flags: &[], sweeps: false, in_all: true,
        entry: |_, _| print(table1::run()) },
    Command { name: "fig9", help: "Figure 9 a/b/c — total load (MLA-C, MLA-D, SSA)",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.figures(fig9::run(&inv.opts, runner)) },
    Command { name: "fig10", help: "Figure 10 a/b/c — max load (BLA-C, BLA-D, SSA)",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.figures(fig10::run(&inv.opts, runner)) },
    Command { name: "fig11", help: "Figure 11 — satisfied users vs budget (MNU-C, MNU-D, SSA)",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.figures(fig11::run(&inv.opts, runner)) },
    Command { name: "fig12", help: "Figure 12 a/b/c — greedy vs certified optimum",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.figures(fig12::run(&inv.opts, runner)) },
    Command { name: "ablations", help: "rate-policy / power / MNU-augment / model-vs-realized",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.figures(ablations::run(&inv.opts, runner)) },
    Command { name: "channels", help: "§8 interference modeling: channel budget sweep",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.figures(channels::run(&inv.opts, runner)) },
    Command { name: "mobility", help: "quasi-static user movement: churn & repaired-load drift",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.figures(mobility::run(&inv.opts, runner)) },
    Command { name: "faults", help: "fault injection: recovery after a coordinated AP outage",
        operands: &[], flags: &["--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.json("faults.json", faults::run(&inv.opts, runner)) },
    Command { name: "controller", help: "online controller: repair ladder vs full re-solve under faults",
        operands: &[], flags: &["--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.json("controller.json", controller::run(&inv.opts, runner)) },
    Command { name: "serve", help: "event-driven controller service; streams <out>/events.jsonl",
        operands: &[], flags: &["--checkpoint-every", "--io-chaos"], sweeps: false, in_all: false,
        entry: |inv, _| print(crate::serve::run_serve(&inv.opts)?) },
    Command { name: "replay", help: "fold <out>/events.jsonl back into a report (no solvers)",
        operands: &[], flags: &[], sweeps: false, in_all: false,
        entry: |inv, _| print(crate::serve::run_replay(&inv.opts)?) },
    Command { name: "revenue", help: "the §3.2 revenue models across algorithms",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: true,
        entry: |inv, runner| inv.figures(revenue::run(&inv.opts, runner)) },
    Command { name: "bench", help: "time fast paths vs reference, write BENCH_*.json (scale: 2M users)",
        operands: &[], flags: &["--threads", "--suite"], sweeps: false, in_all: false,
        entry: |inv, _| print(crate::bench::run(&inv.opts).map_err(CliError::IoDecode)?) },
    Command { name: "gen", help: "write a generated scenario (.mcb: binary wire, else JSON)",
        operands: &["<out.json|out.mcb>"],
        flags: &["[--seed N]", "[--aps N]", "[--users N]", "[--sessions N]", "[--budget PERMILLE]"],
        sweeps: false, in_all: false, entry: run_gen },
    Command { name: "solve", help: "run one algorithm on a scenario file",
        operands: &["<scenario.json>"], flags: &["--algo NAME", "[--assoc-out FILE]"],
        sweeps: false, in_all: false, entry: run_solve },
    Command { name: "compare", help: "diff two results/ CSV directories (regression check)",
        operands: &["<dirA>", "<dirB>"], flags: &["[--tol FRACTION]"],
        sweeps: false, in_all: false, entry: run_compare },
    Command { name: "validate", help: "simulator vs analytic cross-checks",
        operands: &[], flags: &[], sweeps: false, in_all: true,
        entry: |inv, _| print(validate::run(&inv.opts)) },
    Command { name: "all", help: "every command above that is not a tool, serve, replay or bench",
        operands: &[], flags: &["--plot", "--threads"], sweeps: true, in_all: false,
        entry: |inv, runner| {
            for command in COMMANDS.iter().filter(|c| c.in_all) {
                (command.entry)(inv, runner)?;
            }
            Ok(ExitCode::SUCCESS)
        } },
];

/// A command line, read against its command's grammar.
struct Invocation {
    command: &'static Command,
    /// The harness options (the defaults for a tool).
    opts: Options,
    operands: Vec<String>,
    /// Each flag given, in order, with its value (`""` for a switch).
    values: Vec<(&'static str, String)>,
}

/// The flag a usage fragment (`"[--tol FRACTION]"`) names.
fn flag_name(usage: &'static str) -> &'static str {
    usage
        .trim_matches(['[', ']'])
        .split(' ')
        .next()
        .unwrap_or(usage)
}

/// Reads a command line (without the program name) against [`COMMANDS`].
/// A token that is not a known flag is an operand while the command still
/// wants one, and an unknown flag otherwise.
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown command or flag, a missing operand
/// or flag value, a value that does not parse (or fit), and a
/// [`FlagError`] for a flag the command would ignore or cannot honour.
fn parse(args: &[String]) -> Result<Invocation, CliError> {
    let Some((name, rest)) = args.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command: {name}")))?;
    let flags: Vec<&'static str> = match command.operands {
        [] => HARNESS_FLAGS.iter().map(|(f, _)| *f).collect(),
        _ => command.flags.to_vec(),
    };
    let mut inv = Invocation {
        command,
        opts: Options::default(),
        operands: Vec::new(),
        values: Vec::new(),
    };
    let mut tokens = rest.iter();
    while let Some(token) = tokens.next() {
        match flags.iter().find(|f| flag_name(f) == token) {
            Some(usage) => {
                let flag = flag_name(usage);
                let value = if usage.contains(' ') {
                    let missing = || CliError::Usage(format!("{flag} requires a value"));
                    tokens.next().ok_or_else(missing)?.clone()
                } else {
                    String::new()
                };
                inv.values.push((flag, value));
            }
            None if token.starts_with("--") || inv.operands.len() == command.operands.len() => {
                return Err(CliError::Usage(format!("unknown flag: {token}")));
            }
            None => inv.operands.push(token.clone()),
        }
    }
    if inv.operands.len() < command.operands.len() {
        return Err(inv.usage());
    }
    if command.operands.is_empty() {
        inv.read_harness()?;
    }
    Ok(inv)
}

impl Invocation {
    /// Whether `flag` was given.
    fn given(&self, flag: &str) -> bool {
        self.values.iter().any(|(f, _)| *f == flag)
    }

    /// The last value given for `flag`. Every value given must parse into
    /// `T`, so a count wider than its type is rejected, not wrapped.
    fn value<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        let mut last = None;
        for (_, v) in self.values.iter().filter(|(f, _)| *f == flag) {
            let parsed = v
                .parse()
                .map_err(|e| CliError::Usage(format!("invalid value for {flag}: {v} ({e})")))?;
            last = Some(parsed);
        }
        Ok(last)
    }

    /// Reads [`HARNESS_FLAGS`] into [`Options`], then rejects by name each
    /// flag the command would silently ignore or cannot honour.
    fn read_harness(&mut self) -> Result<(), CliError> {
        let mut o = Options::default();
        o.seeds = self.value("--seeds")?.unwrap_or(o.seeds);
        o.out_dir = self.value("--out")?.unwrap_or(o.out_dir);
        o.max_nodes = self.value("--max-nodes")?.unwrap_or(o.max_nodes);
        o.quick = self.given("--quick");
        o.resume = self.given("--resume");
        o.deadline_s = self.value("--deadline")?.unwrap_or(o.deadline_s);
        o.threads = self.value("--threads")?.unwrap_or(o.threads);
        o.checkpoint_every = self.value("--checkpoint-every")?;
        o.bench_suite = self.value("--suite")?;
        o.io_chaos = self.value("--io-chaos")?;
        // The quick cap applies after every flag is read, so it wins
        // whatever the flag order (`--quick --seeds 100` gets 5).
        if o.quick {
            o.seeds = o.seeds.min(5);
        }
        for &(usage, reason) in HARNESS_FLAGS {
            let flag = flag_name(usage);
            if !self.given(flag) {
                continue;
            }
            let accepted = reason.is_none() || self.command.takes(flag);
            let rejected = match flag {
                "--threads" if o.threads == 0 => Some("worker count must be at least 1"),
                "--checkpoint-every" if o.checkpoint_every == Some(0) => {
                    Some("the snapshot cadence must be at least 1 epoch")
                }
                _ if !accepted => reason,
                "--suite" if !matches!(o.bench_suite.as_deref(), Some("default" | "scale")) => {
                    Some("expected `default` or `scale`")
                }
                "--io-chaos" if o.checkpoint_every.is_some() => Some(
                    "a faulted sink cannot back byte-positioned checkpoints; drop --checkpoint-every",
                ),
                _ => None,
            };
            if let Some(reason) = rejected {
                return Err(FlagError {
                    command: self.command.name.to_string(),
                    flag: flag.to_string(),
                    reason,
                }
                .into());
            }
        }
        self.opts = o;
        Ok(())
    }

    /// A tool's usage line, as a usage error.
    fn usage(&self) -> CliError {
        let c = self.command;
        let line = format!("{} {}", c.operands.join(" "), c.flags.join(" "));
        CliError::Usage(format!("usage: repro {} {line}", c.name))
    }

    /// Prints each figure's table (and `--plot`'s ASCII plot) and writes
    /// its CSV under `--out`.
    fn figures(&self, figs: Vec<Figure>) -> Result<ExitCode, CliError> {
        for fig in figs {
            print!("{}", render_table(&fig));
            if self.given("--plot") {
                println!("{}", crate::plot::render_ascii(&fig, 64, 16));
            }
            if let Err(e) = write_csv(&fig, &self.opts.out_dir) {
                eprintln!("warning: failed to write CSV for {}: {e}", fig.id);
            }
        }
        Ok(ExitCode::SUCCESS)
    }

    /// Writes a JSON document to `<out>/<name>` and prints it.
    fn json(&self, name: &str, json: String) -> Result<ExitCode, CliError> {
        write_result(&self.opts.out_dir.join(name), json.as_bytes());
        println!("{json}");
        Ok(ExitCode::SUCCESS)
    }
}

/// Prints a command's text result.
fn print(text: impl Display) -> Result<ExitCode, CliError> {
    print!("{text}");
    Ok(ExitCode::SUCCESS)
}

/// An unwritable result warns on stderr; the run's stdout still stands.
fn write_result(path: &Path, bytes: &[u8]) {
    if let Err(e) = mcast_events::journal::atomic_write(path, bytes) {
        eprintln!("warning: failed to write {}: {e}", path.display());
    }
}

/// The listing `repro` prints when run without a command.
fn usage() -> String {
    let mut s = String::from("usage: repro <command> [flags]\n\ncommands:");
    for c in COMMANDS {
        s.push_str(&format!("\n  {:<11} {}", c.name, c.help));
        if !c.operands.is_empty() {
            let grammar = format!("{} {}", c.operands.join(" "), c.flags.join(" "));
            s.push_str(&format!("\n{:14}{grammar}", ""));
        }
    }
    s.push_str("\n\nflags of the commands with no usage line above (gated ones name theirs):\n ");
    for &(usage, reason) in HARNESS_FLAGS {
        if reason.is_none() {
            s.push_str(&format!(" [{usage}]"));
        } else {
            let flag = flag_name(usage);
            let takers: Vec<&str> = COMMANDS
                .iter()
                .filter(|c| c.takes(flag))
                .map(|c| c.name)
                .collect();
            s.push_str(&format!("\n  {usage:<21} {}", takers.join(" ")));
        }
    }
    s
}

/// Runs `repro` on a command line (without the program name). A failure
/// is printed and mapped to its distinct exit code (usage 2, validation
/// 3, IO/decode 4, divergence 5) so scripts can branch on *why* the run
/// failed; exit 1 stays reserved for `compare`'s flagged regressions.
pub fn main(args: &[String]) -> ExitCode {
    match run(args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(e.exit_code() as u8)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let inv = parse(args)?;
    if inv.opts.threads > 0 {
        crate::par::set_workers(inv.opts.threads);
    }
    let runner = if inv.command.sweeps {
        let journal_path = inv.opts.out_dir.join(".runstate").join("journal.jsonl");
        let deadline = Duration::from_secs(inv.opts.deadline_s);
        Runner::with_journal(&journal_path, inv.opts.resume, deadline).unwrap_or_else(|e| {
            // An unusable journal degrades durability, not the run:
            // compute everything, just without checkpoint/resume.
            eprintln!(
                "warning: no journal at {} ({e}); running without checkpoints",
                journal_path.display()
            );
            Runner::ephemeral()
        })
    } else {
        Runner::ephemeral()
    };
    let code = (inv.command.entry)(&inv, &runner)?;
    if inv.command.sweeps {
        // The run accounting goes to stderr and, as runtime state that is
        // never part of the results diff, under `.runstate/`.
        let report = runner.report();
        eprint!("{}", report.render());
        match serde_json::to_string_pretty(&report) {
            Ok(json) => write_result(
                &inv.opts.out_dir.join(".runstate").join("report.json"),
                json.as_bytes(),
            ),
            Err(e) => eprintln!("warning: failed to serialize run report: {e}"),
        }
    }
    Ok(code)
}

fn run_gen(inv: &Invocation, _: &Runner) -> Result<ExitCode, CliError> {
    let d = GenOptions::default();
    // Counts parse as `u32`, the width of the instance's ids.
    let count = |flag| inv.value::<u32>(flag).map(|n| n.map(|n| n as usize));
    let opts = GenOptions {
        seed: inv.value("--seed")?.unwrap_or(d.seed),
        aps: count("--aps")?.unwrap_or(d.aps),
        users: count("--users")?.unwrap_or(d.users),
        sessions: count("--sessions")?.unwrap_or(d.sessions),
        budget_permille: inv.value("--budget")?.unwrap_or(d.budget_permille),
    };
    generate_to_file(&opts, Path::new(&inv.operands[0]))?;
    Ok(ExitCode::SUCCESS)
}

fn run_solve(inv: &Invocation, _: &Runner) -> Result<ExitCode, CliError> {
    let algo: String = inv.value("--algo")?.ok_or_else(|| inv.usage())?;
    let assoc_out: Option<PathBuf> = inv.value("--assoc-out")?;
    solve_file(Path::new(&inv.operands[0]), &algo, assoc_out.as_deref())?;
    Ok(ExitCode::SUCCESS)
}

fn run_compare(inv: &Invocation, _: &Runner) -> Result<ExitCode, CliError> {
    let tol = inv.value("--tol")?.unwrap_or(0.05);
    let [a, b] = [&inv.operands[0], &inv.operands[1]].map(Path::new);
    let flagged = compare_results(a, b, tol).map_err(CliError::IoDecode)?;
    // Exit 1 means "compared fine, regressions flagged": deliberately
    // distinct from every CliError code.
    Ok(match flagged {
        0 => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    })
}

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
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            seed: 0,
            aps: 200,
            users: 400,
            sessions: 5,
            budget_permille: 900,
        }
    }
}

/// Generates a scenario and writes it out. The extension picks the
/// format: `.mcb` gets the compact binary wire (streamed, never a JSON
/// value tree), anything else the sparse JSON wire.
///
/// # Errors
///
/// I/O or serialization failures ([`CliError::IoDecode`]) or a config
/// the generator rejects ([`CliError::Validation`]).
pub fn generate_to_file(opts: &GenOptions, path: &Path) -> Result<(), CliError> {
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
    if path.extension().is_some_and(|e| e == "mcb") {
        mcast_topology::write_mcb(&scenario, path).map_err(CliError::IoDecode)?;
    } else {
        let json =
            serde_json::to_string(&scenario).map_err(|e| CliError::IoDecode(e.to_string()))?;
        mcast_events::journal::atomic_write(path, json.as_bytes())
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

/// Runs the algorithm `repro solve --algo` names on a scenario file and
/// prints a summary; optionally writes the association JSON.
///
/// # Errors
///
/// Unknown algorithm names ([`CliError::Usage`]), solver failures
/// ([`CliError::Validation`]), or I/O failures ([`CliError::IoDecode`]).
pub fn solve_file(path: &Path, algo: &str, assoc_out: Option<&Path>) -> Result<(), CliError> {
    let algo = Algo::from_name(algo).ok_or_else(|| {
        let names: Vec<&str> = Algo::ALL.iter().map(|a| a.name()).collect();
        CliError::Usage(format!(
            "unknown algorithm '{algo}' (want {})",
            names.join("|")
        ))
    })?;
    let scenario = load_scenario(path)?;
    let inst = &scenario.instance;
    let (solution, note) =
        algos::solve(algo, inst, SearchLimits::default()).map_err(CliError::Validation)?;
    println!("scenario   : {}", path.display());
    println!("algorithm  : {}", algo.name());
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
        mcast_events::journal::atomic_write(out, json.as_bytes())
            .map_err(|e| CliError::IoDecode(e.to_string()))?;
        println!("association written to {}", out.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_core::Association;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mcast_cli_{name}_{}", std::process::id()))
    }

    /// Parses a space-separated command line.
    fn parse_line(line: &str) -> Result<Invocation, CliError> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    fn accept(line: &str) -> Invocation {
        parse_line(line).unwrap_or_else(|e| panic!("`{line}` was rejected: {e}"))
    }

    /// The usage error `line` is rejected with.
    fn reject(line: &str) -> String {
        match parse_line(line) {
            Ok(_) => panic!("`{line}` was accepted"),
            Err(e) => {
                assert_eq!(e.exit_code(), 2, "`{line}`: {e}");
                e.to_string()
            }
        }
    }

    /// The error a tool's entry point fails with before it does anything.
    fn entry_error(line: &str) -> CliError {
        let inv = accept(line);
        (inv.command.entry)(&inv, &Runner::ephemeral()).unwrap_err()
    }

    /// Every command against every harness flag. Which gated flags each
    /// command takes is written out here, not read from [`COMMANDS`], and
    /// each rejection is checked to the letter: CI greps these texts.
    #[test]
    fn every_command_and_harness_flag_pair() {
        let takes: &[(&str, Option<&str>)] = &[
            ("table1", Some("")),
            ("fig9", Some("--plot --resume --threads")),
            ("fig10", Some("--plot --resume --threads")),
            ("fig11", Some("--plot --resume --threads")),
            ("fig12", Some("--plot --resume --threads")),
            ("ablations", Some("--plot --resume --threads")),
            ("channels", Some("--plot --resume --threads")),
            ("mobility", Some("--plot --resume --threads")),
            ("faults", Some("--resume --threads")),
            ("controller", Some("--resume --threads")),
            ("serve", Some("--checkpoint-every --io-chaos")),
            ("replay", Some("")),
            ("revenue", Some("--plot --resume --threads")),
            ("bench", Some("--threads --suite")),
            // The tools have a grammar of their own.
            ("gen", None),
            ("solve", None),
            ("compare", None),
            ("validate", Some("")),
            ("all", Some("--plot --resume --threads")),
        ];
        let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(names, takes.iter().map(|(c, _)| *c).collect::<Vec<_>>());
        let reason = |flag: &str| match flag {
            "--plot" => Some("it renders no figure series to plot"),
            "--resume" => Some("it keeps no trial journal to resume from"),
            "--threads" => Some("it runs no parallel work"),
            "--checkpoint-every" => Some("it writes no recovery snapshots"),
            "--suite" => Some("only `bench` has named suites"),
            "--io-chaos" => Some("it streams no event log to inject IO faults into"),
            _ => None,
        };
        let value = |flag: &str| match flag {
            "--seeds" | "--threads" => " 2",
            "--out" => " out",
            "--max-nodes" | "--checkpoint-every" | "--deadline" => " 4",
            "--suite" => " scale",
            "--io-chaos" => " 7",
            _ => "",
        };
        for &(command, gated) in takes {
            for &(usage, _) in HARNESS_FLAGS {
                let flag = flag_name(usage);
                let line = format!("{command} {flag}{}", value(flag));
                match (gated, reason(flag)) {
                    (None, _) => assert_eq!(reject(&line), format!("unknown flag: {flag}")),
                    (Some(g), Some(why)) if !g.split(' ').any(|f| f == flag) => assert_eq!(
                        reject(&line),
                        format!("invalid flags: {command} does not support {flag} ({why})")
                    ),
                    _ => {
                        accept(&line);
                    }
                }
            }
        }
        for (line, want) in [
            (
                "bench --threads 0",
                "invalid flags: bench does not support --threads (worker count must be at least 1)",
            ),
            (
                "serve --checkpoint-every 0",
                "invalid flags: serve does not support --checkpoint-every (the snapshot cadence must be at least 1 epoch)",
            ),
            (
                "bench --suite nope",
                "invalid flags: bench does not support --suite (expected `default` or `scale`)",
            ),
            (
                "serve --io-chaos 7 --checkpoint-every 4",
                "invalid flags: serve does not support --io-chaos (a faulted sink cannot back byte-positioned checkpoints; drop --checkpoint-every)",
            ),
            ("fig9 --quick --retries 3", "unknown flag: --retries"),
            ("fig9 --quick --chaos 7", "unknown flag: --chaos"),
            ("fig9 results", "unknown flag: results"),
            ("chaos --quick", "unknown command: chaos"),
        ] {
            assert_eq!(reject(line), want);
        }
        accept("bench --suite default");
    }

    #[test]
    fn harness_flags_reach_the_options() {
        let inv =
            accept("fig9 --seeds 7 --out o --max-nodes 9 --resume --deadline 3 --threads 2 --plot");
        let o = &inv.opts;
        assert_eq!(
            (o.seeds, o.max_nodes, o.deadline_s, o.threads),
            (7, 9, 3, 2)
        );
        assert_eq!(o.out_dir, PathBuf::from("o"));
        assert!(o.resume && inv.given("--plot") && !o.quick);
        // The quick cap wins whatever the flag order; the last value wins.
        assert_eq!(accept("fig9 --seeds 100 --quick").opts.seeds, 5);
        assert_eq!(accept("fig9 --quick --seeds 100").opts.seeds, 5);
        assert_eq!(accept("fig9 --seeds 3 --seeds 4").opts.seeds, 4);
        let o = accept("serve --checkpoint-every 4").opts;
        assert_eq!((o.checkpoint_every, o.io_chaos), (Some(4), None));
        let o = accept("bench --suite scale").opts;
        assert_eq!(o.bench_suite.as_deref(), Some("scale"));
    }

    #[test]
    fn unknown_flags_are_not_taken_as_operands() {
        assert_eq!(reject("gen --bogus"), "unknown flag: --bogus");
        assert_eq!(reject("solve --bogus --algo mla"), "unknown flag: --bogus");
        assert_eq!(reject("compare a --bogus"), "unknown flag: --bogus");
        assert_eq!(reject("gen a.json b.json"), "unknown flag: b.json");
        // A tool without its operands prints its usage line.
        assert!(reject("gen").starts_with("usage: repro gen <out.json|out.mcb>"));
        assert!(reject("compare a").starts_with("usage: repro compare <dirA> <dirB>"));
        let err = entry_error("solve s.json");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().starts_with("usage: repro solve"), "{err}");
        // No command at all prints the whole listing.
        assert!(reject("").starts_with("usage: repro <command>"));
    }

    #[test]
    fn missing_or_bad_flag_values_are_usage_errors() {
        assert_eq!(reject("compare a b --tol"), "--tol requires a value");
        assert_eq!(
            reject("solve s.json --algo mla --assoc-out"),
            "--assoc-out requires a value"
        );
        assert_eq!(reject("fig9 --seeds"), "--seeds requires a value");
        assert!(reject("fig9 --seeds abc").starts_with("invalid value for --seeds: abc"));
        let err = entry_error("compare a b --tol abc");
        assert_eq!(err.exit_code(), 2);
        assert!(
            err.to_string().starts_with("invalid value for --tol: abc"),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_gen_values_are_rejected_by_name() {
        for (flag, v) in [
            ("--budget", "4294968196"),
            ("--aps", "4294967296"),
            ("--users", "-1"),
            ("--sessions", "99999999999"),
            ("--seed", "18446744073709551616"),
        ] {
            let out = tmp("out_of_range.json");
            let err = entry_error(&format!("gen {} {flag} {v}", out.display()));
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(
                err.to_string()
                    .starts_with(&format!("invalid value for {flag}: {v} (")),
                "{err}"
            );
            assert!(!out.exists(), "{flag} {v} wrote a scenario");
        }
    }

    /// `main.rs`'s module docs show the listing `repro` prints.
    #[test]
    fn main_docs_show_the_usage_listing() {
        let docs: Vec<&str> = include_str!("main.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("//!"))
            .map(|l| l.strip_prefix(' ').unwrap_or(l))
            .skip_while(|l| *l != "```text")
            .skip(1)
            .take_while(|l| *l != "```")
            .collect();
        assert_eq!(docs.join("\n"), usage());
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
        };
        generate_to_file(&opts, &path).unwrap();
        let scenario = load_scenario(&path).unwrap();
        assert_eq!(scenario.instance.n_aps(), 10);
        assert_eq!(scenario.instance.n_users(), 25);

        let names = [
            "ssa", "mla", "mla-pd", "mla-d", "bla", "bla-d", "mnu", "mnu-d", "opt-mla", "opt-bla",
            "opt-mnu",
        ];
        assert_eq!(names, Algo::ALL.map(Algo::name));
        for algo in names {
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
        for cmd in ["bench", "fig9", "replay", "all"] {
            let err = reject(&format!("{cmd} --io-chaos 7"));
            assert!(err.starts_with(&format!("invalid flags: {cmd} does not support --io-chaos")));
        }
        accept("serve --io-chaos 7");
        // Without the flag, checkpointing is fine; with it, an explicit conflict.
        accept("serve --checkpoint-every 4");
        let err = reject("serve --io-chaos 7 --checkpoint-every 4");
        assert!(
            err.contains("drop --checkpoint-every"),
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
            let err = reject(&format!("{cmd} --plot"));
            assert!(err.starts_with(&format!("invalid flags: {cmd} does not support --plot")));
        }
        for cmd in ["fig9", "fig12", "mobility", "revenue", "all"] {
            assert!(accept(&format!("{cmd} --plot")).given("--plot"), "{cmd}");
        }
    }

    #[test]
    fn resume_is_rejected_for_journalless_commands() {
        for cmd in ["serve", "replay", "bench", "validate", "table1"] {
            assert!(
                reject(&format!("{cmd} --resume")).contains("--resume"),
                "{cmd}"
            );
        }
        // Sweeping commands journal their trials, so --resume is valid.
        for cmd in ["faults", "controller", "fig10", "all"] {
            assert!(accept(&format!("{cmd} --resume")).opts.resume, "{cmd}");
        }
    }

    #[test]
    fn checkpoint_cadence_is_validated_by_command_and_value() {
        for cmd in ["bench", "fig9", "controller", "replay", "all"] {
            let err = reject(&format!("{cmd} --checkpoint-every 10"));
            assert!(err.starts_with(&format!(
                "invalid flags: {cmd} does not support --checkpoint-every"
            )));
        }
        assert_eq!(
            accept("serve --checkpoint-every 10").opts.checkpoint_every,
            Some(10)
        );
        let err = reject("serve --checkpoint-every 0");
        assert!(err.contains("at least 1 epoch"), "{err}");
    }

    #[test]
    fn no_flags_is_always_valid() {
        for cmd in ["serve", "replay", "bench", "fig9", "table1"] {
            let inv = accept(cmd);
            assert!(inv.values.is_empty() && !inv.opts.resume, "{cmd}");
        }
        assert_eq!(reject("unknown"), "unknown command: unknown");
    }

    #[test]
    fn zero_threads_is_rejected_by_name() {
        // The value is checked before the command: no command runs zero workers.
        for cmd in ["bench", "table1"] {
            let err = reject(&format!("{cmd} --threads 0"));
            assert!(err.starts_with(&format!("invalid flags: {cmd} does not support --threads")));
            assert!(err.contains("at least 1"), "unexpected message: {err}");
        }
    }

    #[test]
    fn threads_is_rejected_for_serial_commands() {
        for cmd in ["serve", "replay", "table1", "validate"] {
            let err = reject(&format!("{cmd} --threads 4"));
            assert!(err.starts_with(&format!("invalid flags: {cmd} does not support --threads")));
        }
        assert_eq!(reject("gen s.json --threads 4"), "unknown flag: --threads");
        for cmd in ["bench", "fig9", "mobility", "all"] {
            assert_eq!(
                accept(&format!("{cmd} --threads 4")).opts.threads,
                4,
                "{cmd}"
            );
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
