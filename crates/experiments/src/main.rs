//! `repro` — regenerate the paper's tables and figures.
//!
//! Run without a command, it prints this listing, which its command table
//! (`mcast_experiments::cli`) renders:
//!
//! ```text
//! usage: repro <command> [flags]
//!
//! commands:
//!   table1      Table 1 (rate vs distance threshold) + staircase check
//!   fig9        Figure 9 a/b/c — total load (MLA-C, MLA-D, SSA)
//!   fig10       Figure 10 a/b/c — max load (BLA-C, BLA-D, SSA)
//!   fig11       Figure 11 — satisfied users vs budget (MNU-C, MNU-D, SSA)
//!   fig12       Figure 12 a/b/c — greedy vs certified optimum
//!   ablations   rate-policy / power / MNU-augment / model-vs-realized
//!   channels    §8 interference modeling: channel budget sweep
//!   mobility    quasi-static user movement: churn & repaired-load drift
//!   faults      fault injection: recovery after a coordinated AP outage
//!   controller  online controller: repair ladder vs full re-solve under faults
//!   serve       event-driven controller service; streams <out>/events.jsonl
//!   replay      fold <out>/events.jsonl back into a report (no solvers)
//!   revenue     the §3.2 revenue models across algorithms
//!   bench       time fast paths vs reference, write BENCH_*.json (scale: 2M users)
//!   gen         write a generated scenario (.mcb: binary wire, else JSON)
//!               <out.json|out.mcb> [--seed N] [--aps N] [--users N] [--sessions N] [--budget PERMILLE]
//!   solve       run one algorithm on a scenario file
//!               <scenario.json> --algo NAME [--assoc-out FILE]
//!   compare     diff two results/ CSV directories (regression check)
//!               <dirA> <dirB> [--tol FRACTION]
//!   validate    simulator vs analytic cross-checks
//!   all         every command above that is not a tool, serve, replay or bench
//!
//! flags of the commands with no usage line above (gated ones name theirs):
//!   [--seeds N] [--out DIR] [--max-nodes N] [--quick] [--deadline SECS]
//!   --plot                fig9 fig10 fig11 fig12 ablations channels mobility revenue all
//!   --resume              fig9 fig10 fig11 fig12 ablations channels mobility faults controller revenue all
//!   --threads N           fig9 fig10 fig11 fig12 ablations channels mobility faults controller revenue bench all
//!   --checkpoint-every K  serve
//!   --suite NAME          bench
//!   --io-chaos SEED       serve
//! ```

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mcast_experiments::cli::main(&args)
}
