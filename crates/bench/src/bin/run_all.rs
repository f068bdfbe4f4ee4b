//! Regenerates every table and figure in sequence and writes a summary
//! to `results/`. See DESIGN.md §5 for the experiment index.
//!
//! This is a convenience wrapper: each artifact also has its own binary
//! (`table1`, `table4`, `table5_power`, `table6_counts`,
//! `fig6_latency_load`, `fig7_speedup`, `fig8_latency`,
//! `fig9_router_energy`, `fig10_edp`).
//!
//! Its arguments are passed on to every child unchanged: `--jobs <N>`
//! shards each child's simulation grid across N worker threads (artifacts
//! stay byte-identical to a serial run) and `--no-cache` forces grids to
//! resimulate instead of loading cached results. Every artifact runs even
//! if an earlier one fails; the exit status is nonzero if any failed.

use std::process::{Command, ExitCode};

const ARTIFACTS: [&str; 15] = [
    "table1",
    "table4",
    "table5_power",
    "table6_counts",
    "fig6_latency_load",
    "fig7_speedup",
    "fig8_latency",
    "fig9_router_energy",
    "fig10_edp",
    "macrochip_2015",
    "ablations",
    "sensitivity",
    "future_message_passing",
    "latency_breakdown",
    "fairness",
];

/// Runs the sibling binary `bin` with `args`; true if it exited 0.
fn run(bin: &str, args: &[String]) -> bool {
    println!("\n=== {bin} ===\n");
    let path = std::env::current_exe()
        .expect("self path")
        .parent()
        .expect("bin dir")
        .join(bin);
    match Command::new(path).args(args).status() {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("{bin} exited with {s}");
            false
        }
        Err(e) => {
            eprintln!(
                "could not run {bin}: {e} (try `cargo build --release -p macrochip-bench` first)"
            );
            false
        }
    }
}

/// Runs every artifact in order, whatever the earlier ones returned, and
/// names the ones that failed.
fn run_each<'a>(bins: &[&'a str], mut run: impl FnMut(&str) -> bool) -> Vec<&'a str> {
    bins.iter().copied().filter(|bin| !run(bin)).collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let failed = run_each(&ARTIFACTS, |bin| run(bin, &args));
    if !failed.is_empty() {
        eprintln!(
            "\n{} artifact(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\nAll artifacts regenerated under {}",
        macrochip_bench::results_dir().display()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_runs_and_failures_are_reported() {
        let mut ran = Vec::new();
        let failed = run_each(&["a", "b", "c", "d"], |bin| {
            ran.push(bin.to_string());
            bin != "b" && bin != "d"
        });
        assert_eq!(ran, ["a", "b", "c", "d"]);
        assert_eq!(failed, ["b", "d"]);
        assert!(run_each(&["a", "b"], |_| true).is_empty());
    }

    #[test]
    fn a_missing_binary_counts_as_a_failure() {
        assert!(!run("no-such-artifact-binary", &[]));
    }
}
