//! Shared support for the table/figure regeneration binaries.
//!
//! Every binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md §5). The coherent-run grid behind Figures 7,
//! 8, 9 and 10 is expensive, so it runs through the campaign engine: its
//! points are sharded across `--jobs` workers and stored in the shared
//! content-addressed result cache, so the four figure binaries simulate
//! the grid once between them.

use macrochip::prelude::*;
use std::fs;
use std::path::PathBuf;

/// Where regenerated tables and CSV series are written. Override with
/// `MACROCHIP_RESULTS`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MACROCHIP_RESULTS").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    fs::create_dir_all(&path).expect("cannot create results directory");
    path
}

/// Misses per core for the synthetic coherent workloads. Override with
/// `MACROCHIP_OPS` to trade fidelity for speed.
pub fn ops_per_core() -> u32 {
    std::env::var("MACROCHIP_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150)
}

/// `MACROCHIP_FAST=1` shrinks the Figure 6 sweep windows for smoke runs.
pub fn fast_mode() -> bool {
    std::env::var("MACROCHIP_FAST").is_ok_and(|v| v == "1")
}

/// The campaign-engine flags every regeneration binary shares, parsed
/// from its command line. `run_all` passes its own arguments on to each
/// child, so every child parses the same flags the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignArgs {
    /// Worker threads (`--jobs <N>`; 1 = serial, 0 = one per hardware
    /// thread). Results come back in canonical order whatever the value,
    /// so every regenerated artifact is byte-identical to a serial run.
    pub jobs: usize,
    /// Resimulate instead of loading cached results (`--no-cache`).
    pub no_cache: bool,
}

impl CampaignArgs {
    /// Reads the process's command line.
    pub fn detect() -> CampaignArgs {
        let args: Vec<String> = std::env::args().collect();
        CampaignArgs::parse(&args)
    }

    /// The parse itself: `--jobs <N>` (default 1) and `--no-cache`.
    pub fn parse(args: &[String]) -> CampaignArgs {
        let jobs = args
            .iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        CampaignArgs {
            jobs,
            no_cache: args.iter().any(|a| a == "--no-cache"),
        }
    }
}

/// Runs (or loads from the result cache) the full coherent grid behind
/// Figures 7, 8, 9 and 10: every workload of the Figure 7 suite on every
/// network, in that order.
pub fn coherent_grid() -> Vec<CoherentRun> {
    let points: Vec<CampaignPoint> = WorkloadSpec::figure7_suite(ops_per_core())
        .into_iter()
        .flat_map(|spec| {
            NetworkKind::ALL
                .into_iter()
                .map(move |kind| CampaignPoint::Coherent {
                    kind,
                    spec: spec.clone(),
                    seed: 0xFEED,
                })
        })
        .collect();
    let args = CampaignArgs::detect();
    let cache = (!args.no_cache).then(|| {
        let dir = ResultCache::default_dir();
        ResultCache::new(&dir)
            .unwrap_or_else(|e| panic!("cannot open result cache {}: {e}", dir.display()))
    });
    let campaign = Campaign {
        jobs: args.jobs,
        cache,
        config: MacrochipConfig::scaled(),
    };
    let outcomes = campaign.run(&points);
    let cached = outcomes.iter().filter(|o| o.cached).count();
    eprintln!(
        "[coherent grid] {} points: {cached} from cache, {} simulated",
        outcomes.len(),
        outcomes.len() - cached
    );
    outcomes
        .into_iter()
        .map(|o| match o.result {
            PointResult::Coherent(run) => run,
            other => panic!("coherent point returned a {} result", other.tag()),
        })
        .collect()
}

/// Workload column order of Figures 7/8/10.
pub fn workload_order(runs: &[CoherentRun]) -> Vec<String> {
    let mut names = Vec::new();
    for r in runs {
        if !names.contains(&r.workload) {
            names.push(r.workload.clone());
        }
    }
    names
}

/// Finds the run of (workload, network) in the grid.
pub fn find_run<'a>(
    runs: &'a [CoherentRun],
    workload: &str,
    kind: NetworkKind,
) -> Option<&'a CoherentRun> {
    runs.iter()
        .find(|r| r.workload == workload && r.network == kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn campaign_args_parse_jobs_and_no_cache() {
        let a = CampaignArgs::parse(&strings(&["bin", "--jobs", "4", "--no-cache"]));
        assert_eq!(
            a,
            CampaignArgs {
                jobs: 4,
                no_cache: true
            }
        );
        let a = CampaignArgs::parse(&strings(&["bin"]));
        assert_eq!(
            a,
            CampaignArgs {
                jobs: 1,
                no_cache: false
            }
        );
    }
}
