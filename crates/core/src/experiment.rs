//! Closed-loop coherent experiments (Figures 7, 8, 9, 10).
//!
//! A coherent run plays one workload (an application model or a synthetic
//! pattern with a sharing mix) through the MOESI engine over one network,
//! to completion. Its *makespan* (time to finish the fixed amount of
//! work) yields Figure 7's speedups; its mean *latency per coherence
//! operation* is Figure 8; its traffic counters feed the energy model
//! behind Figures 9 and 10.

use crate::runner::{drive_observed, DriveLimits};
use coherence::directory::MAX_SITES;
use coherence::ops::OpSource;
use coherence::{CoherenceEngine, EngineConfig};
use desim::{Span, Time, Tracer};
use netcore::{AuditViolation, Grid, MacrochipConfig, Network, NetworkKind, Packet};
use workloads::{AppProfile, AppWorkload, Pattern, SharingMix, SyntheticOpSource};

/// Which workload a coherent run executes.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// An application-kernel model (Table 2).
    App(AppProfile),
    /// A synthetic pattern with a sharing mix (Table 3 + §5).
    Synthetic {
        /// Message pattern directing request homes.
        pattern: Pattern,
        /// Sharing mix deciding invalidation fan-out.
        mix: SharingMix,
        /// Misses per core.
        ops_per_core: u32,
    },
}

impl WorkloadSpec {
    /// Display name matching the paper's figure columns.
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::App(p) => p.name.to_string(),
            WorkloadSpec::Synthetic { pattern, mix, .. } => {
                format!("{}{}", pattern.name(), mix.suffix())
            }
        }
    }

    /// Checks that this workload can run on `grid`.
    ///
    /// # Errors
    ///
    /// Application kernels keep real directory state, whose sharer
    /// bit-vectors address at most [`MAX_SITES`] sites; on a larger grid
    /// they are refused. Synthetic workloads run at any size.
    pub fn check_grid(&self, grid: &Grid) -> Result<(), String> {
        match self {
            WorkloadSpec::App(p) if grid.sites() > MAX_SITES => Err(format!(
                "application kernel {} tracks directory sharers for at most {MAX_SITES} \
                 sites, but the grid has {}; use --side 8 or smaller, or a synthetic workload",
                p.name,
                grid.sites()
            )),
            _ => Ok(()),
        }
    }

    /// The eleven columns of Figures 7/8/10: six application kernels,
    /// then All-to-all, Transpose, Transpose-MS, Neighbor, Butterfly.
    pub fn figure7_suite(ops_per_core: u32) -> Vec<WorkloadSpec> {
        let mut v: Vec<WorkloadSpec> = AppProfile::suite()
            .into_iter()
            .map(WorkloadSpec::App)
            .collect();
        let ls = SharingMix::LessSharing;
        v.push(WorkloadSpec::Synthetic {
            pattern: Pattern::AllToAll,
            mix: ls,
            ops_per_core,
        });
        v.push(WorkloadSpec::Synthetic {
            pattern: Pattern::Transpose,
            mix: ls,
            ops_per_core,
        });
        v.push(WorkloadSpec::Synthetic {
            pattern: Pattern::Transpose,
            mix: SharingMix::MoreSharing,
            ops_per_core,
        });
        v.push(WorkloadSpec::Synthetic {
            pattern: Pattern::Neighbor,
            mix: ls,
            ops_per_core,
        });
        v.push(WorkloadSpec::Synthetic {
            pattern: Pattern::Butterfly,
            mix: ls,
            ops_per_core,
        });
        v
    }
}

/// The measured outcome of one coherent run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoherentRun {
    /// The network architecture used.
    pub network: NetworkKind,
    /// Workload display name.
    pub workload: String,
    /// Time to complete the fixed work (Figure 7's inverse metric).
    pub makespan: Span,
    /// Mean latency per coherence operation (Figure 8).
    pub mean_op_latency: Span,
    /// Coherence operations completed.
    pub ops_completed: u64,
    /// Bytes delivered by the network.
    pub delivered_bytes: u64,
    /// Bytes that crossed an electronic router (limited point-to-point).
    pub routed_bytes: u64,
    /// Packets delivered.
    pub packets: u64,
}

impl CoherentRun {
    /// Speedup of this run relative to a baseline run of the same
    /// workload (the paper normalizes to the circuit-switched network).
    ///
    /// # Panics
    ///
    /// Panics if the runs executed different workloads or either makespan
    /// is zero.
    pub fn speedup_over(&self, baseline: &CoherentRun) -> f64 {
        assert_eq!(self.workload, baseline.workload, "workload mismatch");
        assert!(
            !self.makespan.is_zero() && !baseline.makespan.is_zero(),
            "degenerate makespan"
        );
        baseline.makespan.as_ns_f64() / self.makespan.as_ns_f64()
    }
}

/// Runs `spec` over network `kind` to completion.
///
/// # Example
///
/// ```
/// use macrochip::experiment::{run_coherent, WorkloadSpec};
/// use netcore::{MacrochipConfig, NetworkKind};
/// use workloads::{Pattern, SharingMix};
///
/// let spec = WorkloadSpec::Synthetic {
///     pattern: Pattern::Neighbor,
///     mix: SharingMix::LessSharing,
///     ops_per_core: 5,
/// };
/// let run = run_coherent(NetworkKind::PointToPoint, &spec,
///                        &MacrochipConfig::scaled(), 42);
/// assert_eq!(run.ops_completed, 64 * 8 * 5);
/// ```
pub fn run_coherent(
    kind: NetworkKind,
    spec: &WorkloadSpec,
    config: &MacrochipConfig,
    seed: u64,
) -> CoherentRun {
    run_coherent_with(kind, spec, config, EngineConfig::default(), seed)
}

/// Runs `spec` over network `kind` with a custom coherence-engine
/// configuration (memory latency, MSHR count, core issue policy) — the
/// entry point for the memory-technology and core-model ablations.
pub fn run_coherent_with(
    kind: NetworkKind,
    spec: &WorkloadSpec,
    config: &MacrochipConfig,
    engine_config: EngineConfig,
    seed: u64,
) -> CoherentRun {
    let mut net = networks::build(kind, *config);
    let (run, _) = drive_coherent(
        net.as_mut(),
        spec,
        engine_config,
        seed,
        Tracer::disabled(),
        |_| {},
        false,
    );
    run
}

/// The coherent harness: plays `spec` through a MOESI engine over the
/// already-built `net` (whose config sizes the engine and the workload)
/// to completion.
///
/// `tracer` is installed on the network and handed to the engine and
/// the driver, so one sink sees the coherence messages next to the
/// network's and the driver's events. `observer` sees every packet the
/// engine injects (requests, forwards, invalidations, acks, data), in
/// emission order, so a closed-loop run can be captured into a
/// replayable trace. With `check`, the engine's structural invariants
/// (MSHR accounting, pending-line table, directory owner/sharer
/// exclusivity) are checked after the drain and any violations
/// returned; the run ends at `Time::ZERO + makespan`.
pub fn drive_coherent<F: FnMut(&Packet)>(
    net: &mut dyn Network,
    spec: &WorkloadSpec,
    engine_config: EngineConfig,
    seed: u64,
    tracer: Tracer,
    observer: F,
    check: bool,
) -> (CoherentRun, Vec<AuditViolation>) {
    let grid = net.config().grid;
    match spec {
        WorkloadSpec::App(profile) => run_engine(
            net,
            spec,
            AppWorkload::new(&grid, *profile, seed),
            engine_config,
            tracer,
            observer,
            check,
        ),
        WorkloadSpec::Synthetic {
            pattern,
            mix,
            ops_per_core,
        } => run_engine(
            net,
            spec,
            SyntheticOpSource::new(&grid, *pattern, *mix, *ops_per_core, seed),
            engine_config,
            tracer,
            observer,
            check,
        ),
    }
}

/// [`drive_coherent`] for one op-source type, so the App and Synthetic
/// arms share their setup and the engine stays monomorphic.
fn run_engine<S: OpSource, F: FnMut(&Packet)>(
    net: &mut dyn Network,
    spec: &WorkloadSpec,
    source: S,
    engine_config: EngineConfig,
    tracer: Tracer,
    observer: F,
    check: bool,
) -> (CoherentRun, Vec<AuditViolation>) {
    net.set_tracer(tracer.clone());
    let mut engine = CoherenceEngine::new(*net.config(), engine_config, source);
    engine.set_tracer(tracer.clone());
    let outcome = drive_observed(
        net,
        &mut engine,
        DriveLimits::closed_loop(),
        tracer,
        observer,
    );
    debug_assert!(!outcome.timed_out, "coherent run timed out");
    let violations = if check {
        engine.check_invariants(outcome.end)
    } else {
        Vec::new()
    };
    let stats = engine.stats();
    let net_stats = net.stats();
    let run = CoherentRun {
        network: net.kind(),
        workload: spec.name(),
        makespan: stats.last_completion().saturating_since(Time::ZERO),
        mean_op_latency: stats.latency().mean(),
        ops_completed: stats.completed(),
        delivered_bytes: net_stats.delivered_bytes(),
        routed_bytes: net_stats.routed_bytes(),
        packets: net_stats.delivered_packets(),
    };
    (run, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MacrochipConfig {
        MacrochipConfig::scaled()
    }

    fn small_synth(pattern: Pattern) -> WorkloadSpec {
        WorkloadSpec::Synthetic {
            pattern,
            mix: SharingMix::LessSharing,
            ops_per_core: 5,
        }
    }

    #[test]
    fn application_kernels_fit_only_grids_of_at_most_64_sites() {
        let radix = WorkloadSpec::App(AppProfile::suite()[0]);
        assert!(radix.check_grid(&Grid::new(8)).is_ok());
        let err = radix.check_grid(&Grid::new(16)).expect_err("256 sites");
        assert!(err.contains("at most 64 sites"), "{err}");
        // Synthetic workloads keep no directory and run at any size.
        assert!(small_synth(Pattern::Uniform)
            .check_grid(&Grid::new(16))
            .is_ok());
    }

    #[test]
    fn all_networks_complete_a_small_synthetic_run() {
        let spec = small_synth(Pattern::Uniform);
        for kind in NetworkKind::ALL {
            let run = run_coherent(kind, &spec, &config(), 9);
            assert_eq!(run.ops_completed, 64 * 8 * 5, "{kind}");
            assert!(run.makespan > Span::ZERO, "{kind}");
            assert!(run.mean_op_latency > Span::ZERO, "{kind}");
        }
    }

    #[test]
    fn p2p_beats_circuit_switched_on_transpose() {
        let spec = small_synth(Pattern::Transpose);
        let p2p = run_coherent(NetworkKind::PointToPoint, &spec, &config(), 9);
        let circuit = run_coherent(NetworkKind::CircuitSwitched, &spec, &config(), 9);
        let speedup = p2p.speedup_over(&circuit);
        assert!(speedup > 1.0, "speedup {speedup}");
    }

    #[test]
    fn only_limited_p2p_routes_bytes_electronically() {
        let spec = small_synth(Pattern::Uniform);
        let limited = run_coherent(NetworkKind::LimitedPointToPoint, &spec, &config(), 9);
        assert!(limited.routed_bytes > 0);
        let p2p = run_coherent(NetworkKind::PointToPoint, &spec, &config(), 9);
        assert_eq!(p2p.routed_bytes, 0);
    }

    #[test]
    fn figure7_suite_has_eleven_columns() {
        let suite = WorkloadSpec::figure7_suite(10);
        assert_eq!(suite.len(), 11);
        let names: Vec<_> = suite.iter().map(WorkloadSpec::name).collect();
        assert!(names.contains(&"Radix".to_string()));
        assert!(names.contains(&"Transpose-MS".to_string()));
        assert!(names.contains(&"Butterfly".to_string()));
    }

    #[test]
    fn app_workload_runs_end_to_end() {
        let profile = AppProfile::suite()[2].with_ops_per_core(10); // Blackscholes
        let spec = WorkloadSpec::App(profile);
        let run = run_coherent(NetworkKind::PointToPoint, &spec, &config(), 4);
        assert!(run.ops_completed >= 64 * 8 * 9, "ops {}", run.ops_completed);
        assert!(run.delivered_bytes > 0);
    }

    #[test]
    #[should_panic(expected = "workload mismatch")]
    fn speedup_requires_matching_workloads() {
        let a = run_coherent(
            NetworkKind::PointToPoint,
            &small_synth(Pattern::Uniform),
            &config(),
            1,
        );
        let b = run_coherent(
            NetworkKind::PointToPoint,
            &small_synth(Pattern::Butterfly),
            &config(),
            1,
        );
        let _ = a.speedup_over(&b);
    }
}
