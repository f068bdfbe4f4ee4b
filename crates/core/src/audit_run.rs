//! The cross-network differential oracle.
//!
//! [`differential_replay`] replays one captured `.mtrc` trace through
//! **all five** network architectures under audit and asserts that every
//! network conserved the *same* injected packet set — a bug that silently
//! drops or duplicates packets in one architecture cannot hide behind that
//! architecture's own (equally buggy) counters.
//!
//! Every other audited run (`--audit` on sweep, faults, run-all, replay
//! and coherent) goes through [`crate::campaign::run_point_full`]; like
//! the oracle, each one closes its audit through [`Auditor::close`].

use crate::replay_run::{run_replay, ReplayOptions, ReplaySummary};
use desim::{Span, Time, Tracer};
use netcore::audit::{AuditReport, Auditor};
use netcore::{MacrochipConfig, NetworkKind};
use replay::TraceError;
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;

/// One network's leg of the differential oracle.
#[derive(Debug, Clone)]
pub struct DifferentialRun {
    pub kind: NetworkKind,
    pub summary: ReplaySummary,
    pub report: AuditReport,
    /// Order-independent digest of the injected packet-id set:
    /// `(count, xor-folded id hash)`.
    pub injected: (u64, u64),
}

/// The cross-network differential oracle's verdict.
#[derive(Debug, Clone)]
pub struct DifferentialReport {
    pub runs: Vec<DifferentialRun>,
}

impl DifferentialReport {
    /// True when every network saw the identical injected packet set.
    pub fn conserved(&self) -> bool {
        let mut digests = self.runs.iter().map(|r| r.injected);
        match digests.next() {
            Some(first) => digests.all(|d| d == first),
            None => true,
        }
    }

    /// True when every per-network audit came back violation-free.
    pub fn clean(&self) -> bool {
        self.runs.iter().all(|r| r.report.is_clean())
    }

    /// Total violations across all legs.
    pub fn total_violations(&self) -> u64 {
        self.runs.iter().map(|r| r.report.total_violations).sum()
    }
}

/// Replays the `.mtrc` trace at `path` through all five architectures
/// under audit. Every leg gets a fresh network and a fresh auditor; the
/// caller asserts [`DifferentialReport::conserved`] and
/// [`DifferentialReport::clean`].
pub fn differential_replay(
    path: &Path,
    config: &MacrochipConfig,
    options: ReplayOptions,
) -> Result<DifferentialReport, TraceError> {
    let mut runs = Vec::with_capacity(NetworkKind::FIGURE6.len());
    for kind in NetworkKind::FIGURE6 {
        let auditor = Rc::new(RefCell::new(Auditor::new(kind, config)));
        let (summary, net) = run_replay(kind, path, config, options, Tracer::shared(&auditor))?;
        let end = Time::ZERO + Span::from_ns_f64(summary.end_ns);
        let injected = auditor.borrow().injected_set_digest();
        let report = auditor.borrow_mut().close(net.as_ref(), 0, end);
        runs.push(DifferentialRun {
            kind,
            summary,
            report,
            injected,
        });
    }
    Ok(DifferentialReport { runs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_point_full, CampaignPoint, PointExecOptions, PointResult, PointRun};
    use crate::sweep::{run_load_point_observed, run_load_point_traced, SweepOptions};
    use desim::trace::{TeeSink, TraceEvent, TraceSink};
    use netcore::FabricConfig;
    use replay::{TraceMeta, TraceWriter};
    use std::io::Cursor;
    use workloads::Pattern;

    fn config() -> MacrochipConfig {
        MacrochipConfig::scaled()
    }

    fn fast_options() -> SweepOptions {
        SweepOptions {
            sim: Span::from_us(1),
            drain: Span::from_us(10),
            max_stalled: 10_000,
            seed: 3,
        }
    }

    /// A uniform sweep point through the campaign runner with the auditor
    /// on: the path every `--audit` sweep takes.
    fn audited_sweep(
        kind: NetworkKind,
        load: f64,
        config: MacrochipConfig,
        options: SweepOptions,
    ) -> PointRun {
        let point = CampaignPoint::Sweep {
            kind,
            pattern: Pattern::Uniform,
            offered: load,
            options,
        };
        let exec = PointExecOptions {
            audit: true,
            ..PointExecOptions::default()
        };
        run_point_full(&point, &FabricConfig::single(config), exec)
    }

    /// The five Figure-6 networks on the scaled macrochip at 2 % load,
    /// plus the hierarchical network at both geometries its topology
    /// reshapes across (8×8 and 16×16), at 0.5 % — under its ~0.8 %
    /// uniform-random sustained bandwidth.
    #[test]
    fn all_networks_audit_clean_at_low_load() {
        let hierarchical = [8, 16].map(|side| {
            (
                NetworkKind::Hierarchical,
                MacrochipConfig::with_side(side),
                0.005,
            )
        });
        let runs = NetworkKind::FIGURE6
            .map(|kind| (kind, config(), 0.02))
            .into_iter()
            .chain(hierarchical);
        for (kind, config, load) in runs {
            let side = config.grid.side();
            let run = audited_sweep(kind, load, config, fast_options());
            let PointResult::Sweep(point) = run.result else {
                panic!("expected a sweep result");
            };
            let report = run.audit.expect("audit requested");
            assert!(!point.saturated, "{kind} {side}x{side} saturated at {load}");
            assert!(
                report.is_clean(),
                "{kind} {side}x{side} violations: {:?}",
                report.violation_lines()
            );
            assert!(report.conservation_holds(), "{kind} {side}x{side}");
            assert!(
                report.packets_tracked > 0,
                "{kind} {side}x{side} audited nothing"
            );
        }
    }

    #[test]
    fn audits_stay_clean_at_saturation() {
        // Uniform traffic at full peak saturates every architecture; the
        // audit must still reconcile (packets stalled in the driver's
        // queue were never injected, so they are not in the audited set).
        for kind in NetworkKind::FIGURE6 {
            let options = SweepOptions {
                sim: Span::from_us(1),
                drain: Span::from_us(2),
                max_stalled: 500,
                seed: 5,
            };
            let report = audited_sweep(kind, 1.0, config(), options)
                .audit
                .expect("audit requested");
            assert!(
                report.is_clean(),
                "{kind} violations at saturation: {:?}",
                report.violation_lines()
            );
        }
    }

    /// The acceptance canary: an intentionally forged duplicate-delivery
    /// event must be caught and reported with packet id, site, and time.
    #[test]
    fn a_forged_duplicate_delivery_is_caught_with_full_context() {
        let kind = NetworkKind::PointToPoint;
        let cfg = config();
        let auditor = Rc::new(RefCell::new(Auditor::new(kind, &cfg)));
        let saboteur = Rc::new(RefCell::new(ForgeOnDeliver {
            auditor: Rc::clone(&auditor),
            forged: None,
        }));
        let mut tee = TeeSink::new();
        tee.add(&saboteur);
        let tee = Rc::new(RefCell::new(tee));
        let (_, net) = run_load_point_traced(
            networks::build(kind, cfg),
            Pattern::Uniform,
            0.02,
            &cfg,
            fast_options(),
            Tracer::shared(&tee),
        );
        let forged = saboteur.borrow().forged.expect("a delivery was forged");
        let report = auditor
            .borrow_mut()
            .close(net.as_ref(), 0, Time::from_us(11));
        assert!(!report.is_clean());
        let v = report
            .violations
            .iter()
            .find(|v| v.check == "conservation.double-deliver")
            .expect("forged duplicate flagged");
        assert_eq!(v.packet, Some(forged.0));
        assert_eq!(v.site, Some(forged.1));
        assert_eq!(v.at, forged.2);

        // The saboteur forwards everything and re-records the first
        // delivery a second time — the accounting bug every conservation
        // check exists to catch.
        struct ForgeOnDeliver {
            auditor: Rc<RefCell<Auditor>>,
            forged: Option<(u64, usize, Time)>,
        }
        impl TraceSink for ForgeOnDeliver {
            fn record(&mut self, at: Time, event: TraceEvent) {
                self.auditor.borrow_mut().record(at, event);
                if self.forged.is_none() {
                    if let TraceEvent::Deliver { packet, dst, .. } = event {
                        self.auditor.borrow_mut().record(at, event);
                        self.forged = Some((packet, dst, at));
                    }
                }
            }
        }
    }

    fn capture_trace(kind: NetworkKind, load: f64) -> Vec<u8> {
        let cfg = config();
        let meta = TraceMeta {
            grid_side: cfg.grid.side() as u16,
            seed: 3,
            description: "differential oracle capture".into(),
        };
        let mut writer = Some(TraceWriter::create(Cursor::new(Vec::new()), &meta).expect("writer"));
        run_load_point_observed(
            networks::build(kind, cfg),
            Pattern::Uniform,
            load,
            &cfg,
            fast_options(),
            Tracer::disabled(),
            |p| {
                writer.as_mut().expect("live").record(p).expect("record");
            },
        );
        writer
            .take()
            .expect("writer")
            .finish()
            .expect("finish")
            .0
            .into_inner()
    }

    #[test]
    fn differential_oracle_agrees_across_all_five_networks() {
        let bytes = capture_trace(NetworkKind::PointToPoint, 0.01);
        let dir = std::env::temp_dir().join(format!("mtrc-diff-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("light.mtrc");
        std::fs::write(&path, &bytes).expect("trace written");
        let report =
            differential_replay(&path, &config(), ReplayOptions::default()).expect("replayable");
        std::fs::remove_file(&path).ok();
        assert_eq!(report.runs.len(), 5);
        assert!(
            report.clean(),
            "violations: {:?}",
            report
                .runs
                .iter()
                .flat_map(|r| r.report.violation_lines())
                .collect::<Vec<_>>()
        );
        assert!(report.conserved(), "networks disagree on the injected set");
        let first = report.runs[0].injected;
        assert!(first.0 > 0, "oracle audited an empty trace");
    }
}
