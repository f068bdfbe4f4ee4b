//! Live progress streaming for long campaigns (`--progress`).
//!
//! A [`ProgressReporter`] is a background thread that periodically prints
//! one status line to stderr while a campaign runs:
//!
//! ```text
//! [progress] sweep: 12/60 points, sim 25.0 us, 4.3M events, 1.2M ev/s, ETA 8s
//! ```
//!
//! The figures come entirely from the always-on host counters in
//! [`desim::prof`] — points completed, simulation events processed, the
//! furthest simulation time reached — so reporting never touches, locks
//! or perturbs the simulation itself. Determinism is untouched: the
//! reporter only *reads* atomics that the drivers publish regardless.
//!
//! The reporter stops (and prints a final line) when dropped, so callers
//! wrap the campaign in its scope:
//!
//! ```
//! use macrochip::progress::ProgressReporter;
//! {
//!     let _progress = ProgressReporter::start("sweep", 60, false);
//!     // ... run the campaign ...
//! } // final line printed here
//! ```

use desim::prof::{self, Counter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interval between progress lines.
const TICK: Duration = Duration::from_millis(500);

/// A background stderr progress printer; stops on drop.
pub struct ProgressReporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressReporter {
    /// Starts reporting for a campaign of `total` points under `label`.
    /// When `enabled` is false this is a no-op shell (so call sites can
    /// construct one unconditionally and let the flag decide).
    pub fn start(label: &str, total: usize, enabled: bool) -> ProgressReporter {
        if !enabled {
            return ProgressReporter {
                stop: Arc::new(AtomicBool::new(true)),
                handle: None,
            };
        }
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let label = label.to_string();
        let base_points = prof::counter(Counter::PointsDone);
        let base_events = prof::counter(Counter::SimEvents);
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut last_line_points = u64::MAX;
            let mut last_line_events = u64::MAX;
            while !thread_stop.load(Ordering::Relaxed) {
                std::thread::park_timeout(TICK);
                let done = prof::counter(Counter::PointsDone).saturating_sub(base_points);
                let events = prof::counter(Counter::SimEvents).saturating_sub(base_events);
                // Don't repeat identical lines while a slow point runs.
                if done == last_line_points && events == last_line_events {
                    continue;
                }
                last_line_points = done;
                last_line_events = events;
                eprintln!("{}", render(&label, done, total, events, started.elapsed()));
            }
            let done = prof::counter(Counter::PointsDone).saturating_sub(base_points);
            let events = prof::counter(Counter::SimEvents).saturating_sub(base_events);
            eprintln!("{}", render(&label, done, total, events, started.elapsed()));
        });
        ProgressReporter {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for ProgressReporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Renders one status line: points, furthest sim time, events, events/sec
/// and an ETA extrapolated from completed points.
fn render(label: &str, done: u64, total: usize, events: u64, elapsed: Duration) -> String {
    let secs = elapsed.as_secs_f64();
    let rate = if secs > 0.0 {
        events as f64 / secs
    } else {
        0.0
    };
    let eta = if done > 0 && (done as usize) < total {
        let remaining = secs * (total as f64 - done as f64) / done as f64;
        format!(", ETA {}", human_secs(remaining))
    } else {
        String::new()
    };
    format!(
        "[progress] {label}: {done}/{total} points, sim {:.1} us, {} events, {} ev/s{eta}",
        prof::sim_time_ps() as f64 / 1e6,
        human_count(events as f64),
        human_count(rate),
    )
}

/// `1234567.0` → `"1.2M"`.
fn human_count(n: f64) -> String {
    if n >= 1e9 {
        format!("{:.1}G", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.1}M", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.1}k", n / 1e3)
    } else {
        format!("{n:.0}")
    }
}

/// `83.0` → `"1m23s"`.
fn human_secs(s: f64) -> String {
    if s >= 60.0 {
        format!("{}m{:02}s", (s / 60.0) as u64, (s % 60.0) as u64)
    } else {
        format!("{s:.0}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reporter_is_inert() {
        let reporter = ProgressReporter::start("noop", 10, false);
        assert!(reporter.handle.is_none());
        drop(reporter); // must not hang or print
    }

    #[test]
    fn enabled_reporter_starts_and_stops() {
        let reporter = ProgressReporter::start("test", 2, true);
        prof::add(Counter::PointsDone, 1);
        std::thread::sleep(Duration::from_millis(10));
        drop(reporter); // joins the thread; the final line prints to stderr
    }

    #[test]
    fn render_includes_rate_and_eta() {
        let line = render("sweep", 5, 10, 2_500_000, Duration::from_secs(2));
        assert!(line.contains("5/10 points"), "{line}");
        assert!(line.contains("2.5M events"), "{line}");
        assert!(line.contains("1.2M ev/s"), "{line}");
        assert!(line.contains("ETA 2s"), "{line}");
    }

    #[test]
    fn render_omits_eta_when_done_or_empty() {
        let all_done = render("x", 10, 10, 100, Duration::from_secs(1));
        assert!(!all_done.contains("ETA"), "{all_done}");
        let nothing_yet = render("x", 0, 10, 0, Duration::from_secs(1));
        assert!(!nothing_yet.contains("ETA"), "{nothing_yet}");
    }

    #[test]
    fn human_units_round_trip() {
        assert_eq!(human_count(950.0), "950");
        assert_eq!(human_count(1_500.0), "1.5k");
        assert_eq!(human_count(2_500_000.0), "2.5M");
        assert_eq!(human_count(3_000_000_000.0), "3.0G");
        assert_eq!(human_secs(5.0), "5s");
        assert_eq!(human_secs(83.0), "1m23s");
    }
}
