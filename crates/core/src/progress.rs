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
//! The reporter stops when dropped, with a closing line unless the last
//! tick already showed the final counts, so callers wrap the campaign in
//! its scope:
//!
//! ```
//! use macrochip::progress::ProgressReporter;
//! {
//!     let _progress = ProgressReporter::start("sweep", 60, false);
//!     // ... run the campaign ...
//! } // closing line printed here
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
        let mut lines = Lines {
            label: label.to_string(),
            total,
            last: None,
        };
        let base_points = prof::counter(Counter::PointsDone);
        let base_events = prof::counter(Counter::SimEvents);
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut tick = || {
                let done = prof::counter(Counter::PointsDone).saturating_sub(base_points);
                let events = prof::counter(Counter::SimEvents).saturating_sub(base_events);
                if let Some(line) = lines.next(done, events, started.elapsed()) {
                    eprintln!("{line}");
                }
            };
            while !thread_stop.load(Ordering::Relaxed) {
                std::thread::park_timeout(TICK);
                tick();
            }
            // The closing line, unless the last tick already showed it.
            tick();
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

/// The status lines of one campaign: a line is printed only when the
/// point or event count moved since the last one, so neither a slow point
/// nor the closing line repeats what is already on screen.
struct Lines {
    label: String,
    total: usize,
    /// `(points, events)` of the last printed line.
    last: Option<(u64, u64)>,
}

impl Lines {
    /// The line for `done` points and `events` events after `elapsed`,
    /// or `None` if the last printed line showed the same counts.
    fn next(&mut self, done: u64, events: u64, elapsed: Duration) -> Option<String> {
        if self.last == Some((done, events)) {
            return None;
        }
        self.last = Some((done, events));
        Some(render(&self.label, done, self.total, events, elapsed))
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
    fn a_line_prints_only_when_its_counts_moved() {
        let mut lines = Lines {
            label: "sweep".into(),
            total: 2,
            last: None,
        };
        let second = Duration::from_secs(1);
        assert!(lines.next(0, 0, second).is_some(), "the first line prints");
        assert!(
            lines.next(0, 0, second).is_none(),
            "a stalled tick is silent"
        );
        assert!(lines.next(0, 10, second).is_some(), "new events print");
        let last = lines.next(2, 50, second).expect("new points print");
        assert!(last.contains("2/2 points"), "{last}");
        // The closing line repeats nothing the last tick showed, however
        // much later it comes.
        assert!(lines.next(2, 50, 3 * second).is_none());
        assert!(lines.next(2, 51, 3 * second).is_some());
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
