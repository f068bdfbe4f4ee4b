//! Host-side span profiler and throughput counters.
//!
//! Everything else in `desim` measures *simulated* time; this module
//! measures *host* time — where the simulator's own wall-clock goes and
//! how fast it chews through events. Two facilities share the module:
//!
//! * **Scoped spans** ([`span`]): RAII guards around the kernel's hot
//!   sites (event-queue pop, dispatch, network step, trace-sink fan-out,
//!   audit checks). Spans aggregate per-thread into fixed-size arrays —
//!   no allocation on the hot path — and roll up into process-wide
//!   totals on [`flush`]. When profiling is disabled (the default) a
//!   span is a single relaxed atomic load and an empty drop: safe to
//!   leave in release builds.
//! * **Host counters** ([`add`]/[`counter`]): monotone process-wide
//!   totals (events simulated, packets delivered, campaign points done,
//!   cache hits/misses and their latency). Counters are always on; they
//!   are bumped coarsely — once per run or per campaign point, never per
//!   event — so their cost is unmeasurable.
//!
//! Profiling never touches simulation state: enabling it changes host
//! timing only, and sim results stay byte-identical (the regression
//! tests in `tests/` assert this).
//!
//! # Example
//!
//! ```
//! use desim::prof::{self, Site};
//!
//! prof::reset_local();
//! prof::set_enabled(true);
//! {
//!     let _outer = prof::span(Site::Dispatch);
//!     let _inner = prof::span(Site::QueuePop);
//! } // guards close innermost-first
//! prof::set_enabled(false);
//! let report = prof::local_report();
//! let pop = report.site(Site::QueuePop).unwrap();
//! assert_eq!(pop.count, 1);
//! assert!(pop.self_ns <= pop.total_ns);
//! ```

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Instrumented sites in the simulation kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// One driver-loop iteration: pick the next instant, advance, drain,
    /// re-offer stalls, inject. Parent of most other sites.
    Dispatch,
    /// `EventQueue::pop` / `pop_due` — the heap pop itself.
    QueuePop,
    /// `Network::advance` — the architecture's internal event dispatch.
    NetworkStep,
    /// Source emission (`PacketSource::emit_due`).
    SourceEmit,
    /// Injection attempts, including stalled-packet retries.
    Inject,
    /// Draining delivered packets back to the source.
    Drain,
    /// `Tracer::emit` — building the payload and fanning out to sinks.
    TraceFanout,
    /// Invariant-auditor checks riding the trace stream.
    Audit,
}

impl Site {
    /// Number of instrumented sites.
    pub const COUNT: usize = 8;

    /// All sites, in display order.
    pub const ALL: [Site; Site::COUNT] = [
        Site::Dispatch,
        Site::QueuePop,
        Site::NetworkStep,
        Site::SourceEmit,
        Site::Inject,
        Site::Drain,
        Site::TraceFanout,
        Site::Audit,
    ];

    /// Stable dotted name used in metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Site::Dispatch => "dispatch",
            Site::QueuePop => "queue_pop",
            Site::NetworkStep => "network_step",
            Site::SourceEmit => "source_emit",
            Site::Inject => "inject",
            Site::Drain => "drain",
            Site::TraceFanout => "trace_fanout",
            Site::Audit => "audit",
        }
    }
}

/// Monotone process-wide host counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Simulation events processed (event-queue pops across all
    /// networks driven by this process).
    SimEvents,
    /// Packets delivered across all runs.
    Packets,
    /// Campaign points completed (executed or served from cache).
    PointsDone,
    /// Campaign result-cache hits.
    CacheHits,
    /// Campaign result-cache misses.
    CacheMisses,
    /// Cumulative wall-clock spent on cache hits, nanoseconds.
    CacheHitNs,
    /// Cumulative wall-clock spent on cache misses (lookup only, not the
    /// recomputation), nanoseconds.
    CacheMissNs,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 7;

    /// All counters, in display order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::SimEvents,
        Counter::Packets,
        Counter::PointsDone,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheHitNs,
        Counter::CacheMissNs,
    ];

    /// Stable dotted name used in metrics and reports.
    pub fn name(self) -> &'static str {
        match self {
            Counter::SimEvents => "events",
            Counter::Packets => "packets",
            Counter::PointsDone => "points_done",
            Counter::CacheHits => "cache_hits",
            Counter::CacheMisses => "cache_misses",
            Counter::CacheHitNs => "cache_hit_ns",
            Counter::CacheMissNs => "cache_miss_ns",
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; Counter::COUNT] = [const { AtomicU64::new(0) }; Counter::COUNT];
/// Furthest simulation time any driver has reached, picoseconds
/// (a high-water mark for progress reporting, not a counter).
static SIM_TIME_PS: AtomicU64 = AtomicU64::new(0);
/// Process-wide span roll-up: [count, total_ns, self_ns] per site.
static SPANS: [[AtomicU64; 3]; Site::COUNT] =
    [const { [const { AtomicU64::new(0) }; 3] }; Site::COUNT];

#[derive(Default)]
struct LocalProf {
    /// [count, total_ns, self_ns] per site, this thread only.
    stats: [[u64; 3]; Site::COUNT],
    /// Child-time accumulator per open span, innermost last.
    open: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<LocalProf> = RefCell::new(LocalProf::default());
}

/// Turns span profiling on or off process-wide. Counters are unaffected
/// (always on).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// True when span profiling is on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open profiling span; closes (and records) on drop.
///
/// Must be dropped in strict LIFO order — which the RAII scoping rule
/// gives for free. Holding one across a thread boundary is not possible
/// (`Instant` is `Send`, but the guard deliberately is not).
pub struct SpanGuard {
    site: Site,
    start: Option<Instant>,
    /// !Send + !Sync: per-thread aggregation assumes the guard closes on
    /// the thread that opened it.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Opens a span at `site`. When profiling is disabled this is one
/// relaxed atomic load and the returned guard's drop is empty.
#[inline]
pub fn span(site: Site) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            site,
            start: None,
            _not_send: std::marker::PhantomData,
        };
    }
    LOCAL.with(|l| l.borrow_mut().open.push(0));
    SpanGuard {
        site,
        start: Some(Instant::now()),
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let child = l.open.pop().unwrap_or(0);
            let s = &mut l.stats[self.site as usize];
            s[0] += 1;
            s[1] += elapsed;
            s[2] += elapsed.saturating_sub(child);
            if let Some(parent) = l.open.last_mut() {
                *parent += elapsed;
            }
        });
    }
}

/// Number of spans currently open on this thread (test hook).
pub fn open_depth() -> usize {
    LOCAL.with(|l| l.borrow().open.len())
}

/// Rolls this thread's span statistics into the process-wide totals and
/// zeroes the thread-local copy. Called by the driver at the end of each
/// run; cheap when nothing was recorded.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        for (site, s) in l.stats.iter_mut().enumerate() {
            if s[0] == 0 && s[1] == 0 {
                continue;
            }
            for (k, v) in s.iter_mut().enumerate() {
                SPANS[site][k].fetch_add(*v, Ordering::Relaxed);
                *v = 0;
            }
        }
    });
}

/// Adds `n` to a process-wide counter.
#[inline]
pub fn add(counter: Counter, n: u64) {
    COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of a process-wide counter.
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// Publishes the driver's current simulation time (picoseconds) as a
/// high-water mark for progress reporting.
#[inline]
pub fn note_sim_time(ps: u64) {
    SIM_TIME_PS.fetch_max(ps, Ordering::Relaxed);
}

/// The furthest simulation time published so far, picoseconds.
pub fn sim_time_ps() -> u64 {
    SIM_TIME_PS.load(Ordering::Relaxed)
}

/// Zeroes the process-wide counters, span totals and sim-time mark.
/// For benches and tests; running drivers on other threads may already
/// be re-accumulating by the time this returns.
pub fn reset() {
    reset_local();
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for site in &SPANS {
        for v in site {
            v.store(0, Ordering::Relaxed);
        }
    }
    SIM_TIME_PS.store(0, Ordering::Relaxed);
}

/// Zeroes this thread's local span statistics (test hook; open spans are
/// left open).
pub fn reset_local() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stats = [[0; 3]; Site::COUNT];
    });
}

/// Aggregated statistics for one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStats {
    /// Which site.
    pub site: Site,
    /// Spans closed.
    pub count: u64,
    /// Wall-clock inside the span, children included, nanoseconds.
    pub total_ns: u64,
    /// Wall-clock inside the span minus instrumented children, ns.
    pub self_ns: u64,
}

/// A point-in-time snapshot of profiler state.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfReport {
    /// Per-site span statistics, in [`Site::ALL`] order.
    pub spans: Vec<SpanStats>,
    /// Counter values, in [`Counter::ALL`] order.
    pub counters: Vec<(Counter, u64)>,
}

impl ProfReport {
    /// Statistics for `site`, if any spans closed there.
    pub fn site(&self, site: Site) -> Option<SpanStats> {
        self.spans
            .iter()
            .copied()
            .find(|s| s.site == site && s.count > 0)
    }

    /// Value of `counter` in this snapshot.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map_or(0, |(_, v)| *v)
    }

    /// Renders the self/total-time table, sites with activity only,
    /// sorted by self time descending.
    pub fn table(&self) -> String {
        let mut rows: Vec<SpanStats> = self.spans.iter().copied().filter(|s| s.count > 0).collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.self_ns));
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>12} {:>12} {:>10}",
            "site", "count", "self(ms)", "total(ms)", "self/call"
        );
        for r in rows {
            let _ = writeln!(
                out,
                "{:<14} {:>12} {:>12.3} {:>12.3} {:>9.0}n",
                r.site.name(),
                r.count,
                r.self_ns as f64 / 1e6,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / r.count as f64,
            );
        }
        out
    }

    /// Exports the aggregate as a Chrome-trace (Perfetto) JSON array:
    /// one complete (`"ph": "X"`) slice per active site, laid end to end
    /// by self time, with count and total time in `args`. Loads in
    /// `chrome://tracing` / ui.perfetto.dev alongside the flight
    /// recorder's own export.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("[");
        let mut ts_us = 0.0f64;
        let mut first = true;
        for s in self.spans.iter().filter(|s| s.count > 0) {
            if !first {
                out.push(',');
            }
            first = false;
            let dur_us = s.self_ns as f64 / 1e3;
            let _ = write!(
                out,
                "\n  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}}}",
                s.site.name(),
                ts_us,
                dur_us,
                s.count,
                s.total_ns,
                s.self_ns
            );
            ts_us += dur_us;
        }
        out.push_str("\n]");
        out
    }
}

fn snapshot(stats: impl Fn(usize, usize) -> u64) -> ProfReport {
    ProfReport {
        spans: Site::ALL
            .iter()
            .map(|&site| SpanStats {
                site,
                count: stats(site as usize, 0),
                total_ns: stats(site as usize, 1),
                self_ns: stats(site as usize, 2),
            })
            .collect(),
        counters: Counter::ALL.iter().map(|&c| (c, counter(c))).collect(),
    }
}

/// Process-wide report: flushes the calling thread, then snapshots the
/// global roll-up and counters. Threads that have not flushed (i.e. are
/// mid-run) are not included.
pub fn report() -> ProfReport {
    flush();
    snapshot(|site, k| SPANS[site][k].load(Ordering::Relaxed))
}

/// This thread's unflushed span statistics plus the global counters.
/// Test hook: lets a test thread observe exactly its own spans.
pub fn local_report() -> ProfReport {
    LOCAL.with(|l| {
        let l = l.borrow();
        snapshot(|site, k| l.stats[site][k])
    })
}

/// Peak resident-set size of this process in bytes (`VmHWM`), or 0 where
/// unavailable.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_json;

    /// Serializes tests that toggle the global enable flag.
    fn with_profiler<T>(f: impl FnOnce() -> T) -> T {
        use std::sync::Mutex;
        static GATE: Mutex<()> = Mutex::new(());
        let _g = GATE.lock().unwrap_or_else(|e| e.into_inner());
        reset_local();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        out
    }

    #[test]
    fn disabled_span_records_nothing() {
        set_enabled(false);
        reset_local();
        {
            let _s = span(Site::Dispatch);
        }
        assert_eq!(open_depth(), 0);
        assert!(local_report().site(Site::Dispatch).is_none());
    }

    #[test]
    fn nested_spans_attribute_self_time_to_parent_minus_children() {
        let report = with_profiler(|| {
            {
                let _outer = span(Site::Dispatch);
                std::thread::sleep(std::time::Duration::from_millis(2));
                {
                    let _inner = span(Site::NetworkStep);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            local_report()
        });
        let outer = report.site(Site::Dispatch).expect("outer recorded");
        let inner = report.site(Site::NetworkStep).expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        // Inner is a leaf: self == total. Outer excludes the inner time.
        assert_eq!(inner.self_ns, inner.total_ns);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns,
            "outer self {} must exclude inner total {}",
            outer.self_ns,
            inner.total_ns
        );
    }

    #[test]
    fn flush_rolls_local_into_global() {
        let before = report().site(Site::Audit).map_or(0, |s| s.count);
        with_profiler(|| {
            let _s = span(Site::Audit);
        });
        let after = report().site(Site::Audit).map_or(0, |s| s.count);
        assert!(after > before);
        // Local stats were consumed by the flush inside report().
        assert!(local_report().site(Site::Audit).is_none());
    }

    #[test]
    fn counters_are_monotone_and_named() {
        let before = counter(Counter::SimEvents);
        add(Counter::SimEvents, 41);
        add(Counter::SimEvents, 1);
        assert!(counter(Counter::SimEvents) >= before + 42);
        for c in Counter::ALL {
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn sim_time_is_a_high_water_mark() {
        note_sim_time(500);
        note_sim_time(100);
        assert!(sim_time_ps() >= 500);
    }

    #[test]
    fn table_and_chrome_trace_render() {
        let report = with_profiler(|| {
            {
                let _a = span(Site::QueuePop);
            }
            {
                let _b = span(Site::TraceFanout);
            }
            local_report()
        });
        let table = report.table();
        assert!(table.contains("queue_pop"), "{table}");
        assert!(table.contains("trace_fanout"), "{table}");
        let json = report.chrome_trace_json();
        validate_json(&json).expect("chrome trace JSON must be well-formed");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
    }

    #[test]
    fn empty_report_is_valid_chrome_trace() {
        let report = ProfReport {
            spans: Vec::new(),
            counters: Vec::new(),
        };
        validate_json(&report.chrome_trace_json()).expect("empty array");
    }

    #[test]
    fn peak_rss_is_plausible() {
        let rss = peak_rss_bytes();
        // On Linux this must be at least a megabyte for any real process.
        if cfg!(target_os = "linux") {
            assert!(rss > 1 << 20, "VmHWM {rss} implausibly small");
        }
    }
}
