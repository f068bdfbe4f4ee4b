//! Application-kernel workload models (paper Table 2).
//!
//! The paper drives its network simulator with L2-miss coherence traffic
//! produced by an instruction-trace CPU simulator running two SPLASH-2
//! and three PARSEC kernels. Those traces are proprietary; this module
//! substitutes a *statistical trace* per benchmark, replayed against real
//! per-site L2 caches and real full-map directories — so owners, sharers,
//! upgrades and cache-to-cache transfers emerge from genuine MOESI state,
//! exactly the stimulus class the paper's network simulator consumed
//! (see DESIGN.md §2).
//!
//! Each profile is characterized by:
//! * its miss intensity (mean compute gap between miss *attempts*);
//! * the fraction of accesses to per-core private streaming data (cold
//!   misses to uniformly interleaved homes) versus the hot shared region;
//! * its write fraction;
//! * whether sharing is neighbor-local (Fluidanimate's boundary exchange)
//!   or global (Radix's permutation, Barnes' irregular tree).
//!
//! Calibration follows the paper's qualitative statements: Barnes has a
//! low L2 miss rate and stresses no network (§6.2); Swaptions generates
//! the heaviest directory traffic (largest speedup spread, §6.2).

use coherence::cache::{SetAssocCache, LINE_BYTES};
use coherence::directory::{home_site, Directory, MAX_SITES};
use coherence::ops::{NextMiss, OpKind, OpSource, OpSpec};
use coherence::protocol::{remote_read, MoesiState};
use desim::{SimRng, Span};
use netcore::{Grid, SiteId};

/// Private streaming regions start here (line addresses), far above any
/// shared region.
const PRIVATE_BASE: u64 = 1 << 40;

/// Lines in one core's private streaming window.
const PRIVATE_STRIDE: u64 = 1 << 20;

/// Lines per neighbor-pair boundary region (Fluidanimate-style sharing).
const LINES_PER_PAIR: u64 = 256;

/// A statistical model of one application kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppProfile {
    /// Benchmark name as it appears in the paper's figures.
    pub name: &'static str,
    /// Mean compute time between memory-burst attempts per core.
    pub mean_gap: Span,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Fraction of accesses to private streaming data.
    pub private_fraction: f64,
    /// Size of the hot shared region, in cache lines.
    pub shared_lines: u64,
    /// Whether shared data is exchanged with grid neighbors only.
    pub neighbor_locality: bool,
    /// Coherence operations (L2 misses) each core performs.
    pub ops_per_core: u32,
}

impl AppProfile {
    /// The paper's six application workloads (Table 2; Fluidanimate
    /// contributes two kernels).
    pub fn suite() -> Vec<AppProfile> {
        vec![
            AppProfile {
                // Radix sort: bulk key exchange, heavy all-to-all traffic.
                name: "Radix",
                mean_gap: Span::from_ps(5_000),
                write_fraction: 0.5,
                private_fraction: 0.6,
                shared_lines: 16_384,
                neighbor_locality: false,
                ops_per_core: 200,
            },
            AppProfile {
                // Barnes-Hut: low L2 miss rate, does not stress the
                // network (paper §6.2).
                name: "Barnes",
                mean_gap: Span::from_ps(40_000),
                write_fraction: 0.3,
                private_fraction: 0.3,
                shared_lines: 8_192,
                neighbor_locality: false,
                ops_per_core: 100,
            },
            AppProfile {
                // Blackscholes: embarrassingly parallel option pricing,
                // mostly private streaming.
                name: "Blackscholes",
                mean_gap: Span::from_ps(10_000),
                write_fraction: 0.25,
                private_fraction: 0.9,
                shared_lines: 4_096,
                neighbor_locality: false,
                ops_per_core: 200,
            },
            AppProfile {
                // Fluidanimate densities: boundary exchange with grid
                // neighbors, moderate sharing.
                name: "Densities",
                mean_gap: Span::from_ps(7_000),
                write_fraction: 0.3,
                private_fraction: 0.5,
                shared_lines: 8_192,
                neighbor_locality: true,
                ops_per_core: 200,
            },
            AppProfile {
                // Fluidanimate forces: like densities but write-heavier
                // (force accumulation into shared particles).
                name: "Forces",
                mean_gap: Span::from_ps(7_000),
                write_fraction: 0.5,
                private_fraction: 0.4,
                shared_lines: 8_192,
                neighbor_locality: true,
                ops_per_core: 200,
            },
            AppProfile {
                // Swaptions: heaviest directory traffic; the paper's
                // largest speedup spread (8.3x) is on this kernel.
                name: "Swaptions",
                mean_gap: Span::from_ps(4_000),
                write_fraction: 0.35,
                private_fraction: 0.95,
                shared_lines: 4_096,
                neighbor_locality: false,
                ops_per_core: 250,
            },
        ]
    }

    /// This profile with a different per-core operation budget (used to
    /// scale experiment runtimes).
    pub fn with_ops_per_core(mut self, ops: u32) -> AppProfile {
        self.ops_per_core = ops;
        self
    }
}

/// The replayable workload: profile + caches + directories.
///
/// # Example
///
/// ```
/// use coherence::ops::OpSource;
/// use netcore::Grid;
/// use workloads::AppProfile;
/// use workloads::AppWorkload;
///
/// let grid = Grid::new(8);
/// let profile = AppProfile::suite()[0]; // Radix
/// let mut w = AppWorkload::new(&grid, profile, 42);
/// let miss = w.next_miss(grid.site(0, 0), 0).unwrap();
/// miss.op.validate();
/// ```
pub struct AppWorkload {
    profile: AppProfile,
    grid: Grid,
    caches: Vec<SetAssocCache>,
    dirs: Vec<Directory>,
    rng: SimRng,
    remaining: Vec<u32>,
    private_cursor: Vec<u64>,
    cores_per_site: usize,
}

impl AppWorkload {
    /// Builds the workload's caches and directories for `grid`.
    ///
    /// # Panics
    ///
    /// Panics if the grid has more than [`MAX_SITES`] sites, the most a
    /// directory's sharer bit-vector can address.
    pub fn new(grid: &Grid, profile: AppProfile, seed: u64) -> AppWorkload {
        let cores_per_site = 8;
        let sites = grid.sites();
        assert!(
            sites <= MAX_SITES,
            "application kernels track sharers for at most {MAX_SITES} sites, not {sites}"
        );
        AppWorkload {
            profile,
            grid: *grid,
            caches: (0..sites)
                .map(|_| SetAssocCache::new(256 * 1024, 16))
                .collect(),
            dirs: (0..sites).map(|_| Directory::new()).collect(),
            rng: SimRng::new(seed),
            remaining: vec![profile.ops_per_core; sites * cores_per_site],
            private_cursor: vec![0; sites * cores_per_site],
            cores_per_site,
        }
    }

    /// The profile being replayed.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    fn core_slot(&self, site: SiteId, core: usize) -> usize {
        site.index() * self.cores_per_site + core
    }

    /// The next line address touched by (site, core), plus write flag.
    fn gen_access(&mut self, site: SiteId, core: usize) -> (u64, bool) {
        let is_write = self.rng.chance(self.profile.write_fraction);
        if self.rng.chance(self.profile.private_fraction) {
            let slot = self.core_slot(site, core);
            let cursor = self.private_cursor[slot];
            self.private_cursor[slot] += 1;
            let gid = slot as u64;
            (PRIVATE_BASE + gid * PRIVATE_STRIDE + cursor, is_write)
        } else if self.profile.neighbor_locality {
            // Boundary region shared with one random grid neighbor; the
            // home is anchored at one end of the pair, keeping coherence
            // traffic neighbor-local.
            let (x, y) = self.grid.coord(site);
            let side = self.grid.side();
            let mut nbs: Vec<SiteId> = Vec::with_capacity(4);
            if x > 0 {
                nbs.push(self.grid.site(x - 1, y));
            }
            if x + 1 < side {
                nbs.push(self.grid.site(x + 1, y));
            }
            if y > 0 {
                nbs.push(self.grid.site(x, y - 1));
            }
            if y + 1 < side {
                nbs.push(self.grid.site(x, y + 1));
            }
            let nb = *self.rng.choose(&nbs);
            let lo = site.index().min(nb.index()) as u64;
            let hi = site.index().max(nb.index()) as u64;
            let region = lo * self.grid.sites() as u64 + hi;
            let r = self.rng.range(0..LINES_PER_PAIR);
            let anchor = if self.rng.chance(0.5) { lo } else { hi };
            (((region * LINES_PER_PAIR + r) << 6) | anchor, is_write)
        } else {
            (self.rng.range(0..self.profile.shared_lines), is_write)
        }
    }

    /// Applies the directory/cache effects of a completed miss and builds
    /// its [`OpSpec`]. Updates happen at generation time — the paper
    /// likewise skips the protocol's transient intricacies (§5).
    fn build_miss(&mut self, site: SiteId, line: u64, is_write: bool, upgrade: bool) -> OpSpec {
        let home = home_site(line, self.grid.sites());
        let entry = self.dirs[home.index()].entry(line);
        let owner = entry.owner.filter(|&o| o != site);
        let others = entry.sharers_except(site);

        let (kind, sharers) = if upgrade {
            (OpKind::Upgrade, others.clone())
        } else if is_write {
            (OpKind::Write, others.clone())
        } else {
            (OpKind::Read, Vec::new())
        };

        let addr = line * LINE_BYTES;
        if is_write || upgrade {
            for s in &others {
                self.caches[s.index()].set_state(addr, MoesiState::Invalid);
            }
            if let Some(o) = owner {
                self.caches[o.index()].set_state(addr, MoesiState::Invalid);
            }
            self.dirs[home.index()].record_write(line, site);
            self.insert_line(site, addr, MoesiState::Modified);
        } else {
            if let Some(o) = owner {
                let prev = self.caches[o.index()]
                    .peek(addr)
                    .unwrap_or(MoesiState::Owned);
                self.caches[o.index()].set_state(addr, remote_read(prev));
            }
            self.dirs[home.index()].record_read(line, site);
            let state = if owner.is_none() && others.is_empty() {
                MoesiState::Exclusive
            } else {
                MoesiState::Shared
            };
            self.insert_line(site, addr, state);
        }

        OpSpec {
            requester: site,
            home,
            kind,
            owner,
            sharers,
            line,
        }
    }

    /// Inserts into the site's L2, reflecting any eviction back into the
    /// victim's home directory (silent eviction, like the paper's
    /// simplified protocol).
    fn insert_line(&mut self, site: SiteId, addr: u64, state: MoesiState) {
        if let Some((victim_addr, _)) = self.caches[site.index()].insert(addr, state) {
            let victim_line = victim_addr / LINE_BYTES;
            let victim_home = home_site(victim_line, self.grid.sites());
            self.dirs[victim_home.index()].record_evict(victim_line, site);
        }
    }
}

impl OpSource for AppWorkload {
    fn next_miss(&mut self, site: SiteId, core: usize) -> Option<NextMiss> {
        if core >= self.cores_per_site {
            return None;
        }
        let slot = self.core_slot(site, core);
        if self.remaining[slot] == 0 {
            return None;
        }

        let mut gap = Span::ZERO;
        // Walk the access stream until something misses; the compute gap
        // accumulates across the hits in between.
        for _ in 0..100_000 {
            gap += self.rng.exp_span(self.profile.mean_gap);
            let (line, is_write) = self.gen_access(site, core);
            let addr = line * LINE_BYTES;
            let state = self.caches[site.index()].probe(addr);
            match state {
                Some(s) if !is_write && s.is_readable() => continue, // hit
                Some(s) if is_write && s.is_writable() => {
                    // Silent E->M upgrade stays local but updates the
                    // directory's notion of ownership.
                    if s == MoesiState::Exclusive {
                        let home = home_site(line, self.grid.sites());
                        self.dirs[home.index()].record_write(line, site);
                        self.caches[site.index()].set_state(addr, MoesiState::Modified);
                    }
                    continue; // hit
                }
                Some(_) if is_write => {
                    // Shared/Owned write: upgrade miss.
                    self.remaining[slot] -= 1;
                    let op = self.build_miss(site, line, true, true);
                    return Some(NextMiss { gap, op });
                }
                _ => {
                    // Cold or invalidated: plain miss.
                    self.remaining[slot] -= 1;
                    let op = self.build_miss(site, line, is_write, false);
                    return Some(NextMiss { gap, op });
                }
            }
        }
        // The working set degenerated into the cache; treat the core as
        // finished rather than spinning forever.
        self.remaining[slot] = 0;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::new(8)
    }

    fn radix() -> AppProfile {
        AppProfile::suite()[0]
    }

    #[test]
    fn suite_matches_table2() {
        let names: Vec<_> = AppProfile::suite().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                "Radix",
                "Barnes",
                "Blackscholes",
                "Densities",
                "Forces",
                "Swaptions"
            ]
        );
    }

    #[test]
    fn misses_respect_the_per_core_budget() {
        let g = grid();
        let profile = radix().with_ops_per_core(5);
        let mut w = AppWorkload::new(&g, profile, 1);
        let site = g.site(0, 0);
        let mut n = 0;
        while w.next_miss(site, 0).is_some() {
            n += 1;
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn specs_are_internally_consistent() {
        let g = grid();
        let mut w = AppWorkload::new(&g, radix().with_ops_per_core(50), 2);
        for site in g.iter().take(8) {
            for core in 0..2 {
                while let Some(m) = w.next_miss(site, core) {
                    m.op.validate();
                    assert_eq!(m.op.home, home_site(m.op.line, 64));
                }
            }
        }
    }

    #[test]
    fn sharing_emerges_from_real_directory_state() {
        let g = grid();
        // A write-heavy, fully shared profile must produce owners or
        // sharers once several sites touch the same hot lines.
        let profile = AppProfile {
            name: "test",
            mean_gap: Span::from_ps(1_000),
            write_fraction: 0.5,
            private_fraction: 0.0,
            shared_lines: 512,
            neighbor_locality: false,
            ops_per_core: 100,
        };
        let mut w = AppWorkload::new(&g, profile, 3);
        let mut with_remote_state = 0;
        let mut total = 0;
        for site in g.iter() {
            while let Some(m) = w.next_miss(site, 0) {
                total += 1;
                if m.op.owner.is_some() || !m.op.sharers.is_empty() {
                    with_remote_state += 1;
                }
            }
        }
        assert!(total > 500, "total {total}");
        assert!(
            with_remote_state * 5 > total,
            "only {with_remote_state}/{total} ops saw remote state"
        );
    }

    #[test]
    fn neighbor_locality_keeps_homes_adjacent() {
        let g = grid();
        let profile = AppProfile {
            name: "test",
            mean_gap: Span::from_ps(1_000),
            write_fraction: 0.3,
            private_fraction: 0.0,
            shared_lines: 512,
            neighbor_locality: true,
            ops_per_core: 60,
        };
        let mut w = AppWorkload::new(&g, profile, 4);
        let site = g.site(3, 3);
        while let Some(m) = w.next_miss(site, 0) {
            let (hx, hy) = g.coord(m.op.home);
            let d = hx.abs_diff(3) + hy.abs_diff(3);
            assert!(d <= 1, "home {} is {} hops away", m.op.home, d);
        }
    }

    #[test]
    fn private_streaming_always_cold_misses() {
        let g = grid();
        let profile = AppProfile {
            name: "test",
            mean_gap: Span::from_ps(1_000),
            write_fraction: 0.0,
            private_fraction: 1.0,
            shared_lines: 64,
            neighbor_locality: false,
            ops_per_core: 50,
        };
        let mut w = AppWorkload::new(&g, profile, 5);
        let site = g.site(0, 0);
        let mut lines = std::collections::HashSet::new();
        while let Some(m) = w.next_miss(site, 0) {
            assert_eq!(m.op.kind, OpKind::Read);
            assert!(m.op.owner.is_none());
            assert!(lines.insert(m.op.line), "revisited a streaming line");
        }
        assert_eq!(lines.len(), 50);
    }

    #[test]
    fn barnes_is_the_lightest_workload() {
        // The paper: Barnes has a relatively low L2 miss rate.
        let suite = AppProfile::suite();
        let barnes = suite.iter().find(|p| p.name == "Barnes").unwrap();
        for p in &suite {
            assert!(barnes.mean_gap >= p.mean_gap, "{} is lighter", p.name);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let g = grid();
        let collect = |seed| {
            let mut w = AppWorkload::new(&g, radix().with_ops_per_core(20), seed);
            let mut v = Vec::new();
            while let Some(m) = w.next_miss(g.site(0, 0), 0) {
                v.push((m.op.line, m.op.kind));
            }
            v
        };
        assert_eq!(collect(7), collect(7));
    }

    #[test]
    #[should_panic(expected = "at most 64 sites")]
    fn grids_beyond_the_directory_bit_vector_are_refused() {
        // Sharers are one bit of a u64 per site: site 64 would alias
        // site 0.
        let _ = AppWorkload::new(&Grid::new(9), radix(), 1);
    }
}
