//! Differential tests for the campaign cache's fast paths.
//!
//! [`PointKeyer`] streams each point's key material into a saved FNV-1a
//! state, and [`PointResult::from_cache_bytes`] decodes an entry without
//! building a map. Both must agree exactly with the straightforward
//! versions they replace, which live on below as oracles: the key is the
//! FNV-1a hash of the whole material string, and the decoder collects the
//! `name value` lines into a `BTreeMap` first. Points of every
//! [`CampaignPoint`] variant are generated on one-chip and 2x2 fabrics, and
//! cache entries are round-tripped and mutated (reordered, duplicated,
//! missing and unknown fields, other format versions, missing spaces,
//! trailing junk).

use desim::Span;
use faults::FaultPlan;
use macrochip::campaign::{
    fabric_point_key, point_key, CampaignPoint, FaultSummary, PointKeyer, PointResult,
};
use macrochip::experiment::{CoherentRun, WorkloadSpec};
use macrochip::replay_run::ReplaySummary;
use macrochip::sweep::{LoadPoint, SweepOptions};
use netcore::{FabricConfig, MacrochipConfig, NetworkKind};
use proptest::prelude::*;
use std::collections::BTreeMap;
use workloads::{AppProfile, Pattern, SharingMix};

// ---- Oracles: the key derivation and decoder as first written ----

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn oracle_point_key(point: &CampaignPoint, config: &MacrochipConfig) -> u64 {
    let mut material = format!("fmt1|{}|cfg{:?}|", env!("CARGO_PKG_VERSION"), config);
    match point {
        CampaignPoint::Sweep {
            kind,
            pattern,
            offered,
            options,
        } => material.push_str(&format!(
            "sweep|{:?}|{:?}|load{:016x}|{:?}",
            kind,
            pattern,
            offered.to_bits(),
            options
        )),
        CampaignPoint::Fault {
            kind,
            pattern,
            load,
            plan,
            seed,
            sim,
            drain,
            max_stalled,
        } => material.push_str(&format!(
            "fault|{:?}|{:?}|load{:016x}|plan{}|seed{}|sim{}|drain{}|stall{}",
            kind,
            pattern,
            load.to_bits(),
            plan.to_spec(),
            seed,
            sim.as_ps(),
            drain.as_ps(),
            max_stalled
        )),
        CampaignPoint::Coherent { kind, spec, seed } => {
            material.push_str(&format!("coherent|{:?}|{:?}|seed{}", kind, spec, seed))
        }
        CampaignPoint::Replay {
            kind,
            trace: _,
            content_hash,
            plan,
            seed,
            drain,
            max_stalled,
        } => material.push_str(&format!(
            "replay|{:?}|hash{:016x}|plan{}|seed{}|drain{}|stall{}",
            kind,
            content_hash,
            plan.as_ref()
                .map_or_else(|| "none".to_string(), |p| p.to_spec()),
            seed,
            drain.as_ps(),
            max_stalled
        )),
    }
    fnv1a64(material.as_bytes())
}

fn oracle_fabric_key(point: &CampaignPoint, fabric: &FabricConfig) -> u64 {
    let chip_key = oracle_point_key(point, &fabric.chip);
    if fabric.is_single() {
        return chip_key;
    }
    let material = format!(
        "fabric{}|link{:?}|chip{:016x}",
        fabric.chips_per_side, fabric.link, chip_key
    );
    fnv1a64(material.as_bytes())
}

fn oracle_decode(bytes: &str) -> Option<PointResult> {
    let mut lines = bytes.lines();
    if lines.next()? != "macrochip-campaign-cache v1" {
        return None;
    }
    let tag = lines.next()?;
    let mut fields = BTreeMap::new();
    for line in lines {
        let (k, v) = line.split_once(' ')?;
        fields.insert(k, v);
    }
    let f64_field = |name: &str| -> Option<f64> {
        u64::from_str_radix(fields.get(name)?, 16)
            .ok()
            .map(f64::from_bits)
    };
    let u64_field = |name: &str| -> Option<u64> { fields.get(name)?.parse().ok() };
    let bool_field = |name: &str| -> Option<bool> {
        match *fields.get(name)? {
            "1" => Some(true),
            "0" => Some(false),
            _ => None,
        }
    };
    match tag {
        "sweep" => Some(PointResult::Sweep(LoadPoint {
            offered: f64_field("offered")?,
            mean_latency_ns: f64_field("mean_latency_ns")?,
            p99_latency_ns: f64_field("p99_latency_ns")?,
            delivered_bytes_per_ns_per_site: f64_field("delivered")?,
            saturated: bool_field("saturated")?,
        })),
        "fault" => Some(PointResult::Fault(FaultSummary {
            clean_delivered: u64_field("clean_delivered")?,
            lost: u64_field("lost")?,
            retries: u64_field("retries")?,
            availability: f64_field("availability")?,
            clean_bytes: u64_field("clean_bytes")?,
            degraded_ns: f64_field("degraded_ns")?,
            end_ns: f64_field("end_ns")?,
            saturated: bool_field("saturated")?,
        })),
        "coherent" => {
            let network_name = *fields.get("network")?;
            Some(PointResult::Coherent(CoherentRun {
                network: NetworkKind::ALL
                    .into_iter()
                    .find(|k| k.name() == network_name)?,
                workload: fields.get("workload")?.to_string(),
                makespan: Span::from_ps(u64_field("makespan_ps")?),
                mean_op_latency: Span::from_ps(u64_field("mean_op_latency_ps")?),
                ops_completed: u64_field("ops_completed")?,
                delivered_bytes: u64_field("delivered_bytes")?,
                routed_bytes: u64_field("routed_bytes")?,
                packets: u64_field("packets")?,
            }))
        }
        "replay" => Some(PointResult::Replay(ReplaySummary {
            trace_packets: u64_field("trace_packets")?,
            emitted: u64_field("emitted")?,
            delivered: u64_field("delivered")?,
            delivered_bytes: u64_field("delivered_bytes")?,
            mean_latency_ns: f64_field("mean_latency_ns")?,
            p99_latency_ns: f64_field("p99_latency_ns")?,
            delivered_bytes_per_ns_per_site: f64_field("per_site")?,
            end_ns: f64_field("end_ns")?,
            saturated: bool_field("saturated")?,
            timed_out: bool_field("timed_out")?,
            poisoned: false,
            trace_last_ps: u64_field("trace_last_ps")?,
            content_hash: u64::from_str_radix(fields.get("content_hash")?, 16).ok()?,
        })),
        _ => None,
    }
}

// ---- Generators ----

/// A splitmix64 stream: each proptest case draws one seed, and the points,
/// entries and edits below are built from it.
struct Gen(u64);

impl Gen {
    fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Any bit pattern, NaNs and infinities included.
    fn float(&mut self) -> f64 {
        f64::from_bits(self.u64())
    }

    fn span(&mut self) -> Span {
        Span::from_ps(self.u64())
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }

    /// Up to `max` characters from `alphabet`.
    fn text(&mut self, alphabet: &str, max: usize) -> String {
        let chars: Vec<char> = alphabet.chars().collect();
        (0..self.below(max + 1))
            .map(|_| self.pick(&chars))
            .collect()
    }

    fn kind(&mut self) -> NetworkKind {
        self.pick(&NetworkKind::ALL)
    }

    fn pattern(&mut self) -> Pattern {
        self.pick(&[
            Pattern::Uniform,
            Pattern::Transpose,
            Pattern::Butterfly,
            Pattern::Neighbor,
            Pattern::AllToAll,
            Pattern::HotSpot,
        ])
    }

    fn plan(&mut self) -> FaultPlan {
        let spec = self.pick(&[
            "",
            "rand-links=2; transient=0.01; repair=10us",
            "link:3->17@2us; laser:5@500ns",
            "site:12@1us; retries=5; backoff=20ns",
            "transient=xtalk:3",
            "rand-links=1; no-recovery",
        ]);
        FaultPlan::parse(spec).expect("a valid plan")
    }

    fn spec(&mut self) -> WorkloadSpec {
        if self.bool() {
            let mut suite = AppProfile::suite();
            let i = self.below(suite.len());
            return WorkloadSpec::App(suite.swap_remove(i));
        }
        WorkloadSpec::Synthetic {
            pattern: self.pattern(),
            mix: self.pick(&[SharingMix::LessSharing, SharingMix::MoreSharing]),
            ops_per_core: self.u64() as u32,
        }
    }

    fn point(&mut self) -> CampaignPoint {
        match self.below(4) {
            0 => CampaignPoint::Sweep {
                kind: self.kind(),
                pattern: self.pattern(),
                offered: self.float(),
                options: SweepOptions {
                    sim: self.span(),
                    drain: self.span(),
                    max_stalled: self.u64() as usize,
                    seed: self.u64(),
                },
            },
            1 => CampaignPoint::Fault {
                kind: self.kind(),
                pattern: self.pattern(),
                load: self.float(),
                plan: self.plan(),
                seed: self.u64(),
                sim: self.span(),
                drain: self.span(),
                max_stalled: self.u64() as usize,
            },
            2 => CampaignPoint::Coherent {
                kind: self.kind(),
                spec: self.spec(),
                seed: self.u64(),
            },
            _ => CampaignPoint::Replay {
                kind: self.kind(),
                trace: self.text("abc/.", 12),
                content_hash: self.u64(),
                plan: self.bool().then(|| self.plan()),
                seed: self.u64(),
                drain: self.span(),
                max_stalled: self.u64() as usize,
            },
        }
    }

    /// A one-chip or a 2x2 fabric of a small or a scaled chip.
    fn fabric(&mut self) -> FabricConfig {
        let chip = if self.bool() {
            MacrochipConfig::with_side(4)
        } else {
            MacrochipConfig::scaled()
        };
        if self.bool() {
            FabricConfig::grid(2, chip)
        } else {
            FabricConfig::single(chip)
        }
    }

    fn result(&mut self) -> PointResult {
        match self.below(4) {
            0 => PointResult::Sweep(LoadPoint {
                offered: self.float(),
                mean_latency_ns: self.float(),
                p99_latency_ns: self.float(),
                delivered_bytes_per_ns_per_site: self.float(),
                saturated: self.bool(),
            }),
            1 => PointResult::Fault(FaultSummary {
                clean_delivered: self.u64(),
                lost: self.u64(),
                retries: self.u64(),
                availability: self.float(),
                clean_bytes: self.u64(),
                degraded_ns: self.float(),
                end_ns: self.float(),
                saturated: self.bool(),
            }),
            2 => PointResult::Coherent(CoherentRun {
                network: self.kind(),
                workload: self.text("Radix LS-ab", 16),
                makespan: self.span(),
                mean_op_latency: self.span(),
                ops_completed: self.u64(),
                delivered_bytes: self.u64(),
                routed_bytes: self.u64(),
                packets: self.u64(),
            }),
            _ => PointResult::Replay(ReplaySummary {
                trace_packets: self.u64(),
                emitted: self.u64(),
                delivered: self.u64(),
                delivered_bytes: self.u64(),
                mean_latency_ns: self.float(),
                p99_latency_ns: self.float(),
                delivered_bytes_per_ns_per_site: self.float(),
                end_ns: self.float(),
                saturated: self.bool(),
                timed_out: self.bool(),
                poisoned: false,
                trace_last_ps: self.u64(),
                content_hash: self.u64(),
            }),
        }
    }

    /// A line to insert: a plausible field, a field name with junk, or
    /// junk.
    fn junk(&mut self) -> String {
        match self.below(5) {
            0 => self.pick(&[
                "saturated 1".to_string(),
                "offered 3ff0000000000000".to_string(),
                "network p2p".to_string(),
                "packets 7".to_string(),
                String::new(),
            ]),
            1 => format!(
                "{} {}",
                self.text("abcdelnorstu_", 8),
                self.text("0123456789abcdef", 17)
            ),
            _ => self.text("az09 _-+x\t", 12),
        }
    }

    fn mutation(&mut self) -> Mutation {
        let line = |g: &mut Gen| g.below(16);
        match self.below(9) {
            0 => Mutation::Keep,
            1 => Mutation::Swap(line(self), line(self)),
            2 => Mutation::Duplicate(line(self), line(self), self.junk()),
            3 => Mutation::Remove(line(self)),
            4 => Mutation::InsertLine(line(self), self.junk()),
            5 => Mutation::Version(self.pick(&["2", "0", "01", "+1", "1 ", ""]).to_string()),
            6 => Mutation::DropSpace(line(self)),
            7 => Mutation::Trailing(self.bool(), self.junk()),
            _ => Mutation::Crlf,
        }
    }
}

/// One edit of a cache entry's text. `a` and `b` pick lines (modulo the
/// line count); `junk` is inserted text.
#[derive(Debug, Clone)]
enum Mutation {
    Keep,
    /// Swap two lines (a swap involving the header or tag breaks them).
    Swap(usize, usize),
    /// Repeat line `a` after line `b`, its value replaced by `junk`.
    Duplicate(usize, usize, String),
    Remove(usize),
    /// Insert `junk` as a whole line before line `a`.
    InsertLine(usize, String),
    /// Replace the format version in the header.
    Version(String),
    /// Drop the first space of line `a`.
    DropSpace(usize),
    /// Append `junk` to the text, with or without a line break first.
    Trailing(bool, String),
    /// End every line with `\r\n`.
    Crlf,
}

fn apply(bytes: &str, mutation: &Mutation) -> String {
    let mut lines: Vec<String> = bytes.lines().map(String::from).collect();
    let n = lines.len();
    match mutation {
        Mutation::Keep => {}
        Mutation::Swap(a, b) => lines.swap(a % n, b % n),
        Mutation::Duplicate(a, b, junk) => {
            let name = lines[a % n].split(' ').next().unwrap_or("").to_string();
            let value = junk.split(' ').nth(1).unwrap_or(junk);
            lines.insert(b % n + 1, format!("{name} {value}"));
        }
        Mutation::Remove(a) => {
            lines.remove(a % n);
        }
        Mutation::InsertLine(a, junk) => lines.insert(a % (n + 1), junk.clone()),
        Mutation::Version(v) => lines[0] = format!("macrochip-campaign-cache v{v}"),
        Mutation::DropSpace(a) => lines[a % n] = lines[a % n].replacen(' ', "", 1),
        Mutation::Trailing(newline, junk) => {
            let mut text = bytes.to_string();
            if !newline {
                text.pop();
            }
            return text + junk;
        }
        Mutation::Crlf => return lines.iter().map(|l| format!("{l}\r\n")).collect(),
    }
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// A decoded entry as its cache bytes: bit-exact, so NaN payloads
/// compare equal to themselves.
fn encoded(result: Option<PointResult>) -> Option<String> {
    result.map(|r| r.to_cache_bytes())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every key the keyer streams equals the hash of the full material
    /// string, on one chip and on a 2x2 board, and `point_key` and
    /// `fabric_point_key` keep their values.
    #[test]
    fn streamed_keys_match_the_material_string_hash(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let (point, fabric) = (g.point(), g.fabric());
        let want = oracle_fabric_key(&point, &fabric);
        prop_assert_eq!(PointKeyer::new(&fabric).key(&point), want);
        prop_assert_eq!(fabric_point_key(&point, &fabric), want);
        prop_assert_eq!(
            point_key(&point, &fabric.chip),
            oracle_point_key(&point, &fabric.chip)
        );
    }

    /// The decoder accepts and rejects exactly what the map-based decoder
    /// does, on round-tripped entries and on every kind of edit.
    #[test]
    fn decoder_matches_the_map_decoder(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let bytes = g.result().to_cache_bytes();
        prop_assert_eq!(encoded(PointResult::from_cache_bytes(&bytes)), Some(bytes.clone()));
        let mutation = g.mutation();
        let edited = apply(&bytes, &mutation);
        prop_assert_eq!(
            encoded(PointResult::from_cache_bytes(&edited)),
            encoded(oracle_decode(&edited)),
            "{:?} of {:?}",
            mutation,
            bytes
        );
    }

    /// Arbitrary lines under a valid header and any tag decode the same
    /// way through both decoders.
    #[test]
    fn decoder_matches_the_map_decoder_on_arbitrary_lines(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let tag = g.pick(&["sweep", "fault", "coherent", "replay", "other"]);
        let lines: Vec<String> = (0..g.below(16)).map(|_| g.junk()).collect();
        let text = format!("macrochip-campaign-cache v1\n{tag}\n{}", lines.join("\n"));
        prop_assert_eq!(
            encoded(PointResult::from_cache_bytes(&text)),
            encoded(oracle_decode(&text))
        );
    }
}

/// The generators reach the cases the differential tests are for.
#[test]
fn mutations_reach_both_verdicts() {
    let entry = PointResult::Sweep(LoadPoint {
        offered: 0.1,
        mean_latency_ns: 12.5,
        p99_latency_ns: 40.0,
        delivered_bytes_per_ns_per_site: 1.5,
        saturated: false,
    })
    .to_cache_bytes();
    let cases = [
        (Mutation::Swap(2, 5), true),
        (
            Mutation::Duplicate(6, 6, "saturated 1".into()),
            true, // the last value wins
        ),
        (Mutation::Duplicate(6, 6, "saturated 2".into()), false),
        (Mutation::Remove(3), false),
        (Mutation::InsertLine(4, "bogus 12".into()), true),
        (Mutation::InsertLine(4, String::new()), false),
        (Mutation::Version("2".into()), false),
        (Mutation::DropSpace(2), false),
        (Mutation::Trailing(true, "junk".into()), false),
        (Mutation::Trailing(true, "x y".into()), true),
        (Mutation::Crlf, true),
    ];
    for (mutation, accepted) in cases {
        let edited = apply(&entry, &mutation);
        let decoded = PointResult::from_cache_bytes(&edited);
        assert_eq!(decoded.is_some(), accepted, "{mutation:?}: {edited:?}");
        assert_eq!(decoded, oracle_decode(&edited), "{mutation:?}");
    }
    let duplicated = apply(&entry, &Mutation::Duplicate(6, 6, "saturated 1".into()));
    match PointResult::from_cache_bytes(&duplicated) {
        Some(PointResult::Sweep(p)) => assert!(p.saturated),
        other => panic!("{other:?}"),
    }
}
