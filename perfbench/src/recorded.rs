//! The benchmark's checked-in inputs and reference outputs.
//!
//! * `loads.txt` — the calibrated offered load of every network on every
//!   open-loop geometry, written by `perfbench calibrate`. Timed runs read
//!   it and never recalibrate.
//! * `digests.txt` — a digest of every entry's deterministic outputs for
//!   the default seed and one held-out seed, written by `perfbench record`.
//!
//! Both are compiled into the binary, so a run reads nothing but its own
//! executable.

use macrochip::names::{network_code, parse_network};
use netcore::NetworkKind;
use std::collections::BTreeMap;
use std::path::PathBuf;

const LOADS: &str = include_str!("../loads.txt");
const DIGESTS: &str = include_str!("../digests.txt");

/// The seed the digests are recorded for, and the held-out one.
pub const RECORDED_SEEDS: [u64; 2] = [1, 2];

/// Where `name` lives in the benchmark's source directory.
pub fn source_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(name)
}

/// One calibrated network on one geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Sustained uniform bandwidth, fraction of the per-site peak.
    pub sustained: f64,
    /// The load the benchmark offers, fraction of the per-site peak.
    pub load: f64,
}

/// Calibrations keyed by geometry name and network.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Loads(BTreeMap<(String, &'static str), Calibration>);

impl Loads {
    /// The checked-in `loads.txt`.
    pub fn checked_in() -> Result<Loads, String> {
        Loads::parse(LOADS)
    }

    /// Parses `geometry network sustained load` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Loads, String> {
        let mut loads = Loads::default();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [geometry, net, sustained, load] = fields[..] else {
                return Err(format!("loads.txt: malformed line {line:?}"));
            };
            let kind = parse_network(net).ok_or(format!("loads.txt: unknown network {net:?}"))?;
            let number = |s: &str| {
                s.parse::<f64>()
                    .ok()
                    .filter(|v| *v > 0.0 && *v <= 1.0)
                    .ok_or(format!("loads.txt: bad fraction {s:?}"))
            };
            let calibration = Calibration {
                sustained: number(sustained)?,
                load: number(load)?,
            };
            loads.insert(geometry, kind, calibration);
        }
        Ok(loads)
    }

    pub fn insert(&mut self, geometry: &str, kind: NetworkKind, calibration: Calibration) {
        self.0
            .insert((geometry.to_string(), network_code(kind)), calibration);
    }

    /// The benchmark load of `kind` on `geometry`.
    pub fn load(&self, geometry: &str, kind: NetworkKind) -> Result<f64, String> {
        self.0
            .get(&(geometry.to_string(), network_code(kind)))
            .map(|c| c.load)
            .ok_or(format!(
                "loads.txt has no {geometry} load for {}; run `perfbench calibrate`",
                network_code(kind)
            ))
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Offered loads (fractions of the 320 B/ns per-site peak) of the open-loop\n\
             # workloads, written by `perfbench calibrate`: each network's sustained\n\
             # uniform bandwidth, found by doubling and bisecting load points, and the\n\
             # load the benchmark offers, half of it.\n\
             # geometry network sustained load\n",
        );
        for ((geometry, net), c) in &self.0 {
            out.push_str(&format!("{geometry} {net} {} {}\n", c.sustained, c.load));
        }
        out
    }
}

/// 64-bit FNV-1a over the little-endian bytes of `fields`.
pub fn digest(fields: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fields.iter().flat_map(|f| f.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Recorded output digests keyed by seed and entry id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Digests(BTreeMap<(u64, String), u64>);

impl Digests {
    /// The checked-in `digests.txt`.
    pub fn checked_in() -> Result<Digests, String> {
        Digests::parse(DIGESTS)
    }

    /// Parses `seed entry digest` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Digests, String> {
        let mut digests = Digests::default();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [seed, entry, value] = fields[..] else {
                return Err(format!("digests.txt: malformed line {line:?}"));
            };
            let seed = seed
                .parse()
                .map_err(|_| format!("digests.txt: bad seed {seed:?}"))?;
            let value = u64::from_str_radix(value, 16)
                .map_err(|_| format!("digests.txt: bad digest {value:?}"))?;
            digests.insert(seed, entry, value);
        }
        Ok(digests)
    }

    pub fn insert(&mut self, seed: u64, entry: &str, value: u64) {
        self.0.insert((seed, entry.to_string()), value);
    }

    /// The recorded digest of `entry` under `seed`, if any.
    pub fn get(&self, seed: u64, entry: &str) -> Option<u64> {
        self.0.get(&(seed, entry.to_string())).copied()
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Digests of each entry's deterministic outputs, written by `perfbench record`.\n\
             # seed entry digest\n",
        );
        for ((seed, entry), value) in &self.0 {
            out.push_str(&format!("{seed} {entry} {value:016x}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_files_parse() {
        let loads = Loads::checked_in().expect("loads.txt parses");
        for geometry in ["chip16", "board2x2"] {
            for kind in NetworkKind::ALL {
                let load = loads
                    .load(geometry, kind)
                    .expect("every network calibrated");
                assert!(load > 0.0 && load < 1.0);
            }
        }
        Digests::checked_in().expect("digests.txt parses");
    }

    #[test]
    fn loads_and_digests_round_trip_through_text() {
        let mut loads = Loads::default();
        let c = Calibration {
            sustained: 0.3125,
            load: 0.15625,
        };
        loads.insert("chip16", NetworkKind::TokenRing, c);
        assert_eq!(Loads::parse(&loads.render()), Ok(loads.clone()));
        assert_eq!(loads.load("chip16", NetworkKind::TokenRing), Ok(0.15625));
        assert!(loads.load("board2x2", NetworkKind::TokenRing).is_err());

        let mut digests = Digests::default();
        digests.insert(1, "chip16_open/token@half", digest(&[1, 2, 3]));
        assert_eq!(Digests::parse(&digests.render()), Ok(digests.clone()));
        assert_eq!(digests.get(2, "chip16_open/token@half"), None);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Loads::parse("chip16 token 0.1").is_err());
        assert!(Loads::parse("chip16 nope 0.2 0.1").is_err());
        assert!(Loads::parse("chip16 token 0.2 0").is_err());
        assert!(Digests::parse("1 entry zz").is_err());
    }

    #[test]
    fn digest_depends_on_every_field_and_its_position() {
        let base = digest(&[10, 20, 30]);
        assert_eq!(base, digest(&[10, 20, 30]));
        assert_ne!(base, digest(&[10, 20, 31]));
        assert_ne!(base, digest(&[20, 10, 30]));
    }
}
