//! Board-level inter-chip photonics: inventory and power for a
//! multi-macrochip fabric's gateway-to-gateway links.
//!
//! An `M×M` board of macrochips carries one dedicated directed WDM link
//! from every chip's gateway to every other gateway — `k·(k−1)` links
//! for `k = M²` chips, the hierarchical bridge backbone extended one
//! level up. Each link runs the [`LinkBudget::inter_chip_board`] path,
//! whose loss grows with the board Manhattan distance between its two
//! gateways, so longer diagonals pay a larger laser power factor than
//! adjacent neighbors — the board-level analogue of the paper's Table 5
//! "power loss factor" column.
//!
//! This module intentionally models *only* the board level: on-chip
//! provisioning stays the per-chip
//! [`ComponentCounts`](crate::inventory::ComponentCounts) /
//! [`NetworkPower`](crate::power::NetworkPower) tables multiplied by the
//! chip count.

use crate::components::{transceiver_dynamic_energy, Component, EnergyCost};
use crate::link::LinkBudget;
use crate::units::Milliwatts;
use std::fmt;

/// The board-level parameters of a multi-chip fabric, as this crate
/// needs them (the simulator's `FabricConfig` lives a layer above and
/// flattens itself into this).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterChipSpec {
    /// Chips per board side (`M`).
    pub chips_per_side: usize,
    /// Wavelengths multiplexed on each directed link.
    pub lambdas_per_link: usize,
    /// Center-to-center chip spacing, in cm.
    pub chip_pitch_cm: f64,
}

impl InterChipSpec {
    /// Total chips on the board.
    pub fn chips(&self) -> usize {
        self.chips_per_side * self.chips_per_side
    }

    /// Directed gateway-to-gateway links (`k·(k−1)`).
    pub fn directed_links(&self) -> usize {
        let k = self.chips();
        k * (k - 1)
    }

    /// Board Manhattan distance between two chips, in chip pitches.
    fn chip_hops(&self, a: usize, b: usize) -> usize {
        let m = self.chips_per_side;
        (a % m).abs_diff(b % m) + (a / m).abs_diff(b / m)
    }

    /// Iterates every directed link's waveguide length in cm.
    fn link_lengths_cm(&self) -> impl Iterator<Item = f64> + '_ {
        let k = self.chips();
        (0..k).flat_map(move |a| {
            (0..k)
                .filter(move |&b| b != a)
                .map(move |b| self.chip_hops(a, b) as f64 * self.chip_pitch_cm)
        })
    }

    /// Component inventory of the board level.
    pub fn inventory(&self) -> InterChipInventory {
        let links = self.directed_links();
        let lambdas = self.lambdas_per_link;
        InterChipInventory {
            directed_links: links,
            lasers: links * lambdas,
            modulators: links * lambdas,
            receivers: links * lambdas,
            board_couplers: links * 2,
            waveguide_cm: self.link_lengths_cm().sum(),
        }
    }

    /// Laser, ring-tuning and per-byte dynamic power of the board level.
    ///
    /// Laser power is per-link: each directed link's budget (at its own
    /// waveguide length) is compared against the canonical on-chip
    /// 17 dB path, and its wavelengths' 1 mW lasers are scaled by the
    /// resulting excess-loss factor — the same accounting the on-chip
    /// Table 5 applies per network.
    pub fn power(&self) -> InterChipPower {
        let baseline = LinkBudget::unswitched_site_to_site();
        let lambdas = self.lambdas_per_link as f64;
        let mut laser = Milliwatts::new(0.0);
        let mut worst_factor: f64 = 1.0;
        for length in self.link_lengths_cm() {
            let factor = LinkBudget::inter_chip_board(length).power_factor_over(&baseline);
            worst_factor = worst_factor.max(factor);
            laser += Milliwatts::new(1.0) * (lambdas * factor);
        }
        // Ring heaters: the modulator and drop rings of every wavelength
        // at both ends of each link hold a standing tuning bias.
        let ring_mw = match Component::DropFilterDrop.props().energy {
            EnergyCost::Standing(mw) => mw,
            _ => Milliwatts::new(0.0),
        };
        let tuning = ring_mw * (self.directed_links() as f64 * lambdas * 2.0);
        InterChipPower {
            laser,
            tuning,
            worst_link_factor: worst_factor,
            dynamic_fj_per_byte: transceiver_dynamic_energy().value() * 8.0,
        }
    }
}

/// Board-level component counts (the fabric's addition to Table 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterChipInventory {
    /// Directed gateway-to-gateway links.
    pub directed_links: usize,
    /// Board-link CW lasers (one per wavelength per link).
    pub lasers: usize,
    /// Gateway modulators driving board links.
    pub modulators: usize,
    /// Gateway receivers terminating board links.
    pub receivers: usize,
    /// Chip-to-board attach couplers (two per link).
    pub board_couplers: usize,
    /// Total board waveguide length across all links, in cm.
    pub waveguide_cm: f64,
}

impl fmt::Display for InterChipInventory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} board links: {} lasers, {} modulators, {} receivers, \
             {} board couplers, {:.0} cm waveguide",
            self.directed_links,
            self.lasers,
            self.modulators,
            self.receivers,
            self.board_couplers,
            self.waveguide_cm
        )
    }
}

/// Board-level power terms (the fabric's addition to Table 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterChipPower {
    /// Total board-link laser power, loss factors applied per link.
    pub laser: Milliwatts,
    /// Standing ring-tuning power of the board transceiver rings.
    pub tuning: Milliwatts,
    /// The longest link's laser power factor over the canonical on-chip
    /// path.
    pub worst_link_factor: f64,
    /// Dynamic transceiver energy per byte crossing one board link, in
    /// femtojoules (one full O-E-O modulator+receiver pair).
    pub dynamic_fj_per_byte: f64,
}

impl InterChipPower {
    /// Laser plus tuning, the standing board-level power.
    pub fn static_total(&self) -> Milliwatts {
        self.laser + self.tuning
    }
}

impl fmt::Display for InterChipPower {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "laser {} + tuning {} = {} static (worst link factor {:.2}x, \
             {:.0} fJ/B dynamic)",
            self.laser,
            self.tuning,
            self.static_total(),
            self.worst_link_factor,
            self.dynamic_fj_per_byte
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_by_two() -> InterChipSpec {
        InterChipSpec {
            chips_per_side: 2,
            lambdas_per_link: 8,
            chip_pitch_cm: 25.0,
        }
    }

    #[test]
    fn two_by_two_inventory() {
        let inv = two_by_two().inventory();
        assert_eq!(inv.directed_links, 12);
        assert_eq!(inv.lasers, 96);
        assert_eq!(inv.modulators, 96);
        assert_eq!(inv.receivers, 96);
        assert_eq!(inv.board_couplers, 24);
        // 8 adjacent directed pairs at 25 cm + 4 diagonal at 50 cm.
        assert!((inv.waveguide_cm - 400.0).abs() < 1e-9);
    }

    #[test]
    fn power_scales_with_link_length() {
        let p = two_by_two().power();
        // Worst link is the 50 cm diagonal: 27 dB total, 10 dB over the
        // 17 dB baseline = 10x laser factor.
        assert!((p.worst_link_factor - 10.0).abs() < 0.1, "{p}");
        // 8 near links at ~1.78x + 4 far at ~10x, 8 mW of lasers each.
        let expected = 8.0 * (8.0 * 1.778) + 4.0 * (8.0 * 10.0);
        assert!(
            (p.laser.value() - expected).abs() < 2.0,
            "laser {} vs {expected}",
            p.laser
        );
        // 12 links × 8 λ × 2 rings × 0.1 mW.
        assert!((p.tuning.value() - 19.2).abs() < 1e-9);
        assert!(p.static_total().value() > p.laser.value());
    }

    #[test]
    fn dynamic_energy_is_one_transceiver_pair() {
        // 100 fJ/bit × 8 = 800 fJ/B per board crossing.
        let p = two_by_two().power();
        assert!((p.dynamic_fj_per_byte - 800.0).abs() < 1e-9);
    }

    #[test]
    fn single_chip_board_has_no_links() {
        let spec = InterChipSpec {
            chips_per_side: 1,
            lambdas_per_link: 8,
            chip_pitch_cm: 25.0,
        };
        assert_eq!(spec.directed_links(), 0);
        assert_eq!(spec.inventory().lasers, 0);
        assert_eq!(spec.power().static_total().value(), 0.0);
    }
}
