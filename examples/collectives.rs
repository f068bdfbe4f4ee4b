//! Message-passing collectives on the macrochip — the paper's §8 future
//! work. Shows that the verdict flips with the workload: cache-coherence
//! traffic crowns the point-to-point network, but bulk collectives reward
//! the wide-channel designs.
//!
//! ```sh
//! cargo run --release -p macrochip-examples --example collectives
//! ```

use macrochip::prelude::*;
use macrochip::runner::{drive, DriveLimits};
use netcore::PacketSource;
use workloads::{Collective, MessagePassingWorkload};

fn main() {
    let config = MacrochipConfig::scaled();

    for &bytes in &[64u32, 4096] {
        println!("== all-to-all personalized exchange, {bytes} B per transfer ==");
        for kind in [
            NetworkKind::PointToPoint,
            NetworkKind::LimitedPointToPoint,
            NetworkKind::TwoPhase,
            NetworkKind::TokenRing,
            NetworkKind::CircuitSwitched,
        ] {
            let mut net = networks::build(kind, config);
            let mut w = MessagePassingWorkload::new(
                &config.grid,
                Collective::AllToAllPersonalized,
                bytes,
                1,
            );
            let outcome = drive(net.as_mut(), &mut w, DriveLimits::closed_loop());
            assert!(!outcome.timed_out && w.is_exhausted());
            println!(
                "  {:<24} {:>9.2} us",
                kind.name(),
                w.finished_at().expect("finished").as_us_f64()
            );
        }
        println!();
    }

    println!(
        "At cache-line granularity the point-to-point network's zero overhead wins;\n\
         at 4 KB transfers its narrow 5 GB/s channels become the bottleneck and the\n\
         wider data paths take over — the trade-off the paper's §8 future work\n\
         anticipated for message-passing workloads."
    );
}
