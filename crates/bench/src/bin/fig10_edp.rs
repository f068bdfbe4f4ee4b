//! Regenerates **Figure 10: Energy-Delay Product, Normalized to the
//! Point-to-Point Network** (paper §6.3, log plot).
//!
//! The coherent grid behind it shards across `--jobs <N>` workers
//! (byte-identical output) and is kept in the campaign result cache;
//! `--no-cache` forces a resimulation.

use macrochip::prelude::*;
use macrochip::report::{fmt, Table};
use macrochip_bench::{coherent_grid, find_run, workload_order};

fn main() {
    let runs = coherent_grid();
    let workloads = workload_order(&runs);
    let model = NetworkEnergyModel::default();

    let mut header = vec!["Workload".to_string()];
    header.extend(NetworkKind::ALL.iter().map(|k| k.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    let mut arb_over_100x = 0;
    let mut app_count = 0;
    let apps = [
        "Radix",
        "Barnes",
        "Blackscholes",
        "Densities",
        "Forces",
        "Swaptions",
    ];

    for w in &workloads {
        let p2p = find_run(&runs, w, NetworkKind::PointToPoint).expect("grid complete");
        let p2p_edp = model.edp(p2p);
        let mut row = vec![w.clone()];
        for kind in NetworkKind::ALL {
            let run = find_run(&runs, w, kind).expect("grid complete");
            let rel = model.edp(run) / p2p_edp;
            if apps.contains(&w.as_str())
                && matches!(
                    kind,
                    NetworkKind::TokenRing | NetworkKind::CircuitSwitched | NetworkKind::TwoPhase
                )
            {
                app_count += 1;
                if rel > 100.0 {
                    arb_over_100x += 1;
                }
            }
            row.push(fmt(rel, 1));
        }
        table.row_owned(row);
    }

    println!("Figure 10: Energy-Delay Product normalized to Point-to-Point\n");
    println!("{}", table.to_text());
    println!(
        "arbitrated/circuit-switched EDP >100x p2p on {arb_over_100x}/{app_count} application \
         cells (paper: on all but one application benchmark)"
    );

    let path = macrochip_bench::results_dir().join("fig10_edp.csv");
    std::fs::write(&path, table.to_csv()).expect("write fig10 csv");
    println!("\nwrote {}", path.display());
}
