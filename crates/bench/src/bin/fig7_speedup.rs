//! Regenerates **Figure 7: Speedup for Benchmarks and Synthetic Message
//! Patterns, Normalized to the Circuit-Switched Network** (paper §6.2).
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

    let mut header = vec!["Workload".to_string()];
    header.extend(NetworkKind::ALL.iter().map(|k| k.name().to_string()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);

    for w in &workloads {
        let baseline = find_run(&runs, w, NetworkKind::CircuitSwitched)
            .expect("circuit-switched baseline present");
        let mut row = vec![w.clone()];
        for kind in NetworkKind::ALL {
            let run = find_run(&runs, w, kind).expect("grid is complete");
            row.push(fmt(run.speedup_over(baseline), 2));
        }
        table.row_owned(row);
    }

    println!("Figure 7: Speedup vs. Circuit-Switched network\n");
    println!("{}", table.to_text());

    // Headline check: abstract claims p2p beats token ring ~3.3x and the
    // circuit-switched torus ~3.9x overall.
    let gmean = |a: NetworkKind, b: NetworkKind| -> f64 {
        let mut log_sum = 0.0;
        for w in &workloads {
            let x = find_run(&runs, w, a).expect("run");
            let y = find_run(&runs, w, b).expect("run");
            log_sum += x.speedup_over(y).ln();
        }
        (log_sum / workloads.len() as f64).exp()
    };
    println!(
        "geomean speedup P2P over Token Ring:        {:.2}x (paper: 3.3x)",
        gmean(NetworkKind::PointToPoint, NetworkKind::TokenRing)
    );
    println!(
        "geomean speedup P2P over Circuit-Switched:  {:.2}x (paper: 3.9x)",
        gmean(NetworkKind::PointToPoint, NetworkKind::CircuitSwitched)
    );

    let path = macrochip_bench::results_dir().join("fig7_speedup.csv");
    std::fs::write(&path, table.to_csv()).expect("write fig7 csv");
    println!("\nwrote {}", path.display());
}
