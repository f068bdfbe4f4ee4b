//! Plain-text, markdown and CSV table rendering for the CLI and the
//! paper artifacts of [`crate::figures`].

use std::fmt::Write as _;

/// A simple column-aligned table.
///
/// # Example
///
/// ```
/// use macrochip::report::Table;
///
/// let mut t = Table::new(&["Network", "Laser (W)"]);
/// t.row(&["Point-to-Point", "8.2"]);
/// let text = t.to_text();
/// assert!(text.contains("Point-to-Point"));
/// assert_eq!(t.to_csv().lines().count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if no headers are given.
    pub fn new(header: &[&str]) -> Table {
        assert!(!header.is_empty(), "a table needs at least one column");
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row(&mut self, cells: &[&str]) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of already-owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Table {
        assert_eq!(cells.len(), self.header.len(), "column count mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        w
    }

    /// Column-aligned plain text.
    pub fn to_text(&self) -> String {
        let w = self.widths();
        let mut out = String::new();
        let fmt_row = |cells: &[String], w: &[usize]| -> String {
            cells
                .iter()
                .zip(w)
                .map(|(c, &w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header, &w));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(w.iter().sum::<usize>() + 2 * (w.len() - 1))
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &w));
        }
        out
    }

    /// GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "| {} |", self.header.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.header
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }

    /// RFC-4180-ish CSV (quotes cells containing commas or quotes).
    pub fn to_csv(&self) -> String {
        let escape = |c: &String| -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.header.iter().map(escape).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(escape).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// Formats a float with `digits` decimal places (helper for binaries).
pub fn fmt(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

// Shared result-table renderers.
//
// Every CLI subcommand that prints campaign results builds its table
// here, so a cached, parallel or replayed run renders exactly like a
// serial one and the two can be compared with `cmp`.

/// The `sweep` result table (header only; fill with [`sweep_row`]).
pub fn sweep_table() -> Table {
    Table::new(&[
        "Network",
        "Load (%)",
        "Mean latency (ns)",
        "p99 (ns)",
        "Saturated",
    ])
}

/// One sweep result row.
pub fn sweep_row(table: &mut Table, kind: netcore::NetworkKind, p: &crate::sweep::LoadPoint) {
    table.row_owned(vec![
        kind.name().to_string(),
        fmt(p.offered * 100.0, 1),
        fmt(p.mean_latency_ns, 2),
        fmt(p.p99_latency_ns, 2),
        p.saturated.to_string(),
    ]);
}

/// The `faults` result table (header only; fill with [`fault_row`]).
pub fn fault_table() -> Table {
    Table::new(&[
        "Network",
        "Delivered",
        "Dropped",
        "Retries",
        "Availability",
        "Goodput (B/ns)",
        "Degraded (us)",
    ])
}

/// One fault-campaign result row.
pub fn fault_row(table: &mut Table, kind: netcore::NetworkKind, f: &crate::campaign::FaultSummary) {
    table.row_owned(vec![
        kind.name().to_string(),
        f.clean_delivered.to_string(),
        f.lost.to_string(),
        f.retries.to_string(),
        fmt(f.availability, 4),
        fmt(f.goodput_bytes_per_ns(), 2),
        fmt(f.degraded_ns / 1e3, 2),
    ]);
}

/// The `replay` result table (header only; fill with [`replay_row`]).
pub fn replay_table() -> Table {
    Table::new(&[
        "Network",
        "Delivered",
        "Delivery (%)",
        "Mean latency (ns)",
        "p99 (ns)",
        "Saturated",
    ])
}

/// One replay result row.
pub fn replay_row(
    table: &mut Table,
    kind: netcore::NetworkKind,
    r: &crate::replay_run::ReplaySummary,
) {
    table.row_owned(vec![
        kind.name().to_string(),
        r.delivered.to_string(),
        fmt(r.delivery_ratio() * 100.0, 1),
        fmt(r.mean_latency_ns, 2),
        fmt(r.p99_latency_ns, 2),
        r.saturated.to_string(),
    ]);
}

/// The `coherent` result table (header only; fill with [`coherent_row`]).
pub fn coherent_table() -> Table {
    Table::new(&["Network", "Makespan (us)", "Op latency (ns)", "EDP (nJ.s)"])
}

/// One coherent-workload result row.
pub fn coherent_row(
    table: &mut Table,
    model: &crate::energy::NetworkEnergyModel,
    run: &crate::experiment::CoherentRun,
) {
    table.row_owned(vec![
        run.network.name().to_string(),
        fmt(run.makespan.as_ns_f64() / 1e3, 2),
        fmt(run.mean_op_latency.as_ns_f64(), 1),
        format!("{:.3e}", model.edp(run) * 1e9),
    ]);
}

/// Renders an n×n grid of per-site values as an ASCII heatmap with a
/// min/max legend. Values are normalized across the grid; darker glyphs
/// mean larger values.
///
/// # Example
///
/// ```
/// use macrochip::report::heatmap;
/// let values: Vec<f64> = (0..64).map(|i| i as f64).collect();
/// let map = heatmap(8, &values);
/// assert_eq!(map.lines().count(), 9); // 8 rows + legend
/// ```
///
/// # Panics
///
/// Panics if `values.len() != side * side` or the grid is empty.
pub fn heatmap(side: usize, values: &[f64]) -> String {
    assert!(side > 0, "empty grid");
    assert_eq!(values.len(), side * side, "value count mismatch");
    const SHADES: &[u8] = b" .:-=+*#%@";
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    let mut out = String::new();
    for y in 0..side {
        for x in 0..side {
            let v = values[y * side + x];
            let idx = (((v - lo) / span) * (SHADES.len() - 1) as f64).round() as usize;
            let c = SHADES[idx.min(SHADES.len() - 1)] as char;
            out.push(c);
            out.push(c); // double width: terminal cells are ~2:1
        }
        out.push('\n');
    }
    let _ = writeln!(out, "[' '={lo:.1} .. '@'={hi:.1}]");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["1", "hello"]).row(&["22", "x"]);
        t
    }

    #[test]
    fn text_is_aligned() {
        let text = sample().to_text();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a "));
        assert!(lines[2].starts_with("1 "));
    }

    #[test]
    fn markdown_has_separator() {
        let md = sample().to_markdown();
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 22 | x |"));
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new(&["x"]);
        t.row(&["a,b"]).row(&["say \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn ragged_rows_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one"]);
    }

    #[test]
    fn heatmap_shape_and_extremes() {
        let mut v = vec![1.0; 16];
        v[0] = 0.0;
        v[15] = 10.0;
        let map = heatmap(4, &v);
        let lines: Vec<&str> = map.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("  "), "min renders as blank");
        assert!(lines[3].ends_with("@@"), "max renders as @");
        assert!(lines[4].contains("0.0") && lines[4].contains("10.0"));
    }

    #[test]
    fn heatmap_of_constant_values_does_not_panic() {
        let map = heatmap(2, &[3.0; 4]);
        assert_eq!(map.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "value count mismatch")]
    fn heatmap_checks_dimensions() {
        let _ = heatmap(3, &[0.0; 4]);
    }

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(2.71911, 2), "2.72");
        assert_eq!(fmt(10.0, 0), "10");
    }

    #[test]
    fn len_and_empty() {
        assert!(Table::new(&["a"]).is_empty());
        assert_eq!(sample().len(), 2);
    }
}
