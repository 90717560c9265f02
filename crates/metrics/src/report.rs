//! Plain-text table and CSV rendering for benchmark reports.
//!
//! The benchmark binaries print the paper's tables/figure series as
//! aligned text tables and optionally write CSV files next to them, so
//! EXPERIMENTS.md can quote paper-vs-measured numbers directly.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::Duration;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity; extra cells are kept,
    /// missing cells rendered empty).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, row: &[String]| {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        };
        measure(&mut widths, &self.header);
        for row in &self.rows {
            measure(&mut widths, row);
        }
        let mut out = String::new();
        let write_row = |out: &mut String, row: &[String]| {
            for (i, width) in widths.iter().enumerate().take(cols) {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                let _ = write!(out, "{:<width$}  ", cell, width = width);
            }
            out.truncate(out.trim_end().len());
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Renders the table as CSV (naive quoting: commas in cells are
    /// replaced with semicolons — report cells never need full RFC 4180).
    pub fn to_csv(&self) -> String {
        let esc = |s: &str| s.replace(',', ";");
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            let joined: Vec<String> = cells.iter().map(|c| esc(c)).collect();
            out.push_str(&joined.join(","));
            out.push('\n');
        };
        line(&self.header, &mut out);
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Writes the CSV rendering to a file, creating parent directories.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

/// Formats a duration as adaptive human-readable text (µs/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let micros = d.as_micros();
    if micros < 1_000 {
        format!("{micros}us")
    } else if micros < 1_000_000 {
        format!("{:.2}ms", micros as f64 / 1_000.0)
    } else {
        format!("{:.2}s", micros as f64 / 1_000_000.0)
    }
}

/// Formats a monthly cost in dollars, paper style (`$1,343`).
pub fn fmt_cost(dollars: f64) -> String {
    let rounded = dollars.round() as i64;
    let s = rounded.abs().to_string();
    let mut grouped = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            grouped.push(',');
        }
        grouped.push(ch);
    }
    format!("${}{}", if rounded < 0 { "-" } else { "" }, grouped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["model", "p90"]);
        t.row(["gru4rec", "1.2ms"]);
        t.row(["sasrec", "900us"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("model"));
        assert!(lines[1].starts_with("---"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn csv_roundtrip_structure() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2,5"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2;5\n");
    }

    #[test]
    fn writes_csv_files() {
        let dir = std::env::temp_dir().join("etude_report_test");
        let path = dir.join("out.csv");
        let mut t = Table::new(["x"]);
        t.row(["1"]);
        t.write_csv(&path).unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "x\n1\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duration_formatting_is_adaptive() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500us");
        assert_eq!(fmt_duration(Duration::from_millis(42)), "42.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
    }

    #[test]
    fn cost_formatting_groups_thousands() {
        assert_eq!(fmt_cost(108.09), "$108");
        assert_eq!(fmt_cost(1343.0), "$1,343");
        assert_eq!(fmt_cost(6026.4), "$6,026");
        assert_eq!(fmt_cost(2008.8), "$2,009");
    }
}
