//! The one output shape: a table of already-formatted cells.
//!
//! An experiment returns [`Table`]s; [`emit`] renders each twice from the
//! same cells — `results/<csv>.csv`, and an aligned text table plus notes
//! on stdout — and keeps the stdout text as `results/<experiment>.txt`.
//! Both files are therefore pure functions of the tables, and
//! `scripts/check_results.sh` compares both with the committed ones.

use std::fmt::{Display, Write as _};
use std::fs;

pub struct Table {
    /// File stem under `results/`.
    pub csv: &'static str,
    pub title: String,
    /// The column names, comma-separated: the CSV header line, and split
    /// on commas, the stdout header.
    pub columns: &'static str,
    pub rows: Vec<Vec<String>>,
    /// Lines printed under the table; numbers here are not in the CSV.
    pub notes: Vec<String>,
}

/// One row of cells, each rendered with `Display`.
pub fn row(fields: &[&dyn Display]) -> Vec<String> {
    fields.iter().map(|f| f.to_string()).collect()
}

/// The CSV document: header, then one line per row.
fn csv(t: &Table) -> String {
    let mut out = format!("{}\n", t.columns);
    for r in &t.rows {
        assert_eq!(
            r.len(),
            t.columns.split(',').count(),
            "{}: row width",
            t.csv
        );
        out += &r.join(",");
        out.push('\n');
    }
    out
}

/// The stdout text: title, left-aligned columns, notes.
fn text(t: &Table) -> String {
    let header: Vec<String> = t.columns.split(',').map(String::from).collect();
    let mut width: Vec<usize> = header.iter().map(|c| c.chars().count()).collect();
    for r in &t.rows {
        for (w, cell) in width.iter_mut().zip(r) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = format!("=== {} ===\n", t.title);
    for cells in std::iter::once(&header).chain(&t.rows) {
        let mut line = String::new();
        for (cell, w) in cells.iter().zip(&width) {
            write!(line, "{cell:<w$}  ").expect("writing to a String");
        }
        out += line.trim_end();
        out.push('\n');
    }
    for note in &t.notes {
        out += note;
        out.push('\n');
    }
    out
}

/// Write every table's CSV, print the tables, and keep the printed text as
/// `results/<experiment>.txt`.
pub fn emit(experiment: &str, tables: &[Table]) {
    fs::create_dir_all("results").expect("create results dir");
    let mut out = String::new();
    for t in tables {
        fs::write(format!("results/{}.csv", t.csv), csv(t)).expect("write csv");
        if !out.is_empty() {
            out.push('\n');
        }
        out += &text(t);
    }
    print!("{out}");
    fs::write(format!("results/{experiment}.txt"), out).expect("write txt");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_table_two_renderings() {
        let t = Table {
            csv: "t",
            title: "demo".into(),
            columns: "a,long_b",
            rows: vec![row(&[&1, &"x"]), row(&[&12345, &""])],
            notes: vec!["note".into()],
        };
        assert_eq!(csv(&t), "a,long_b\n1,x\n12345,\n");
        assert_eq!(
            text(&t),
            "=== demo ===\na      long_b\n1      x\n12345\nnote\n"
        );
    }
}
