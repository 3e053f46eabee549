//! Plain-text export of experiment results (CSV and aligned tables).
//!
//! The benchmark binaries print the same rows and series the paper reports;
//! this module provides the small formatting layer they share.

use serde::{Deserialize, Serialize};

/// A simple column-oriented table that can be rendered as CSV or as an
/// aligned text table.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CsvTable {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row must have one cell per header).
    pub rows: Vec<Vec<String>>,
}

impl CsvTable {
    /// Creates a table with the given headers.
    pub fn new(headers: &[&str]) -> Self {
        CsvTable {
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row, padding or truncating to the header width.
    pub fn push_row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&escape_row(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&escape_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as an aligned text table for terminal output.
    pub fn to_aligned(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let render = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = render(&self.headers);
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1))),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render(row));
            out.push('\n');
        }
        out
    }
}

fn escape_cell(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

fn escape_row(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| escape_cell(c))
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders `(x, y)` series as a two-column CSV string.
pub fn to_csv(header_x: &str, header_y: &str, series: &[(f64, f64)]) -> String {
    let mut table = CsvTable::new(&[header_x, header_y]);
    for (x, y) in series {
        table.push_row(vec![format!("{x}"), format!("{y}")]);
    }
    table.to_csv()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_shape() {
        let mut table = CsvTable::new(&["processors", "efficiency"]);
        table.push_row(vec!["1024".to_string(), "99.7".to_string()]);
        table.push_row(vec!["2048".to_string(), "99.5".to_string()]);
        let csv = table.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "processors,efficiency");
        assert_eq!(lines[1], "1024,99.7");
        assert_eq!(table.rows.len(), 2);
    }

    #[test]
    fn cells_with_commas_are_quoted() {
        let mut table = CsvTable::new(&["name", "value"]);
        table.push_row(vec!["a,b".to_string(), "say \"hi\"".to_string()]);
        let csv = table.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn rows_are_padded_to_header_width() {
        let mut table = CsvTable::new(&["a", "b", "c"]);
        table.push_row(vec!["1".to_string()]);
        assert_eq!(table.rows[0].len(), 3);
    }

    #[test]
    fn aligned_rendering_contains_all_cells() {
        let mut table = CsvTable::new(&["memory", "runtime"]);
        table.push_row(vec!["1".to_string(), "12.5".to_string()]);
        table.push_row(vec!["6".to_string(), "220.1".to_string()]);
        let text = table.to_aligned();
        assert!(text.contains("memory"));
        assert!(text.contains("220.1"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn series_export() {
        let csv = to_csv("x", "y", &[(1.0, 2.0), (3.0, 4.5)]);
        assert!(csv.starts_with("x,y\n"));
        assert!(csv.contains("3,4.5"));
    }
}
