//! Report rendering: aligned ASCII tables, bar charts and box-plot rows.
//! Machine-readable results are the serde-serialized result types
//! themselves.

use crate::stats::Summary;
use std::fmt::Write as _;

/// An aligned plain-text table.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header count).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].chars().count());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let render_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", render_row(&self.headers));
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row));
        }
        out
    }
}

/// Renders a horizontal ASCII bar scaled to `max_value` over `width`
/// characters.
pub fn bar(value: f64, max_value: f64, width: usize) -> String {
    if max_value <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max_value) * width as f64).round() as usize;
    "█".repeat(n.clamp(if value > 0.0 { 1 } else { 0 }, width))
}

/// Renders a one-line box plot (min, Q1, median, Q3, max) on a fixed-width
/// axis from `axis_lo` to `axis_hi` — the textual cousin of the paper's
/// box-and-whisker figures.
pub fn box_plot_row(s: &Summary, axis_lo: f64, axis_hi: f64, width: usize) -> String {
    if s.n == 0 || axis_hi <= axis_lo {
        return " ".repeat(width);
    }
    let scale = |v: f64| -> usize {
        (((v - axis_lo) / (axis_hi - axis_lo)) * (width - 1) as f64)
            .round()
            .clamp(0.0, (width - 1) as f64) as usize
    };
    let mut chars: Vec<char> = vec![' '; width];
    let (min_i, q1_i, med_i, q3_i, max_i) = (
        scale(s.min),
        scale(s.q1),
        scale(s.median),
        scale(s.q3),
        scale(s.max),
    );
    for c in chars.iter_mut().take(q1_i).skip(min_i) {
        *c = '-';
    }
    for c in chars.iter_mut().take(max_i + 1).skip(q3_i) {
        *c = '-';
    }
    for c in chars.iter_mut().take(q3_i + 1).skip(q1_i) {
        *c = '█';
    }
    chars[med_i] = '│';
    chars[min_i] = '|';
    chars[max_i.min(width - 1)] = '|';
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["short", "1"]);
        t.row(vec!["a-much-longer-name", "23456"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        let w = lines[0].chars().count();
        for l in &lines {
            assert_eq!(l.chars().count(), w, "misaligned: {l:?}");
        }
        assert!(s.contains("a-much-longer-name"));
    }

    #[test]
    fn row_padding() {
        let mut t = Table::new(vec!["a", "b", "c"]);
        t.row(vec!["only-one"]);
        let s = t.render();
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("only-one"));
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10).chars().count(), 5);
        assert_eq!(bar(10.0, 10.0, 10).chars().count(), 10);
        assert_eq!(bar(0.0, 10.0, 10), "");
        // Tiny non-zero values still show one tick.
        assert_eq!(bar(0.01, 10.0, 10).chars().count(), 1);
    }

    #[test]
    fn box_plot_marks_quartiles() {
        let s = Summary::of(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0]);
        let row = box_plot_row(&s, 0.0, 10.0, 40);
        assert_eq!(row.chars().count(), 40);
        assert!(row.contains('│'), "median marker missing: {row:?}");
        assert!(row.contains('█'), "IQR box missing");
    }

    #[test]
    fn box_plot_empty_is_blank() {
        let s = Summary::of(&[]);
        assert_eq!(box_plot_row(&s, 0.0, 1.0, 10).trim(), "");
    }
}
