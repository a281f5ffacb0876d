//! Rendering of tables and figure data series, paper-style.
//!
//! The harness regenerates each paper artifact as a [`Table`] (Tables
//! I–III) or a [`Figure`] (multi-series x/y data matching each plot's
//! axes). Both render to aligned text for the terminal and to CSV for
//! plotting.

use std::fmt::Write as _;

/// A titled table of strings.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Title, e.g. "TABLE II — comparison test settings".
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row data (same arity as `columns`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Aligned text rendering.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let line = |out: &mut String| {
            let total: usize = widths.iter().sum::<usize>() + 3 * widths.len() + 1;
            let _ = writeln!(out, "{}", "-".repeat(total));
        };
        line(&mut out);
        let _ = write!(out, "|");
        for (w, c) in widths.iter().zip(&self.columns) {
            let _ = write!(out, " {c:<w$} |");
        }
        let _ = writeln!(out);
        line(&mut out);
        for row in &self.rows {
            let _ = write!(out, "|");
            for (w, cell) in widths.iter().zip(row) {
                let _ = write!(out, " {cell:<w$} |");
            }
            let _ = writeln!(out);
        }
        line(&mut out);
        out
    }

    /// GitHub-flavored markdown rendering: `# title`, then a pipe table
    /// with `| --- |` separators. Cells containing `|` are escaped.
    pub fn to_markdown(&self) -> String {
        let row = |cells: &[String]| {
            let cells: Vec<String> = cells.iter().map(|c| c.replace('|', "\\|")).collect();
            format!("| {} |\n", cells.join(" | "))
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "# {}\n", self.title);
        }
        out.push_str(&row(&self.columns));
        let _ = writeln!(out, "|{}", " --- |".repeat(self.columns.len()));
        for cells in &self.rows {
            out.push_str(&row(cells));
        }
        out
    }

    /// CSV rendering (headers + rows; minimal quoting).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// One named data series of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, e.g. "RTT" or "500".
    pub label: String,
    /// (x, y) points.
    pub points: Vec<(f64, f64)>,
}

/// A figure: multiple series over shared axes.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. "fig7".
    pub id: String,
    /// Caption.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Data series.
    pub series: Vec<Series>,
}

impl Figure {
    /// New empty figure.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn push_series(&mut self, label: impl Into<String>, points: Vec<(f64, f64)>) {
        self.series.push(Series {
            label: label.into(),
            points,
        });
    }

    /// Render as an aligned text block: one row per x, one column per
    /// series (the shape of the paper's plots).
    pub fn render(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("x values are finite"));
        xs.dedup();
        let mut table = Table::new(
            format!("{} — {} [y: {}]", self.id, self.title, self.y_label),
            &std::iter::once(self.x_label.as_str())
                .chain(self.series.iter().map(|s| s.label.as_str()))
                .collect::<Vec<_>>(),
        );
        for &x in &xs {
            let mut row = vec![trim_float(x)];
            for s in &self.series {
                let cell = s
                    .points
                    .iter()
                    .find(|p| p.0 == x)
                    .map(|p| trim_float(p.1))
                    .unwrap_or_default();
                row.push(cell);
            }
            table.push_row(row);
        }
        table.render()
    }

    /// CSV with `x,label,y` long format (easy to plot).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("x,series,y\n");
        for s in &self.series {
            for (x, y) in &s.points {
                let _ = writeln!(out, "{},{},{}", trim_float(*x), s.label, trim_float(*y));
            }
        }
        out
    }
}

/// Render the graceful-degradation accounting of a fault campaign as a
/// per-cause table: one row per `(cause, count)` pair, zero-count rows
/// skipped so no-fault runs produce an empty table body.
pub fn degradation_table(title: impl Into<String>, rows: &[(&'static str, u64)]) -> Table {
    let mut table = Table::new(title, &["cause", "messages"]);
    for &(cause, count) in rows {
        if count > 0 {
            table.push_row(vec![cause.to_owned(), count.to_string()]);
        }
    }
    table
}

/// Format a float without trailing zero noise.
pub fn trim_float(v: f64) -> String {
    let mut s = String::new();
    push_trimmed(&mut s, v);
    s
}

/// Append `v` as [`trim_float`] formats it, into `out` itself.
pub(crate) fn push_trimmed(out: &mut String, v: f64) {
    use std::fmt::Write;
    if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let from = out.len();
        let _ = write!(out, "{v:.3}");
        let kept = out[from..]
            .trim_end_matches('0')
            .trim_end_matches('.')
            .len();
        out.truncate(from + kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("TABLE X", &["name", "value"]);
        t.push_row(vec!["alpha".into(), "1".into()]);
        t.push_row(vec!["b".into(), "10000".into()]);
        let r = t.render();
        assert!(r.contains("TABLE X"));
        assert!(r.contains("| alpha | 1     |"));
        assert!(r.contains("| b     | 10000 |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn markdown_renders_pipe_table() {
        let mut t = Table::new("Attribution", &["site", "Δ ms"]);
        t.push_row(vec!["jms.match".into(), "+12.5".into()]);
        t.push_row(vec!["a|b".into(), "0".into()]);
        let md = t.to_markdown();
        assert_eq!(
            md,
            "# Attribution\n\n| site | Δ ms |\n| --- | --- |\n| jms.match | +12.5 |\n| a\\|b | 0 |\n"
        );
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("t", &["a,b", "c"]);
        t.push_row(vec!["x\"y".into(), "plain".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("\"a,b\",c\n"));
        assert!(csv.contains("\"x\"\"y\",plain"));
    }

    #[test]
    fn figure_renders_grid() {
        let mut f = Figure::new("fig7", "RTT vs connections", "connections", "ms");
        f.push_series("RTT", vec![(500.0, 5.1), (1000.0, 8.0)]);
        f.push_series("STDDEV", vec![(500.0, 2.0), (1000.0, 3.5)]);
        let r = f.render();
        assert!(r.contains("fig7"));
        assert!(r.contains("RTT"));
        assert!(r.contains("500"));
        assert!(r.contains("5.1"));
        let csv = f.to_csv();
        assert!(csv.contains("500,RTT,5.1"));
        assert!(csv.contains("1000,STDDEV,3.5"));
    }

    #[test]
    fn missing_points_render_empty() {
        let mut f = Figure::new("f", "t", "x", "y");
        f.push_series("a", vec![(1.0, 1.0)]);
        f.push_series("b", vec![(2.0, 2.0)]);
        let r = f.render();
        assert!(r.lines().count() >= 6);
    }

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(5.0), "5");
        assert_eq!(trim_float(5.125), "5.125");
        assert_eq!(trim_float(5.1000), "5.1");
        assert_eq!(trim_float(0.0006), "0.001");
    }
}
