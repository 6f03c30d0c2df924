//! Minimal aligned-text table rendering for experiment reports.

use std::fmt;

/// A titled table of string cells.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (figure id + description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells; ragged rows are padded when rendered.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Create an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>w$}  ", w = w));
            }
            writeln!(f, "{}", line.trim_end())
        };
        fmt_row(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum();
        writeln!(f, "{}", "-".repeat(total.saturating_sub(2)))?;
        for row in &self.rows {
            fmt_row(f, row)?;
        }
        Ok(())
    }
}

/// Format a float with 4 decimals (throughput in phits/node/cycle).
pub fn f4(x: f64) -> String {
    format!("{x:.4}")
}

/// Format a float with 1 decimal (latencies in cycles).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_text() {
        let mut t = Table::new("Fig X", &["mech", "load", "thr"]);
        t.push(vec!["OFAR".into(), "0.10".into(), f4(0.0999)]);
        t.push(vec!["PB".into(), "0.10".into(), f4(0.08)]);
        let s = t.to_string();
        assert!(s.contains("== Fig X =="));
        assert!(s.contains("OFAR"));
        assert!(s.contains("0.0999"));
        assert!(s.contains("0.0800"));
    }

    #[test]
    fn ragged_rows_are_padded() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push(vec!["1".into()]);
        let s = t.to_string();
        assert!(s.contains('1'));
    }

    #[test]
    fn float_helpers() {
        assert_eq!(f4(0.5), "0.5000");
        assert_eq!(f1(123.456), "123.5");
    }
}
