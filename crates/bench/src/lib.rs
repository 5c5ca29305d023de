//! Shared plumbing for the experiment-reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the index). This library holds the text-table
//! formatter and the JSON report dump they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::path::PathBuf;

/// A simple fixed-width text table.
///
/// # Examples
///
/// ```
/// use tensorlib_bench::TextTable;
/// let mut t = TextTable::new(vec!["dataflow", "cycles"]);
/// t.row(vec!["MNK-SST".into(), "1504".into()]);
/// let s = t.to_string();
/// assert!(s.contains("MNK-SST"));
/// assert!(s.contains("cycles"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the headers.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<w$}  ", h, w = widths[i]);
        }
        writeln!(f, "{}", line.trim_end())?;
        writeln!(f, "{}", "-".repeat(line.trim_end().len()))?;
        for row in &self.rows {
            let mut line = String::new();
            for (i, c) in row.iter().enumerate() {
                let _ = write!(line, "{:<w$}  ", c, w = widths[i]);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

/// Where experiment binaries drop machine-readable results
/// (`<workspace>/reports/`). Created on demand.
pub fn reports_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("reports");
    std::fs::create_dir_all(&dir).expect("reports directory is creatable");
    dir
}

/// Serializes `value` as pretty JSON into `reports/<name>.json` and returns
/// that path relative to the workspace root, the same on every checkout.
pub fn dump_json<T: serde::Serialize>(name: &str, value: &T) -> String {
    let file = format!("{name}.json");
    let json = serde_json::to_string_pretty(value).expect("report serializes");
    // Atomic (tmp + fsync + rename): a crash mid-dump never leaves a
    // truncated report where a previous run's good one stood.
    tensorlib_obs::atomic_write(reports_dir().join(&file), json.as_bytes())
        .expect("report file is writable");
    format!("reports/{file}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_aligns() {
        let mut t = TextTable::new(vec!["a", "long-header"]);
        t.row(vec!["xxxxxxxx".into(), "1".into()]);
        t.row(vec!["y".into(), "2".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a "));
        assert!(lines[1].starts_with("---"));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn ragged_row_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_dump_round_trips() {
        assert_eq!(
            dump_json("selftest", &vec![1, 2, 3]),
            "reports/selftest.json"
        );
        let path = reports_dir().join("selftest.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains('2'));
        std::fs::remove_file(path).ok();
    }
}
