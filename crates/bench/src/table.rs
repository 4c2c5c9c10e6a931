//! Aligned-table printing.

use serde_json::Value as Json;

/// A simple result table: add rows of cells, then render them aligned,
/// followed by an optional note.
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
    note: String,
}

impl Table {
    /// A table with the given title and column headers. A table without
    /// columns renders as its title and its note alone.
    pub fn new(title: &str, columns: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            note: String::new(),
        }
    }

    /// Append a row; values must match the column count. Floats print
    /// with one decimal, everything else as written.
    pub fn row(&mut self, values: &[Json]) {
        assert_eq!(values.len(), self.columns.len(), "row arity mismatch");
        let cells = values.iter().map(|v| match v {
            Json::Number(n) if n.is_f64() => format!("{:.1}", n.as_f64().unwrap()),
            Json::String(s) => s.clone(),
            other => other.to_string(),
        });
        self.rows.push(cells.collect());
    }

    /// Append `text` to what is printed after the rows: what the table
    /// shows, in words.
    pub fn note(&mut self, text: &str) {
        self.note.push_str(text);
    }

    /// The aligned table as a string (title, header, rows, a blank line,
    /// then the note) — the one formatter shared by the paper-claim tests
    /// and the `xdpc`/`xdpd` reports, which route it through their own
    /// broken-pipe-safe writers.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "== {} ==", self.title).unwrap();
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let lines = (!self.columns.is_empty()).then_some(&self.columns);
        for line in lines.into_iter().chain(&self.rows) {
            let cells: Vec<String> = line
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            writeln!(out, "{}", cells.join("  ")).unwrap();
        }
        out.push('\n');
        out.push_str(&self.note);
        out
    }

    /// Print the rendered table.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Shorthand JSON constructors for table cells.
pub mod j {
    use serde_json::Value as Json;

    pub fn s(v: &str) -> Json {
        Json::String(v.to_string())
    }
    pub fn i(v: impl Into<i64>) -> Json {
        Json::from(v.into())
    }
    pub fn u(v: u64) -> Json {
        Json::from(v)
    }
    pub fn f(v: f64) -> Json {
        Json::from(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_checked() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&[j::i(1), j::s("x")]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&[j::i(1)]);
    }

    #[test]
    fn render_aligns_columns_and_formats_numbers() {
        let mut t = Table::new("widths", &["name", "n", "time"]);
        t.row(&[j::s("a"), j::i(7), j::f(1.25)]);
        t.row(&[j::s("longer"), j::u(1234), j::f(10.0)]);
        let text = t.render();
        assert!(text.starts_with("== widths ==\n"), "{text}");
        // Every row is padded to the same width.
        let lines: Vec<&str> = text.lines().skip(1).filter(|l| !l.is_empty()).collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[1].len(), lines[0].len(), "{text}");
        assert_eq!(lines[2].len(), lines[0].len(), "{text}");
        // Floats print with one decimal, integers without.
        assert!(lines[1].contains("1.2"), "{text}");
        assert!(lines[2].contains("10.0"), "{text}");
        assert!(lines[2].contains("1234"), "{text}");
        // Right-aligned: the short name is padded on the left.
        assert!(lines[1].starts_with("     a"), "{text:?}");
        // Trailing blank line so tables can be concatenated.
        assert!(text.ends_with("\n\n"), "{text:?}");
    }

    #[test]
    fn a_note_follows_the_rows_and_a_table_without_columns_is_its_note() {
        let mut t = Table::new("t", &["k"]);
        t.row(&[j::i(1)]);
        t.note("reading\n");
        assert_eq!(t.render(), "== t ==\nk\n1\n\nreading\n");
        let mut bare = Table::new("bare", &[]);
        bare.note("text\n");
        assert_eq!(bare.render(), "== bare ==\n\ntext\n");
    }

    #[test]
    fn j_helpers_build_the_expected_json_types() {
        assert_eq!(j::s("x").as_str(), Some("x"));
        assert_eq!(j::i(-3).as_i64(), Some(-3));
        assert_eq!(j::u(3).as_u64(), Some(3));
        assert_eq!(j::f(0.5).as_f64(), Some(0.5));
    }
}
