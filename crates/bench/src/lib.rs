//! The paper's artifacts, regenerated: one experiment per table/figure
//! of the paper, plus one per quantitative claim in its text.
//!
//! Each experiment module exposes `run(&Scenario) -> Table`; the one
//! binary, `exp_driver`, prints them (`--only <id>` for one) and writes
//! them all into `BENCH_disagg.json`. Everything here is virtual time:
//! the record is a pure function of the source, and host wall-clock is
//! measured by `benchmark/` alone. A [`Scenario`] is the experiments'
//! one input: `quick` shrinks workloads for CI/tests, and every random
//! stream an experiment draws forks from its `seed`
//! ([`Scenario::stream`]).
//!
//! What the numbers are supposed to show — who wins, by roughly what
//! factor, where a crossover falls — is data too: the code that fills a
//! table's rows pushes [`Claim`]s onto it from the same typed values,
//! and the run evaluates them ([`driver::failed_claims`]). They hold in
//! both modes at the default seed, and that is enforced: `exp_driver
//! --verify` exits 1 on one that does not, `scripts/bench_guard.sh` runs
//! it on the full-size numbers it then compares with
//! `BENCH_disagg.json`, and `tests/driver.rs` checks every claim of the
//! `--quick` suite. How many of the seeds `1..=`[`driver::SEEDS`] each
//! claim also holds at is recorded beside it, not enforced.
//!
//! | Experiment | Paper artifact | `--only` |
//! |---|---|---|
//! | [`exp::table1`] | Table 1 (device properties) | `table1` |
//! | [`exp::table2`] | Table 2 (region types → devices) | `table2` |
//! | [`exp::ingredients`] | Table 3 (application types) and §2: what memory-centric placement, topology-aware costs, HEFT and ownership transfer each buy, on the server and the rack (E3) | `ingredients` |
//! | [`exp::fig1`] | Figure 1 (compute- vs memory-centric) and the §1 utilization / cost claims (E11) | `fig1` |
//! | [`exp::fig2`] | Figure 2 (hospital dataflow) | `fig2` |
//! | [`exp::fig3`] | Figure 3 (per-device region mapping) | `fig3` |
//! | [`exp::fig4`] | Figure 4 (ownership transfer vs copy) | `fig4` |
//! | [`exp::numa`] | §1 "NUMA up to 3×" | `numa` |
//! | [`exp::naive`] | §1 "naïve placement up to 3×" | `naive` |
//! | [`exp::asynk`] | §2.2(3) sync/async crossover | `async` |
//! | [`exp::ftol`] | Challenge 8(3) replication vs erasure coding | `ftol` |
//! | [`exp::tiering`] | hotness-driven tiering (Challenges 1-3) | `tiering` |
//! | [`exp::stream`] | §2.1 batch vs streamed task chains | `stream` |
//! | [`exp::chaos`] | Challenge 8(3) makespan under injected faults | `chaos` |
//! | [`exp::serving`] | §2.1 open-loop multi-tenant serving, swept over mix, offered load and variant: the saturation knee, compute-centric vs declarative, and Challenge 8's fault-aware control plane under node crashes | `serving` |

mod apps;
mod claim;
pub mod driver;
pub mod exp;
mod scenario;

pub use claim::{Claim, Shape, Verdict};
pub use scenario::Scenario;

use disagg_hwsim::time::SimDuration;
use disagg_obs::json::escape;

/// The raw numbers behind an experiment's table, as the JSON object
/// members (`"key": value, ...`) it contributes to the top level of the
/// benchmark record. Each record-bearing experiment renders its own,
/// beside its record type; [`driver::bench_json`] only concatenates
/// them.
#[derive(Debug, Clone)]
pub(crate) struct Fragment {
    /// Comma-joined members, every field virtual-time-only.
    pub(crate) members: String,
}

/// A rendered experiment result: paper-style rows plus notes.
#[derive(Debug, Clone)]
pub struct Table {
    /// Short id ("table1", "fig4", ...).
    pub id: &'static str,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (setup, observations).
    pub notes: Vec<String>,
    /// What the rows are supposed to show, checked by [`Claim::evaluate`].
    pub claims: Vec<Claim>,
    /// The record the rows were rendered from, for the experiments
    /// that publish one.
    pub(crate) record: Option<Fragment>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            id,
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
            record: None,
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a note.
    pub fn note(&mut self, n: impl Into<String>) {
        self.notes.push(n.into());
    }

    /// Appends a claim about the rows; `values` are the typed numbers
    /// the rows were rendered from (empty for [`Shape::Cells`]).
    pub fn claim(&mut self, id: &'static str, text: impl Into<String>, shape: Shape, values: Vec<f64>) {
        self.claims.push(Claim { id, text: text.into(), shape, values });
    }

    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} [{}] ==\n", self.title, self.id));
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        for c in &self.claims {
            out.push_str(&format!("claim: {}\n", c.describe(self)));
        }
        out
    }

    /// Renders as a Markdown table (for EXPERIMENTS.md).
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} (`{}`)\n\n", self.title, self.id));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            "---|".repeat(self.headers.len())
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        for c in &self.claims {
            out.push_str(&format!("\n> claim: {}\n", c.describe(self)));
        }
        out.push('\n');
        out
    }

    /// Renders as one JSON object, `{id, title, headers, rows, notes}`
    /// with every cell a string — the `experiments[i]` entry of the
    /// benchmark record.
    pub fn to_json(&self) -> String {
        let strs = |cells: &[String]| -> String {
            let quoted: Vec<String> = cells.iter().map(|c| format!("\"{}\"", escape(c))).collect();
            format!("[{}]", quoted.join(", "))
        };
        let rows: Vec<String> = self.rows.iter().map(|r| format!("\n      {}", strs(r))).collect();
        format!(
            "{{\"id\": \"{}\", \"title\": \"{}\",\n     \"headers\": {},\n     \"rows\": [{}],\n     \"notes\": {}}}",
            escape(self.id),
            escape(&self.title),
            strs(&self.headers),
            rows.join(","),
            strs(&self.notes),
        )
    }

    /// Finds a cell by row label and column header. The label is the
    /// first column, or as many leading columns as it takes to name the
    /// row, joined by `" / "` (`"Private Scratch / GPU"`).
    pub fn cell(&self, row_label: &str, column: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == column)?;
        self.rows
            .iter()
            .find(|r| (1..=r.len()).any(|k| r[..k].join(" / ") == row_label))
            .map(|r| r[col].as_str())
    }
}

/// Formats bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

/// Formats a duration for table cells.
pub fn fmt_dur(d: SimDuration) -> String {
    d.to_string()
}

/// Formats a ratio like "2.9x".
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}x")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_and_markdown() {
        let mut t = Table::new("t", "Test", &["Name", "Value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        t.note("a note");
        let ascii = t.render();
        assert!(ascii.contains("longer-name"));
        assert!(ascii.contains("note: a note"));
        let md = t.render_markdown();
        assert!(md.contains("| Name | Value |"));
        assert!(md.contains("| a | 1 |"));
    }

    #[test]
    fn table_json_round_trips_every_cell() {
        let mut t = Table::new("t", "Quote \"me\"", &["Name", "Value"]);
        t.row(vec!["a\\b".into(), "1 → 2".into()]);
        t.note("line\nbreak");
        let v = disagg_obs::json::parse(&t.to_json()).expect("valid JSON");
        assert_eq!(v.get("id").and_then(|v| v.as_str()), Some("t"));
        assert_eq!(v.get("title").and_then(|v| v.as_str()), Some("Quote \"me\""));
        let cells = |v: &disagg_obs::json::Value| -> Vec<String> {
            v.as_arr().unwrap().iter().map(|c| c.as_str().unwrap().to_string()).collect()
        };
        assert_eq!(cells(v.get("headers").unwrap()), t.headers);
        let rows = v.get("rows").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(rows.iter().map(cells).collect::<Vec<_>>(), t.rows);
        assert_eq!(cells(v.get("notes").unwrap()), t.notes);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn wrong_arity_rows_panic() {
        let mut t = Table::new("t", "Test", &["A", "B"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn cell_lookup_works() {
        let mut t = Table::new("t", "Test", &["Name", "Value"]);
        t.row(vec!["a".into(), "1".into()]);
        assert_eq!(t.cell("a", "Value"), Some("1"));
        assert_eq!(t.cell("missing", "Value"), None);
        assert_eq!(t.cell("a", "Missing"), None);
    }

    #[test]
    fn byte_and_ratio_formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(3 << 30), "3.0 GiB");
        assert_eq!(fmt_ratio(2.9), "2.90x");
    }
}
