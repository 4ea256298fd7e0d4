//! Claims as data: what an experiment's numbers are supposed to show,
//! pushed next to the rows by the code that produced both, and checked
//! by the run that writes the record — at either size.

use std::fmt;

use crate::Table;

/// The shape a claim asserts. Numeric shapes read the claim's `values`;
/// [`Shape::Cells`] reads the table the claim sits on.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// Along the ladder, every value is at least `1 - slack` times the
    /// one before it.
    Ascending {
        /// Relative dip tolerated between neighbouring rungs.
        slack: f64,
    },
    /// Every value is at least this.
    AtLeast(f64),
    /// Every value is at most this.
    AtMost(f64),
    /// Every value lies in `[lo, hi]`.
    Within {
        /// Lower edge of the band.
        lo: f64,
        /// Upper edge of the band.
        hi: f64,
    },
    /// Named cells, `[row label, column, expected]`, read back through
    /// [`Table::cell`].
    Cells(Vec<[&'static str; 3]>),
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Ascending { slack } if *slack == 0.0 => write!(f, "ascending"),
            Shape::Ascending { slack } => write!(f, "ascending (slack {slack})"),
            Shape::AtLeast(min) => write!(f, "every value >= {min}"),
            Shape::AtMost(max) => write!(f, "every value <= {max}"),
            Shape::Within { lo, hi } => write!(f, "every value in [{lo}, {hi}]"),
            Shape::Cells(cells) => {
                let cells: Vec<String> =
                    cells.iter().map(|[row, col, want]| format!("{row}: {col} = {want}")).collect();
                write!(f, "cells {}", cells.join("; "))
            }
        }
    }
}

/// One thing an experiment's numbers are supposed to show.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Short id, unique within its experiment.
    pub id: &'static str,
    /// The claim in words.
    pub text: String,
    /// The shape asserted.
    pub shape: Shape,
    /// The typed values the shape is asserted on, in ladder order
    /// (empty for [`Shape::Cells`]).
    pub values: Vec<f64>,
}

/// Whether a claim holds, and by how much.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The shape is satisfied.
    pub holds: bool,
    /// Distance to the nearest violated edge relative to the larger of
    /// the two numbers compared: dimensionless, `>= 0` iff the claim
    /// holds, `0` on the boundary. `None` for cell claims and for a
    /// series with nothing to compare.
    pub margin: Option<f64>,
}

/// `(a - b)` relative to the larger magnitude; `0` when both are zero.
fn rel(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b) / scale
    }
}

impl Claim {
    /// Evaluates the claim; `table` is the one it was pushed onto. An
    /// empty series, a non-finite value and a missing cell never hold.
    pub fn evaluate(&self, table: &Table) -> Verdict {
        let v = &self.values;
        let margins: Vec<f64> = match &self.shape {
            Shape::Cells(cells) => {
                let holds = !cells.is_empty()
                    && cells.iter().all(|[row, col, want]| table.cell(row, col) == Some(*want));
                return Verdict { holds, margin: None };
            }
            Shape::Ascending { slack } => {
                v.windows(2).map(|w| rel(w[1], w[0] * (1.0 - slack))).collect()
            }
            Shape::AtLeast(min) => v.iter().map(|&x| rel(x, *min)).collect(),
            Shape::AtMost(max) => v.iter().map(|&x| rel(*max, x)).collect(),
            Shape::Within { lo, hi } => {
                v.iter().map(|&x| rel(x, *lo).min(rel(*hi, x))).collect()
            }
        };
        if margins.is_empty() || !v.iter().all(|x| x.is_finite()) {
            return Verdict { holds: false, margin: None };
        }
        let margin = margins.into_iter().fold(f64::INFINITY, f64::min);
        Verdict { holds: margin >= 0.0, margin: Some(margin) }
    }

    /// `id holds|FAILS (margin …): text [shape]` — the one line every
    /// rendering of a verdict on `table` shares.
    pub fn describe(&self, table: &Table) -> String {
        let v = self.evaluate(table);
        let word = if v.holds { "holds" } else { "FAILS" };
        let margin = v.margin.map_or(String::new(), |m| format!(" (margin {m:.4})"));
        format!("{} {word}{margin}: {} [{}]", self.id, self.text, self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(shape: Shape, values: &[f64]) -> Verdict {
        let mut t = Table::new("t", "Test", &["Name", "Value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.claim("c", "text", shape, values.to_vec());
        t.claims[0].evaluate(&t)
    }

    fn assert_margin(v: Verdict, holds: bool, margin: f64) {
        assert_eq!(v.holds, holds, "{v:?}");
        assert!((v.margin.expect("numeric margin") - margin).abs() < 1e-12, "{v:?} vs {margin}");
    }

    #[test]
    fn ascending_holds_touches_and_fails() {
        let strict = Shape::Ascending { slack: 0.0 };
        assert_margin(verdict(strict.clone(), &[1.0, 2.0, 4.0]), true, 0.5);
        assert_margin(verdict(strict.clone(), &[1.0, 1.0]), true, 0.0);
        assert_margin(verdict(strict, &[2.0, 1.0]), false, -0.5);
        // A 5% dip is exactly what 5% of slack allows; a 10% dip is not.
        let slack = Shape::Ascending { slack: 0.05 };
        assert_margin(verdict(slack.clone(), &[100.0, 95.0]), true, 0.0);
        assert!(!verdict(slack, &[100.0, 90.0]).holds);
    }

    #[test]
    fn thresholds_hold_touch_and_fail() {
        assert_margin(verdict(Shape::AtLeast(2.0), &[4.0, 8.0]), true, 0.5);
        assert_margin(verdict(Shape::AtLeast(2.0), &[2.0, 8.0]), true, 0.0);
        assert_margin(verdict(Shape::AtLeast(2.0), &[1.0, 8.0]), false, -0.5);
        assert_margin(verdict(Shape::AtMost(2.0), &[1.0, 0.5]), true, 0.5);
        assert_margin(verdict(Shape::AtMost(2.0), &[2.0]), true, 0.0);
        assert_margin(verdict(Shape::AtMost(2.0), &[4.0, 1.0]), false, -0.5);
        // A count that must be zero sits on the boundary when it is.
        assert_margin(verdict(Shape::AtMost(0.0), &[0.0]), true, 0.0);
        assert_margin(verdict(Shape::AtMost(0.0), &[3.0]), false, -1.0);
    }

    #[test]
    fn band_holds_touches_and_fails_on_either_edge() {
        let band = Shape::Within { lo: 1.0, hi: 4.0 };
        assert_margin(verdict(band.clone(), &[2.0]), true, 0.5);
        assert_margin(verdict(band.clone(), &[1.0, 2.0]), true, 0.0);
        assert_margin(verdict(band.clone(), &[4.0]), true, 0.0);
        assert_margin(verdict(band.clone(), &[0.5]), false, -0.5);
        assert_margin(verdict(band, &[8.0]), false, -0.5);
    }

    #[test]
    fn empty_and_non_finite_series_never_hold() {
        let none = Verdict { holds: false, margin: None };
        for shape in [
            Shape::Ascending { slack: 0.0 },
            Shape::AtLeast(0.0),
            Shape::AtMost(1.0),
            Shape::Within { lo: 0.0, hi: 1.0 },
        ] {
            assert_eq!(verdict(shape.clone(), &[]), none, "{shape}");
            assert_eq!(verdict(shape.clone(), &[0.5, f64::NAN]), none, "{shape}");
            assert_eq!(verdict(shape.clone(), &[f64::INFINITY, 0.5]), none, "{shape}");
        }
        // One rung is not a ladder.
        assert_eq!(verdict(Shape::Ascending { slack: 0.0 }, &[1.0]), none);
    }

    #[test]
    fn cell_claims_compare_strings_and_carry_no_margin() {
        let yes = Verdict { holds: true, margin: None };
        let no = Verdict { holds: false, margin: None };
        assert_eq!(verdict(Shape::Cells(vec![["a", "Value", "1"]]), &[]), yes);
        assert_eq!(verdict(Shape::Cells(vec![["a", "Value", "2"]]), &[]), no);
        assert_eq!(verdict(Shape::Cells(vec![["a", "Value", "1"], ["b", "Value", "1"]]), &[]), no);
        assert_eq!(verdict(Shape::Cells(vec![]), &[]), no);
    }
}
