//! Experiment modules, one per paper artifact. See the crate docs for
//! the mapping table.

pub mod asynk;
pub mod chaos;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod ftol;
pub mod ingredients;
pub mod naive;
pub mod numa;
pub mod serving;
pub mod table1;
pub mod table2;
pub mod stream;
pub mod tiering;

use crate::{Scenario, Table};

/// An experiment entry: id plus its runner.
pub type Experiment = (&'static str, fn(&Scenario) -> Table);

/// Every experiment as `(id, runner)`, in report order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("table1", table1::run as fn(&Scenario) -> Table),
        ("table2", table2::run),
        ("ingredients", ingredients::run),
        ("fig1", fig1::run),
        ("fig2", fig2::run),
        ("fig3", fig3::run),
        ("fig4", fig4::run),
        ("numa", numa::run),
        ("naive", naive::run),
        ("async", asynk::run),
        ("ftol", ftol::run),
        ("tiering", tiering::run),
        ("stream", stream::run),
        ("chaos", chaos::run),
        ("serving", serving::run),
    ]
}
