//! The `disagg` benchmark: four workloads, two clocks (**sim** = virtual
//! time, repeats exactly; **host** = wall clock of the simulator), one
//! metric table per layer. See README.md.

mod compare;
mod procstat;
mod run;
mod spec;
mod stats;
mod tracer;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "\
usage:
  disagg-benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--smoke] [--out PATH]
      Runs workload W (default: all four, each in its own child process),
      prints one line per metric `workload metric value unit`, checks the
      outputs, and ends with one JSON object. --trace 0 (default) measures
      the end-to-end metrics with tracing off; --trace 1 is the traced run
      that produces the per-layer metrics. --seconds (default 20) is how
      long the timed passes of one workload run. --smoke runs 2 passes of
      small sizes. Nothing is written unless --out is given: then one JSON
      record per workload is appended to PATH, and a traced run writes its
      spans to trace-<workload>.json beside it. (--setup-only, used by the
      run itself to time set-up, sets the workload up and exits.)
  disagg-benchmark compare A.json B.json [--spec BENCHMARK.json]
      Compares two --out files (A = parent, B = change): host metrics by
      the bound and direction in the spec, sim metrics and digests exactly.
      Exits non-zero on any breach.
workloads: batch_dag serve_bulk serve_ctrl apps_chaos";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run::main(rest),
        Some((cmd, rest)) if cmd == "compare" => compare::main(rest),
        Some((cmd, _)) => Err(Failure::Usage(format!("unknown command '{cmd}'"))),
        None => Err(Failure::Usage("no command".into())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(why)) => {
            eprintln!("error: {why}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Failed(why)) => {
            eprintln!("error: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Why the command did not succeed.
pub enum Failure {
    /// The command line was wrong: print usage, exit 2.
    Usage(String),
    /// A run, a check or a comparison failed: exit 1.
    Failed(String),
}

impl From<String> for Failure {
    fn from(why: String) -> Failure {
        Failure::Failed(why)
    }
}

/// The value after flag `flag`, or a usage error.
pub fn flag_value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a str, Failure> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))
}
