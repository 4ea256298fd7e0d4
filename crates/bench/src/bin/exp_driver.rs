//! Parallel experiment driver: fans the experiment suite across cores
//! and (with `--json`) emits the `BENCH_disagg.json` record.
//!
//! Stdout carries only the deterministic experiment tables (in registry
//! order — byte-identical between serial and parallel runs, and across
//! repeated runs), each followed by its claims and their verdicts, and
//! the record is those tables and verdicts plus the raw numbers behind
//! them. Where a verdict is written down (`--markdown`, `--json`), the
//! suite also runs at the grid's seeds and each claim says in how many
//! of them it holds. A claim that does not hold at the record's seed is
//! named on stderr. Progress timing lives on stderr and nowhere else.
//!
//! Flags are parsed strictly — see [`USAGE`] (`--help`).

use std::io::Write;

use disagg_bench::{driver, Scenario, TraceOut};

const USAGE: &str = "\
usage: exp_driver [flags]
  --quick          shrink workloads (CI mode)
  --serial         run on one thread (reference path)
  --threads N      worker count (default: available parallelism)
  --only a,b       run only the listed experiment ids
  --markdown       print a claim scorecard and the tables as Markdown
                   (what EXPERIMENTS.md embeds) instead of aligned ASCII
  --json PATH      write the benchmark record to PATH (no record is
                   written without it)
                   (with --markdown or --json, the suite also runs at
                   seeds 1..=10, and each claim's scorecard row and
                   record entry say in how many of them it holds)
  --verify         fail (exit 1) if a claim does not hold, and
                   additionally run serially and fail if parallel
                   output is not byte-identical
  --trace-out DIR  write each run an experiment builds as the validated
                   Perfetto trace, folded stacks, critical paths and
                   metrics DIR/<exp>.<label>.{trace.json, folded.txt,
                   critical.txt, metrics.json}; a serving run's trace
                   has one request lane per tenant, and its exemplar
                   view is <exp>.<label>.exemplars.trace.json
  --help           print this and exit
";

#[derive(Default)]
struct Opts {
    scenario: Scenario,
    serial: bool,
    threads: Option<usize>,
    only: Vec<String>,
    markdown: bool,
    json: Option<String>,
    verify: bool,
    trace_out: Option<String>,
}

/// Strict flag parsing: an unknown flag, a missing value, or an
/// unparsable value is an error, never silently ignored. `Ok(None)` is
/// a request for the usage text.
fn parse(args: &[String]) -> Result<Option<Opts>, String> {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => o.scenario.quick = true,
            "--serial" => o.serial = true,
            "--markdown" => o.markdown = true,
            "--verify" => o.verify = true,
            "--help" => return Ok(None),
            "--threads" => {
                let v = value()?;
                o.threads = Some(
                    v.parse()
                        .map_err(|_| format!("--threads: not a count: {v}"))?,
                );
            }
            "--only" => {
                o.only = value()?.split(',').map(|s| s.trim().to_string()).collect();
                let known = disagg_bench::exp::all();
                if let Some(id) = o.only.iter().find(|o| !known.iter().any(|(id, _)| id == o)) {
                    return Err(format!("--only: no such experiment: {id}"));
                }
            }
            "--json" => o.json = Some(value()?),
            "--trace-out" => o.trace_out = Some(value()?),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(Some(o))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Some(o)) => o,
        Ok(None) => {
            print!("{USAGE}");
            return;
        }
        Err(e) => {
            eprint!("exp_driver: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Opts {
        mut scenario,
        serial,
        threads,
        only,
        markdown,
        json,
        verify,
        trace_out,
    } = opts;
    let threads = if serial {
        1
    } else {
        threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    };

    if let Some(dir) = &trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {dir}: {e}");
            std::process::exit(1);
        }
        scenario.trace_out = Some(TraceOut::new(dir));
    }
    let tables = driver::run_experiments(&only, &scenario, threads);
    let grid = if markdown || json.is_some() {
        driver::seed_grid(&only, &scenario, threads)
    } else {
        Vec::new()
    };
    if markdown {
        print!("{}", driver::markdown(&tables, &grid));
    } else {
        for t in &tables {
            println!("{}", t.render());
        }
    }

    let failed = driver::failed_claims(&tables);
    for f in &failed {
        eprintln!("claim {f}");
    }
    if verify {
        if !failed.is_empty() {
            eprintln!("VERIFY FAILED: {} claim(s) do not hold", failed.len());
            std::process::exit(1);
        }
        let render = |ts: &[disagg_bench::Table]| ts.iter().map(|t| t.render()).collect::<String>();
        let serial = Scenario { trace_out: None, ..scenario.clone() };
        if render(&tables) != render(&driver::run_experiments(&only, &serial, 1)) {
            eprintln!("VERIFY FAILED: parallel output differs from serial run");
            std::process::exit(1);
        }
        eprintln!("verify: parallel output byte-identical to serial");
    }

    if let Some(json_path) = json {
        let json = driver::bench_json(&tables, &grid, &scenario);
        match std::fs::File::create(&json_path).and_then(|mut f| f.write_all(json.as_bytes())) {
            Ok(()) => eprintln!("wrote {json_path}"),
            Err(e) => {
                eprintln!("failed to write {json_path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
