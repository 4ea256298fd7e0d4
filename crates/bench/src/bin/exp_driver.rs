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

use disagg_bench::{driver, Scenario};

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
  --trace-out DIR  re-run each experiment's representative workload
                   with a full observer and write Perfetto-loadable
                   Chrome traces, folded flamegraph stacks, and
                   critical-path reports under DIR (validated before
                   writing; exit 1 on an invalid trace); also writes a
                   traced serving pass as serving.trace.json (one
                   request-span lane per tenant) plus the exemplar-only
                   serving.exemplars.trace.json
  --metrics-out P  write the per-experiment metrics snapshots as one
                   JSON object to P
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
    metrics_out: Option<String>,
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
            "--metrics-out" => o.metrics_out = Some(value()?),
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
        scenario,
        serial,
        threads,
        only,
        markdown,
        json,
        verify,
        trace_out,
        metrics_out,
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
        if render(&tables) != render(&driver::run_experiments(&only, &scenario, 1)) {
            eprintln!("VERIFY FAILED: parallel output differs from serial run");
            std::process::exit(1);
        }
        eprintln!("verify: parallel output byte-identical to serial");
    }

    if trace_out.is_some() || metrics_out.is_some() {
        if let Some(dir) = &trace_out {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("failed to create {dir}: {e}");
                std::process::exit(1);
            }
        }
        let mut metrics_entries: Vec<(String, String)> = Vec::new();
        for t in &tables {
            let Some(outcome) = driver::observed_artifacts(t.id, &scenario) else {
                continue;
            };
            let art = match outcome {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            };
            if let Some(dir) = &trace_out {
                let write = |name: &str, body: &str| {
                    let path = format!("{dir}/{name}");
                    if let Err(e) = std::fs::write(&path, body) {
                        eprintln!("failed to write {path}: {e}");
                        std::process::exit(1);
                    }
                };
                write(&format!("{}.trace.json", art.id), &art.chrome_trace);
                write(&format!("{}.folded.txt", art.id), &art.folded);
                write(&format!("{}.critical.txt", art.id), &art.critical_paths);
                eprintln!("trace artifacts: {dir}/{}.{{trace.json,folded.txt,critical.txt}}", art.id);
            }
            metrics_entries.push((art.id.clone(), art.metrics_json.clone()));
        }
        // A traced serving pass rides along: the full device+tenant
        // trace plus the exemplar-only tail view, both validated.
        if let Some(dir) = &trace_out {
            match driver::serving_trace_artifacts(&scenario) {
                Ok((full, exemplars)) => {
                    for (name, body) in [
                        ("serving.trace.json", &full),
                        ("serving.exemplars.trace.json", &exemplars),
                    ] {
                        let path = format!("{dir}/{name}");
                        if let Err(e) = std::fs::write(&path, body) {
                            eprintln!("failed to write {path}: {e}");
                            std::process::exit(1);
                        }
                    }
                    eprintln!(
                        "trace artifacts: {dir}/serving.{{trace.json,exemplars.trace.json}}"
                    );
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &metrics_out {
            let body = format!(
                "{{\n{}\n}}\n",
                metrics_entries
                    .iter()
                    .map(|(id, m)| format!("  \"{id}\": {m}"))
                    .collect::<Vec<_>>()
                    .join(",\n")
            );
            match std::fs::File::create(path).and_then(|mut f| f.write_all(body.as_bytes())) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
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
