//! Parallel experiment driver.
//!
//! Virtual time is single-threaded by design — one event loop per
//! [`Runtime`](disagg_core::Runtime) keeps the simulation bit-for-bit deterministic. Sweeps
//! are not: the 15 experiments and intra-experiment config
//! sweeps are independent simulations, so the driver fans them across
//! cores with `std::thread::scope` (no external dependencies) and
//! merges results back in submission order. The merge is index-stable:
//! result `i` always lands in slot `i` no matter which worker finishes
//! first, so parallel output is byte-identical to a serial run.
//!
//! The driver also renders the machine-readable `BENCH_disagg.json`:
//! every table, every claim with its verdict — at the scenario's seed,
//! and across the [`seed_grid`] — plus the raw records behind two of
//! the tables, all virtual time, so the record is a pure function of
//! the source and a model change shows up as a diff. Host wall-clock is
//! `benchmark/`'s job; the only clock read here is the progress timer
//! on stderr.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use disagg_obs::json::escape;

use crate::{exp, Claim, Scenario, Table, Verdict};

/// The grid's seeds besides the record's: [`seed_grid`] re-runs the
/// suite at seeds `1..=SEEDS`.
pub const SEEDS: u64 = 10;

/// Order-preserving parallel map: runs `f` over `items` on up to
/// `threads` workers and returns results in input order. `threads <= 1`
/// degenerates to a serial loop (the byte-identical reference path).
pub fn sweep<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("claimed once");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// Runs the experiment suite — all of it, or the ids in `only` — at
/// `scenario` across `threads` workers, each experiment once; with
/// `scenario.trace_out` set, each writes the artifacts of every run it
/// builds ([`Scenario::observed`]). Tables
/// come back in registry order regardless of completion order; the
/// seconds each took go to stderr as progress (`id`, or `id@seed` off
/// the record's seed 0) and nowhere else.
pub fn run_experiments(only: &[String], scenario: &Scenario, threads: usize) -> Vec<Table> {
    let suite: Vec<exp::Experiment> = exp::all()
        .into_iter()
        .filter(|(id, _)| only.is_empty() || only.iter().any(|o| o == id))
        .collect();
    sweep(suite, threads, |(id, runner)| {
        let t = Instant::now();
        let table = runner(&scenario.of_experiment(id));
        let label = match scenario.seed {
            0 => id.to_string(),
            seed => format!("{id}@{seed}"),
        };
        eprintln!("{label:<12} {:>8.3}s", t.elapsed().as_secs_f64());
        table
    })
}

/// The suite at `scenario`'s size and each seed `1..=`[`SEEDS`], as
/// `(seed, tables)` in seed order. The grid writes no artifacts.
pub fn seed_grid(only: &[String], scenario: &Scenario, threads: usize) -> Vec<(u64, Vec<Table>)> {
    (1..=SEEDS)
        .map(|seed| {
            let at = Scenario { quick: scenario.quick, seed, trace_out: None };
            (seed, run_experiments(only, &at, threads))
        })
        .collect()
}

/// Every claim that does not hold, as `experiment.id FAILS (margin …):
/// text [shape]` — what `exp_driver` prints on stderr and `--verify`
/// exits 1 on.
pub fn failed_claims(tables: &[Table]) -> Vec<String> {
    verdicts(tables)
        .filter(|(_, _, v)| !v.holds)
        .map(|(t, c, _)| format!("{}.{}", t.id, c.describe(t)))
        .collect()
}

/// Every claim of every table with its verdict, in registry order.
fn verdicts(tables: &[Table]) -> impl Iterator<Item = (&Table, &Claim, Verdict)> {
    tables.iter().flat_map(|t| t.claims.iter().map(move |c| (t, c, c.evaluate(t))))
}

/// How one claim fares across a seed grid.
struct Spread {
    /// Grid seeds the claim holds at.
    held: usize,
    /// Grid seeds.
    seeds: usize,
    /// The worst verdict — a failure before a pass, then the smaller
    /// margin — and its seed, the lowest on ties; `None` on an empty
    /// grid.
    worst: Option<(u64, Verdict)>,
    /// The claim's table renders byte-identically at every grid seed:
    /// the seed moves nothing the claim reads, so its `k/n` would count
    /// one run `n` times.
    invariant: bool,
}

impl Spread {
    /// `claim` of `table` at every seed of `grid`. A seed whose suite
    /// lacks the claim counts as a failure without a margin.
    fn of(grid: &[(u64, Vec<Table>)], table: &Table, claim: &Claim) -> Spread {
        let at: Vec<(u64, Verdict)> = grid
            .iter()
            .map(|(seed, tables)| {
                let found = verdicts(tables).find(|(t, c, _)| t.id == table.id && c.id == claim.id);
                (*seed, found.map_or(Verdict { holds: false, margin: None }, |(_, _, v)| v))
            })
            .collect();
        // A missing margin ranks below every failure and above every pass.
        let rank = |v: &Verdict| {
            (v.holds, v.margin.unwrap_or(if v.holds { f64::INFINITY } else { f64::NEG_INFINITY }))
        };
        let rendered = table.render();
        let invariant = !grid.is_empty()
            && grid.iter().all(|(_, tables)| {
                tables.iter().any(|t| t.id == table.id && t.render() == rendered)
            });
        Spread {
            invariant,
            held: at.iter().filter(|(_, v)| v.holds).count(),
            seeds: at.len(),
            worst: at.into_iter().min_by(|(_, a), (_, b)| {
                let (a, b) = (rank(a), rank(b));
                a.0.cmp(&b.0).then(a.1.total_cmp(&b.1))
            }),
        }
    }

    /// `k/n`, or `seed-invariant`: the record's `holds_in`.
    fn holds_in(&self) -> String {
        if self.invariant {
            "seed-invariant".to_string()
        } else {
            format!("{}/{}", self.held, self.seeds)
        }
    }
}

/// The form EXPERIMENTS.md embeds: a scorecard with one row per claim —
/// its verdict at the tables' seed, and in how many of `grid`'s seeds it
/// holds with the worst of them, or `seed-invariant` where its table
/// reads the same at every seed — then every table, both in registry
/// order.
pub fn markdown(tables: &[Table], grid: &[(u64, Vec<Table>)]) -> String {
    let mut out = String::from(
        "| Experiment | Claim | Shape | Holds | Margin | Seeds |\n|---|---|---|---|---|---|\n",
    );
    for (t, c, v) in verdicts(tables) {
        let spread = Spread::of(grid, t, c);
        let seeds = match spread.worst {
            _ if spread.invariant => spread.holds_in(),
            Some((seed, Verdict { margin: Some(m), .. })) => {
                format!("{}, min {m:.4} at seed {seed}", spread.holds_in())
            }
            Some((seed, Verdict { holds: false, .. })) => {
                format!("{}, fails at seed {seed}", spread.holds_in())
            }
            _ => spread.holds_in(),
        };
        out.push_str(&format!(
            "| `{}` | `{}`: {} | {} | {} | {} | {seeds} |\n",
            t.id,
            c.id,
            c.text,
            c.shape,
            if v.holds { "yes" } else { "NO" },
            v.margin.map_or("—".to_string(), |m| format!("{m:.4}")),
        ));
    }
    for t in tables {
        out.push('\n');
        out.push_str(&t.render_markdown());
    }
    out
}

/// Renders the machine-readable benchmark record (`BENCH_disagg.json`)
/// of `tables`, run at `scenario`: every table, every claim with its
/// verdict and how it fares across `grid` (`holds_in` seeds of the
/// grid's, or `seed-invariant`, and the worst verdict's `min_margin`
/// and `min_seed`), then the raw-record fragments the tables carry.
/// Hand-rolled JSON keeps the workspace dependency-free.
pub fn bench_json(tables: &[Table], grid: &[(u64, Vec<Table>)], scenario: &Scenario) -> String {
    let number = |m: Option<f64>| m.map_or("null".to_string(), |m| format!("{m:.4}"));
    let experiments: Vec<String> = tables.iter().map(|t| format!("    {}", t.to_json())).collect();
    let claims: Vec<String> = verdicts(tables)
        .map(|(t, c, v)| {
            let spread = Spread::of(grid, t, c);
            format!(
                "    {{\"experiment\": \"{}\", \"id\": \"{}\", \"text\": \"{}\",\n     \
                 \"shape\": \"{}\", \"holds\": {}, \"margin\": {},\n     \
                 \"holds_in\": \"{}\", \"min_margin\": {}, \"min_seed\": {}}}",
                t.id,
                c.id,
                escape(&c.text),
                escape(&c.shape.to_string()),
                v.holds,
                number(v.margin),
                spread.holds_in(),
                number(spread.worst.and_then(|(_, v)| v.margin)),
                spread.worst.map_or("null".to_string(), |(seed, _)| seed.to_string()),
            )
        })
        .collect();
    let mut members = vec![
        "\"schema\": \"disagg-bench-v3\"".to_string(),
        format!("\"quick\": {}", scenario.quick),
        format!("\"experiments\": [\n{}\n  ]", experiments.join(",\n")),
        format!("\"claims\": [\n{}\n  ]", claims.join(",\n")),
    ];
    members.extend(tables.iter().filter_map(|t| t.record.as_ref()).map(|f| f.members.clone()));
    format!("{{\n  {}\n}}\n", members.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fragment, Shape};

    #[test]
    fn sweep_preserves_input_order() {
        let items: Vec<usize> = (0..64).collect();
        let doubled = sweep(items.clone(), 8, |i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        let serial = sweep(items.clone(), 1, |i| i * 2);
        assert_eq!(doubled, serial);
    }

    #[test]
    fn bench_json_is_well_formed_enough() {
        let table = |id, record| {
            let mut t = Table::new(id, format!("Title of {id}"), &["Name", "Value"]);
            t.row(vec!["a".into(), "1".into()]);
            t.record = record;
            t
        };
        let frag = |members: &str| Some(Fragment { members: members.into() });
        let tables = vec![
            table("table1", None),
            table("chaos", frag("\"chaos\": [{\"slowdown\": 1.5000}]")),
            table("serving", frag("\"serving\": {\"tenants\": 2, \"rows\": []}")),
        ];
        let s = bench_json(&tables, &[], &Scenario { quick: true, ..Scenario::default() });
        let v = disagg_obs::json::parse(&s).expect("the record is valid JSON");
        assert_eq!(v.get("schema").and_then(|v| v.as_str()), Some("disagg-bench-v3"));
        assert_eq!(v.get("quick"), Some(&disagg_obs::json::Value::Bool(true)));
        let exps = v.get("experiments").and_then(|v| v.as_arr()).expect("experiments");
        let ids: Vec<_> = exps.iter().map(|e| e.get("id").and_then(|v| v.as_str())).collect();
        assert_eq!(ids, [Some("table1"), Some("chaos"), Some("serving")]);
        assert_eq!(exps[0].get("rows").and_then(|v| v.as_arr()).map(<[_]>::len), Some(1));
        // Each fragment lands at the top level.
        let chaos = v.get("chaos").and_then(|v| v.as_arr()).expect("chaos section");
        assert_eq!(chaos[0].get("slowdown").and_then(|v| v.as_f64()), Some(1.5));
        let serving = v.get("serving").expect("serving section");
        assert_eq!(serving.get("tenants").and_then(|v| v.as_f64()), Some(2.0));
        assert!(serving.get("rows").and_then(|v| v.as_arr()).is_some());
        // A partial suite simply lacks the sections nobody measured.
        let partial = disagg_obs::json::parse(&bench_json(&tables[..1], &[], &Scenario::default())).unwrap();
        assert!(partial.get("chaos").is_none() && partial.get("serving").is_none());
    }

    /// `exp_driver --verify` exits 1 exactly when this list is not
    /// empty, so a hand-built failure stands in for a flag to force one.
    #[test]
    fn a_claim_that_does_not_hold_is_what_verify_reports() {
        use disagg_obs::json::{parse, Value};
        let mut t = Table::new("t", "Test", &["Name", "Value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.claim("a-is-one", "a reads 1", Shape::Cells(vec![["a", "Value", "1"]]), vec![]);
        assert!(failed_claims(std::slice::from_ref(&t)).is_empty());
        t.claim("big-enough", "the value reaches 2", Shape::AtLeast(2.0), vec![1.0]);
        let tables = [t];
        let failed = "big-enough FAILS (margin -0.5000): the value reaches 2 [every value >= 2]";
        assert_eq!(failed_claims(&tables), [format!("t.{failed}")]);
        // Every rendering carries the same verdict.
        assert!(tables[0].render().ends_with(&format!("claim: {failed}\n")));
        let row = "| `t` | `big-enough`: the value reaches 2 | every value >= 2 | NO | -0.5000 |";
        assert!(markdown(&tables, &[]).contains(row));
        let v = parse(&bench_json(&tables, &[], &Scenario::default())).expect("valid JSON");
        let claims = v.get("claims").and_then(Value::as_arr).expect("claims");
        assert_eq!(claims[0].get("holds"), Some(&Value::Bool(true)));
        assert_eq!(claims[0].get("margin"), Some(&Value::Null));
        assert_eq!(claims[1].get("experiment").and_then(Value::as_str), Some("t"));
        assert_eq!(claims[1].get("id").and_then(Value::as_str), Some("big-enough"));
        assert_eq!(claims[1].get("holds"), Some(&Value::Bool(false)));
        assert_eq!(claims[1].get("margin").and_then(Value::as_f64), Some(-0.5));
    }

    /// A claim's grid columns: in how many seeds it holds, and its worst
    /// verdict — a failure first, the smaller margin next, the lower
    /// seed on ties — with the seed that gave it.
    #[test]
    fn the_seed_columns_count_the_grid_and_name_its_worst_seed() {
        use disagg_obs::json::{parse, Value};
        let table = |value: Option<f64>| {
            let mut t = Table::new("t", "Test", &["Name", "Value"]);
            t.row(vec!["a".into(), "1".into()]);
            t.claim("a-is-one", "a reads 1", Shape::Cells(vec![["a", "Value", "1"]]), vec![]);
            if let Some(x) = value {
                t.claim("big-enough", "the value reaches 2", Shape::AtLeast(2.0), vec![x]);
            }
            t
        };
        let tables = [table(Some(4.0))];
        let grid: Vec<(u64, Vec<Table>)> =
            [3.0, 1.0, 8.0, 1.0].iter().zip(1..).map(|(&x, seed)| (seed, vec![table(Some(x))])).collect();
        let row = "| `t` | `big-enough`: the value reaches 2 | every value >= 2 | yes | 0.5000 | \
                   2/4, min -0.5000 at seed 2 |";
        assert!(markdown(&tables, &grid).contains(row), "{}", markdown(&tables, &grid));
        assert!(markdown(&tables, &grid).contains("| yes | — | 4/4 |"), "a cell claim has no margin");
        let v = parse(&bench_json(&tables, &grid, &Scenario::default())).expect("valid JSON");
        let claims = v.get("claims").and_then(Value::as_arr).expect("claims");
        let field = |i: usize, k: &str| claims[i].get(k).cloned();
        assert_eq!(field(0, "holds_in"), Some(Value::Str("4/4".into())));
        assert_eq!(field(0, "min_margin"), Some(Value::Null));
        assert_eq!(field(0, "min_seed").and_then(|v| v.as_f64()), Some(1.0));
        assert_eq!(field(1, "holds_in"), Some(Value::Str("2/4".into())));
        assert_eq!(field(1, "min_margin").and_then(|v| v.as_f64()), Some(-0.5));
        assert_eq!(field(1, "min_seed").and_then(|v| v.as_f64()), Some(2.0));
        // A seed whose suite lacks the claim is a failure with no margin,
        // worse than any failure that has one.
        let lacking = [(1, vec![table(Some(1.0))]), (5, vec![table(None)])];
        assert!(markdown(&tables, &lacking).contains("| 0.5000 | 0/2, fails at seed 5 |"));
        // A table that renders the same at every grid seed is
        // seed-invariant, not "k/n": the grid ran one thing n times.
        let same: Vec<(u64, Vec<Table>)> = (1..=3).map(|seed| (seed, vec![table(Some(4.0))])).collect();
        assert!(markdown(&tables, &same).contains("| yes | 0.5000 | seed-invariant |"));
        let v = parse(&bench_json(&tables, &same, &Scenario::default())).expect("valid JSON");
        let claims = v.get("claims").and_then(Value::as_arr).expect("claims");
        assert!(claims.iter().all(|c| c.get("holds_in") == Some(&Value::Str("seed-invariant".into()))));
        assert_eq!(claims[1].get("min_margin").and_then(|v| v.as_f64()), Some(0.5));
    }
}
