//! Parallel driver determinism: fanning the experiment suite across
//! worker threads must not change a single output byte relative to the
//! serial reference path, repeated runs must agree with themselves, and
//! the record rendered from them is a pure function of the source — and
//! of the scenario's seed, which moves exactly the experiments that draw
//! random streams.

use disagg_bench::{driver, exp, Scenario, Table};
use disagg_obs::json::{parse, Value};

const QUICK: Scenario = Scenario { quick: true, seed: 0 };

/// The experiments that draw random streams, in registry order: the
/// only ones whose tables move with the seed.
const SEEDED: [&str; 5] = ["ingredients", "fig1", "tiering", "chaos", "serving"];

fn ids(tables: &[Table]) -> Vec<&'static str> {
    tables.iter().map(|t| t.id).collect()
}

fn outputs(tables: &[Table]) -> Vec<String> {
    tables.iter().map(Table::render).collect()
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    let only: Vec<String> = vec!["table2".into(), "fig4".into()];
    let serial = driver::run_experiments(&only, &QUICK, 1);
    let parallel = driver::run_experiments(&only, &QUICK, 4);
    assert_eq!(ids(&serial), vec!["table2", "fig4"], "registry order preserved");
    assert_eq!(ids(&serial), ids(&parallel));
    assert_eq!(outputs(&serial), outputs(&parallel));
    assert!(serial.iter().all(|t| !t.rows.is_empty()));
}

#[test]
fn repeated_parallel_runs_agree() {
    let only: Vec<String> = vec!["table2".into(), "fig4".into()];
    let a = driver::run_experiments(&only, &QUICK, 4);
    let b = driver::run_experiments(&only, &QUICK, 4);
    assert_eq!(outputs(&a), outputs(&b));
}

#[test]
fn unknown_only_filter_yields_empty_suite() {
    let only: Vec<String> = vec!["no-such-exp".into()];
    assert!(driver::run_experiments(&only, &QUICK, 2).is_empty());
}

#[test]
fn quick_record_is_exact_complete_and_clock_free() {
    // The grid is `run_experiments` at other seeds, so one grid serves
    // both thread counts.
    let grid = driver::seed_grid(&[], &QUICK, 4);
    let record = |threads| {
        driver::bench_json(&driver::run_experiments(&[], &QUICK, threads), &grid, &QUICK)
    };
    let one = record(1);
    assert_eq!(one, record(4), "the record does not depend on the thread count");

    let doc = parse(&one).expect("the record is valid JSON");
    let exps = doc.get("experiments").and_then(Value::as_arr).expect("experiments");
    let listed: Vec<&str> = exps.iter().filter_map(|e| e.get("id")?.as_str()).collect();
    let registry: Vec<&str> = exp::all().iter().map(|(id, _)| *id).collect();
    assert_eq!(listed, registry, "every table, in registry order");
    for e in exps {
        let arity = e.get("headers").and_then(Value::as_arr).expect("headers").len();
        let rows = e.get("rows").and_then(Value::as_arr).expect("rows");
        assert!(!rows.is_empty(), "{:?} has no rows", e.get("id"));
        for r in rows {
            assert_eq!(r.as_arr().map(<[_]>::len), Some(arity), "{:?}: row arity", e.get("id"));
        }
    }
    // Every experiment states at least one claim, under ids unique
    // within it, and every claim holds at the quick sizes too. Beside
    // that verdict, each says in how many grid seeds it holds and which
    // seed gave its worst verdict, with that verdict's margin.
    let claims = doc.get("claims").and_then(Value::as_arr).expect("claims");
    let mut seen = std::collections::BTreeSet::new();
    for c in claims {
        let key = (c.get("experiment").and_then(Value::as_str), c.get("id").and_then(Value::as_str));
        assert!(key.0.is_some() && key.1.is_some(), "claim without experiment or id: {c:?}");
        assert!(seen.insert(key), "duplicate claim {key:?}");
        assert_eq!(c.get("holds"), Some(&Value::Bool(true)), "{key:?} does not hold: {c:?}");
        let holds_in = c.get("holds_in").and_then(Value::as_str).expect("holds_in");
        // A table the seed does not move says so instead of counting
        // one run ten times (it holds at every seed, as at seed 0);
        // every other claim reads k/n.
        let k: u64 = if SEEDED.contains(&key.0.expect("experiment")) {
            let (k, n) = holds_in.split_once('/').expect("holds_in reads k/n");
            assert_eq!(n, driver::SEEDS.to_string(), "{key:?}: {holds_in}");
            k.parse().expect("k is a count")
        } else {
            assert_eq!(holds_in, "seed-invariant", "{key:?}");
            driver::SEEDS
        };
        assert!(k <= driver::SEEDS, "{key:?}: {holds_in}");
        let min_seed = c.get("min_seed").and_then(Value::as_f64).expect("min_seed");
        assert!((1.0..=driver::SEEDS as f64).contains(&min_seed), "{key:?}: min_seed {min_seed}");
        let min_margin = c.get("min_margin").expect("min_margin");
        if c.get("margin") == Some(&Value::Null) {
            assert_eq!(min_margin, &Value::Null, "{key:?}: a cell claim has no margin anywhere");
        }
        if k == driver::SEEDS {
            assert!(min_margin.as_f64().is_none_or(|m| m >= 0.0), "{key:?} holds everywhere: {c:?}");
        } else {
            assert!(min_margin.as_f64().is_none_or(|m| m < 0.0), "{key:?} fails somewhere: {c:?}");
        }
    }
    for id in &registry {
        assert!(seen.iter().any(|(e, _)| e == &Some(*id)), "{id} states no claim");
    }
    let serving = doc.get("serving").expect("serving section");
    assert!(doc.get("chaos").and_then(Value::as_arr).is_some_and(|c| !c.is_empty()));
    assert!(serving.get("rows").and_then(Value::as_arr).is_some_and(|s| !s.is_empty()));
    for gone in ["wall_s", "throughput", "threads", "events_per_sec", "speedup_vs_seed"] {
        assert!(!one.contains(gone), "no host-clock field in the record: {gone}");
    }
}

/// One seed in: at seed 1 the five experiments that draw random streams
/// print other rows than at seed 0, and the ten that draw none print the
/// same. A stream that silently ignored the seed would leave its table
/// unmoved; one that leaked into a seedless experiment would move it.
#[test]
fn exactly_the_seeded_experiments_move_with_the_seed() {
    let at = |seed| driver::run_experiments(&[], &Scenario { seed, ..QUICK }, 2);
    let (zero, one) = (at(0), at(1));
    let moved: Vec<&str> =
        zero.iter().zip(&one).filter(|(a, b)| a.rows != b.rows).map(|(a, _)| a.id).collect();
    assert_eq!(moved, SEEDED);
    assert_eq!(ids(&zero), ids(&one));
}
