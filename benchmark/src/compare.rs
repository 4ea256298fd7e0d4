//! `compare A.json B.json`: is B (the change) no worse than A (the
//! parent)? Host metrics may worsen by at most the bound `BENCHMARK.json`
//! fixes, in the direction it names; virtual-time metrics, counts and
//! digests of one seed must be identical — a host-only optimisation
//! leaves every simulated statistic where it was.

use std::collections::BTreeMap;

use disagg_obs::json::{parse, Value};

use crate::spec::is_exact;
use crate::{flag_value, Failure};

/// One `--out` record: a workload's run.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    digest: String,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, String)>,
}

/// What `BENCHMARK.json` says about one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bound {
    higher_is_better: bool,
    bound: f64,
}

pub fn main(args: &[String]) -> Result<(), Failure> {
    let mut files = Vec::new();
    let mut spec = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec = flag_value(a, &mut it)?.to_string(),
            f if f.starts_with("--") => {
                return Err(Failure::Usage(format!("unknown option '{f}'")))
            }
            f => files.push(f.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(Failure::Usage("compare takes exactly two files".into()));
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = parse_bounds(&read(&spec)?)?;
    let parent = parse_records(&read(a)?).map_err(|e| format!("{a}: {e}"))?;
    let change = parse_records(&read(b)?).map_err(|e| format!("{b}: {e}"))?;
    let (rows, breaches) = compare(&parent, &change, &bounds)?;
    for r in &rows {
        println!("{r}");
    }
    if breaches == 0 {
        println!("compare: ok, {} rows", rows.len());
        Ok(())
    } else {
        Err(Failure::Failed(format!(
            "compare: {breaches} breaches in {} rows",
            rows.len()
        )))
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or(format!("no \"{key}\""))
}

fn parse_bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for m in field(&doc, "end_to_end")?
        .as_arr()
        .ok_or("end_to_end is not a list")?
    {
        let name = field(m, "name")?
            .as_str()
            .ok_or("metric name is not a string")?;
        let higher_is_better = match field(m, "better")?.as_str() {
            Some("higher") => true,
            Some("lower") => false,
            other => return Err(format!("{name}: better is {other:?}")),
        };
        let bound = field(m, "bound")?
            .as_f64()
            .ok_or(format!("{name}: bound is not a number"))?;
        out.insert(
            name.to_string(),
            Bound {
                higher_is_better,
                bound,
            },
        );
    }
    Ok(out)
}

/// Parses an `--out` file: one JSON record per line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |e: String| format!("line {}: {e}", i + 1);
        let v = parse(line).map_err(|e| at(e.to_string()))?;
        let mut metrics = BTreeMap::new();
        let Value::Obj(ms) = field(&v, "metrics").map_err(at)? else {
            return Err(at("metrics is not an object".into()));
        };
        for (name, m) in ms {
            let value = field(m, "value")
                .and_then(|x| x.as_f64().ok_or("value is not a number".into()))
                .map_err(at)?;
            let unit = field(m, "unit")
                .and_then(|x| x.as_str().ok_or("unit is not a string".into()))
                .map_err(at)?;
            metrics.insert(name.clone(), (value, unit.to_string()));
        }
        let num = |key: &str| {
            field(&v, key).and_then(|x| x.as_f64().ok_or(format!("{key} is not a number")))
        };
        let text = |key: &str| {
            field(&v, key).and_then(|x| x.as_str().ok_or(format!("{key} is not a string")))
        };
        out.push(Record {
            workload: text("workload").map_err(at)?.to_string(),
            seed: num("seed").map_err(at)? as u64,
            trace: num("trace").map_err(at)? != 0.0,
            digest: text("digest").map_err(at)?.to_string(),
            failed: num("failed").map_err(at)? as u64,
            metrics,
        });
    }
    if out.is_empty() {
        return Err("no records".into());
    }
    Ok(out)
}

/// One printed row per workload × metric, and the number of breaches.
fn compare(
    parent: &[Record],
    change: &[Record],
    bounds: &BTreeMap<String, Bound>,
) -> Result<(Vec<String>, usize), String> {
    let mut rows = Vec::new();
    let mut breaches = 0usize;
    let mut judge = |rows: &mut Vec<String>,
                     w: &str,
                     what: &str,
                     a: String,
                     b: String,
                     verdict: Result<String, String>| {
        let v = match verdict {
            Ok(v) => v,
            Err(v) => {
                breaches += 1;
                format!("BREACH {v}")
            }
        };
        rows.push(format!("{w} {what} {a} {b} {v}"));
    };
    for a in parent {
        let w = a.workload.as_str();
        let b = change
            .iter()
            .find(|b| b.workload == a.workload && b.trace == a.trace)
            .ok_or(format!(
                "{w} (trace {}) is missing from the second file",
                u8::from(a.trace)
            ))?;
        if a.seed != b.seed {
            return Err(format!(
                "{w}: seeds differ ({} vs {}); virtual time compares at one seed only",
                a.seed, b.seed
            ));
        }
        let same = |x: bool| {
            if x {
                Ok("same".to_string())
            } else {
                Err("must be identical".to_string())
            }
        };
        judge(
            &mut rows,
            w,
            "digest",
            a.digest.clone(),
            b.digest.clone(),
            same(a.digest == b.digest),
        );
        judge(
            &mut rows,
            w,
            "failed",
            a.failed.to_string(),
            b.failed.to_string(),
            if b.failed <= a.failed {
                Ok("ok".into())
            } else {
                Err("more operations failed".into())
            },
        );
        for (name, (va, unit)) in &a.metrics {
            let (vb, _) = b
                .metrics
                .get(name)
                .ok_or(format!("{w}: {name} is missing from the second file"))?;
            let verdict = if is_exact(name, unit) {
                same(va == vb)
            } else if let Some(bound) = bounds.get(name) {
                // Worsening as a share of the parent's value.
                let worse = if bound.higher_is_better {
                    (va - vb) / va
                } else {
                    (vb - va) / va
                };
                let shown = format!(
                    "{:+.1}% (may worsen {:.0}%)",
                    (vb - va) / va * 100.0,
                    bound.bound * 100.0
                );
                if worse <= bound.bound {
                    Ok(shown)
                } else {
                    Err(shown)
                }
            } else {
                Ok("unbounded".into())
            };
            judge(
                &mut rows,
                w,
                &format!("{name} [{unit}]"),
                va.to_string(),
                vb.to_string(),
                verdict,
            );
        }
    }
    Ok((rows, breaches))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"end_to_end": [
        {"name": "host_s_per_pass", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "sim_goodput_share", "unit": "share", "better": "higher", "bound": 0.05},
        {"name": "sim_makespan_ns", "unit": "ns", "better": "lower", "bound": 0.05}]}"#;

    fn record(host: f64, makespan: u64, digest: &str, failed: u64) -> String {
        format!(
            "{{\"workload\": \"batch_dag\", \"seed\": 1, \"trace\": 0, \"smoke\": false, \"pass_s\": [1.0, 1.5], \
             \"digest\": \"{digest}\", \"correct\": true, \"attempted\": 17, \"failed\": {failed}, \"metrics\": {{\
             \"host_s_per_pass\": {{\"value\": {host}, \"unit\": \"s\"}}, \
             \"sim_makespan_ns\": {{\"value\": {makespan}, \"unit\": \"ns\"}}}}}}\n"
        )
    }

    fn breaches(a: &str, b: &str) -> usize {
        let bounds = parse_bounds(SPEC).unwrap();
        compare(
            &parse_records(a).unwrap(),
            &parse_records(b).unwrap(),
            &bounds,
        )
        .unwrap()
        .1
    }

    #[test]
    fn host_metrics_get_their_bound_and_sim_metrics_none() {
        let a = record(1.0, 500, "0x1", 0);
        assert_eq!(breaches(&a, &a), 0);
        assert_eq!(
            breaches(&a, &record(1.09, 500, "0x1", 0)),
            0,
            "9% slower is inside a 10% bound"
        );
        assert_eq!(
            breaches(&a, &record(0.5, 500, "0x1", 0)),
            0,
            "faster is never a breach"
        );
        assert_eq!(breaches(&a, &record(1.11, 500, "0x1", 0)), 1);
        // Virtual time may not move at all, not even for the better.
        assert_eq!(breaches(&a, &record(1.0, 499, "0x1", 0)), 1);
        assert_eq!(breaches(&a, &record(1.0, 500, "0x2", 0)), 1);
        assert_eq!(
            breaches(&a, &record(1.0, 500, "0x1", 1)),
            1,
            "more failures is a breach"
        );
    }

    #[test]
    fn mismatched_files_are_errors_not_passes() {
        let bounds = parse_bounds(SPEC).unwrap();
        let a = parse_records(&record(1.0, 500, "0x1", 0)).unwrap();
        let mut other_seed = a.clone();
        other_seed[0].seed = 2;
        assert!(compare(&a, &other_seed, &bounds).is_err());
        let mut other_workload = a.clone();
        other_workload[0].workload = "serve_bulk".into();
        assert!(compare(&a, &other_workload, &bounds).is_err());
        assert!(parse_records("").is_err());
        assert!(parse_records("{\"workload\": 3}").is_err());
        assert!(parse_bounds(
            "{\"end_to_end\": [{\"name\": \"x\", \"better\": \"sideways\", \"bound\": 0.1}]}"
        )
        .is_err());
    }
}
