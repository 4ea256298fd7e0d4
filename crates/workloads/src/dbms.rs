//! DBMS workload: scan → hash aggregation → hash join.
//!
//! Table 3's database row: "operator state (hashtables, …)" lives in
//! **private scratch**, "synchronization (latches, …)" in **global
//! state**, and "(temp) indexes, caches" in **global scratch**. This
//! module builds a query pipeline that uses all three exactly that way,
//! on real bytes — the aggregate hash table is a linear-probing table
//! stored *inside* the scratch region, and the join reuses the aggregate's
//! published index from global scratch (the paper's "a hash join might
//! re-use a hash index created by an aggregation operator").

use disagg_core::prelude::*;
use disagg_hwsim::compute::WorkClass;

use crate::gen::{decode_tuples, encode_tuples, relation, Tuple, TUPLE_BYTES};
use crate::util::{read_counted_input, write_counted_output};

/// Parameters for the DBMS pipeline.
#[derive(Debug, Clone, Copy)]
pub struct DbmsConfig {
    /// Tuples in the scanned relation R.
    pub tuples: usize,
    /// Tuples in the probe relation S.
    pub probe_tuples: usize,
    /// Distinct keys.
    pub key_space: usize,
    /// Key skew.
    pub theta: f64,
    /// Filter predicate: keep tuples with `val < filter_below`.
    pub filter_below: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbmsConfig {
    fn default() -> Self {
        DbmsConfig {
            tuples: 20_000,
            probe_tuples: 10_000,
            key_space: 256,
            theta: 0.8,
            filter_below: 500,
            seed: 42,
        }
    }
}

/// Ground truth computed the boring way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbmsExpected {
    /// Tuples surviving the filter.
    pub filtered: usize,
    /// Distinct groups among survivors.
    pub groups: usize,
    /// Sum of all aggregated values.
    pub total_sum: u64,
    /// Probe tuples whose key appears in the aggregate.
    pub join_matches: u64,
}

/// Reference implementation of the whole query.
pub fn expected(cfg: &DbmsConfig) -> DbmsExpected {
    let r = relation(cfg.tuples, cfg.key_space, cfg.theta, cfg.seed);
    let filtered: Vec<Tuple> = r.into_iter().filter(|t| t.val < cfg.filter_below).collect();
    let mut sums = std::collections::BTreeMap::new();
    for t in &filtered {
        *sums.entry(t.key).or_insert(0u64) += t.val;
    }
    let s = relation(cfg.probe_tuples, cfg.key_space, cfg.theta, cfg.seed + 1);
    let join_matches = s.iter().filter(|t| sums.contains_key(&t.key)).count() as u64;
    DbmsExpected {
        filtered: filtered.len(),
        groups: sums.len(),
        total_sum: sums.values().sum(),
        join_matches,
    }
}

/// Hash-table geometry for the in-scratch aggregate table. Each slot is
/// 24 bytes: `key+1` (0 = empty), `sum`, `count`.
const SLOT_BYTES: u64 = 24;

fn table_slots(key_space: usize) -> u64 {
    (2 * key_space.max(1)).next_power_of_two() as u64
}

/// Bytes of private scratch the aggregate table needs.
fn agg_table_bytes(cfg: &DbmsConfig) -> u64 {
    table_slots(cfg.key_space) * SLOT_BYTES
}

fn slot_of(key: u64, slots: u64) -> u64 {
    // Fibonacci hashing; good spread for sequential keys.
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) & (slots - 1)
}

/// Builds the three-operator query job.
///
/// `scan-filter → hash-aggregate → hash-join`, with the aggregate
/// publishing its table into global scratch under `"agg-index"` and the
/// join reusing it. The join's final output (count-prefixed) contains the
/// little-endian `join_matches`, `groups`, and `total_sum`.
pub fn query_job(cfg: DbmsConfig) -> JobSpec {
    let mut job = JobBuilder::new("dbms-query").global_state(4096);

    let scan_out = (cfg.tuples * TUPLE_BYTES + 8) as u64;
    let scan = job.task(
        TaskSpec::new("scan-filter")
            .work(WorkClass::Scalar, cfg.tuples as u64)
            .output_bytes(scan_out)
            .body(move |ctx| {
                // "Latch": register the operator in global state.
                ctx.state_write(0, &1u64.to_le_bytes())?;
                let r = relation(cfg.tuples, cfg.key_space, cfg.theta, cfg.seed);
                ctx.compute(WorkClass::Scalar, cfg.tuples as u64);
                let filtered: Vec<Tuple> =
                    r.into_iter().filter(|t| t.val < cfg.filter_below).collect();
                write_counted_output(ctx, &encode_tuples(&filtered))
            }),
    );

    let agg_out = (cfg.key_space * TUPLE_BYTES + 8) as u64;
    let agg_scratch = agg_table_bytes(&cfg);
    let agg = job.task(
        TaskSpec::new("hash-aggregate")
            .work(WorkClass::Scalar, cfg.tuples as u64)
            .mem_latency(LatencyClass::Low)
            .private_scratch(agg_scratch)
            .global_scratch(agg_scratch + 8)
            .output_bytes(agg_out)
            .body(move |ctx| {
                ctx.state_write(8, &1u64.to_le_bytes())?;
                let input = read_counted_input(ctx)?;
                let tuples = decode_tuples(&input);
                let slots = table_slots(cfg.key_space);

                // Build the linear-probing table inside private scratch.
                for t in &tuples {
                    ctx.compute(WorkClass::Scalar, 1);
                    let mut slot = slot_of(t.key, slots);
                    loop {
                        let mut cur = [0u8; 24];
                        ctx.scratch_read(slot * SLOT_BYTES, &mut cur)?;
                        let tag = u64::from_le_bytes(cur[..8].try_into().expect("8"));
                        if tag == 0 || tag == t.key + 1 {
                            let sum = u64::from_le_bytes(cur[8..16].try_into().expect("8")) + t.val;
                            let cnt = u64::from_le_bytes(cur[16..24].try_into().expect("8")) + 1;
                            let mut new = [0u8; 24];
                            new[..8].copy_from_slice(&(t.key + 1).to_le_bytes());
                            new[8..16].copy_from_slice(&sum.to_le_bytes());
                            new[16..24].copy_from_slice(&cnt.to_le_bytes());
                            ctx.scratch_write(slot * SLOT_BYTES, &new)?;
                            break;
                        }
                        slot = (slot + 1) & (slots - 1);
                    }
                }

                // Publish the table into global scratch for reuse by the
                // join, then emit (key, sum) pairs as the operator output.
                let scratch = ctx.private_scratch()?;
                let mut table = vec![0u8; (slots * SLOT_BYTES) as usize];
                ctx.acc.read(
                    scratch,
                    0,
                    &mut table,
                    AccessPattern::Sequential,
                )?;
                let index = ctx.global_scratch()?;
                ctx.async_write(index, 0, &(slots).to_le_bytes())?;
                ctx.async_write(index, 8, &table)?;
                ctx.wait_async();
                ctx.publish("agg-index", index);

                let mut groups = Vec::new();
                for s in 0..slots {
                    let base = (s * SLOT_BYTES) as usize;
                    let tag = u64::from_le_bytes(table[base..base + 8].try_into().expect("8"));
                    if tag != 0 {
                        let sum =
                            u64::from_le_bytes(table[base + 8..base + 16].try_into().expect("8"));
                        groups.push(Tuple { key: tag - 1, val: sum });
                    }
                }
                groups.sort_by_key(|t| t.key);
                write_counted_output(ctx, &encode_tuples(&groups))
            }),
    );

    let join = job.task(
        TaskSpec::new("hash-join")
            .work(WorkClass::Scalar, cfg.probe_tuples as u64)
            .persistent(true)
            .output_bytes(64)
            .body(move |ctx| {
                ctx.state_write(16, &1u64.to_le_bytes())?;
                // Reuse the published index instead of rebuilding it — the
                // paper's global-scratch pattern.
                let index = ctx
                    .lookup("agg-index")
                    .ok_or_else(|| TaskError::new("agg-index not published"))?;
                let mut hdr = [0u8; 8];
                ctx.async_read(index, 0, &mut hdr)?;
                ctx.wait_async();
                let slots = u64::from_le_bytes(hdr);
                let mut table = vec![0u8; (slots * SLOT_BYTES) as usize];
                ctx.async_read(index, 8, &mut table)?;
                ctx.overlap_compute(WorkClass::Scalar, cfg.probe_tuples as u64 / 4);
                ctx.wait_async();

                // Aggregate output (group count / total sum) arrives as
                // this task's input.
                let groups = decode_tuples(&read_counted_input(ctx)?);
                let total_sum: u64 = groups.iter().map(|t| t.val).sum();

                let s_rel = relation(cfg.probe_tuples, cfg.key_space, cfg.theta, cfg.seed + 1);
                ctx.compute(WorkClass::Scalar, cfg.probe_tuples as u64);
                let mut matches = 0u64;
                for t in &s_rel {
                    let mut slot = slot_of(t.key, slots);
                    loop {
                        let base = (slot * SLOT_BYTES) as usize;
                        let tag =
                            u64::from_le_bytes(table[base..base + 8].try_into().expect("8"));
                        if tag == 0 {
                            break;
                        }
                        if tag == t.key + 1 {
                            matches += 1;
                            break;
                        }
                        slot = (slot + 1) & (slots - 1);
                    }
                }

                let mut out = Vec::with_capacity(24);
                out.extend_from_slice(&matches.to_le_bytes());
                out.extend_from_slice(&(groups.len() as u64).to_le_bytes());
                out.extend_from_slice(&total_sum.to_le_bytes());
                write_counted_output(ctx, &out)
            }),
    );

    job.edge(scan, agg);
    job.edge(agg, join);
    job.build().expect("dbms query job is a valid DAG")
}

/// Decodes the join task's final output into
/// `(join_matches, groups, total_sum)`.
pub fn decode_result(out: &[u8]) -> (u64, u64, u64) {
    let payload = crate::util::decode_counted(out);
    (
        u64::from_le_bytes(payload[..8].try_into().expect("8")),
        u64::from_le_bytes(payload[8..16].try_into().expect("8")),
        u64::from_le_bytes(payload[16..24].try_into().expect("8")),
    )
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::final_output;
    use disagg_hwsim::presets::single_server;

    #[test]
    fn query_produces_the_reference_answer() {
        let cfg = DbmsConfig {
            tuples: 5_000,
            probe_tuples: 2_000,
            ..DbmsConfig::default()
        };
        let exp = expected(&cfg);
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(query_job(cfg)).unwrap();
        let out = final_output(&rt, &report, JobId(0), "hash-join");
        let (matches, groups, total) = decode_result(&out);
        assert_eq!(matches, exp.join_matches);
        assert_eq!(groups as usize, exp.groups);
        assert_eq!(total, exp.total_sum);
        assert!(report.placements_clean());
    }

    #[test]
    fn pipeline_uses_all_three_region_types() {
        let cfg = DbmsConfig {
            tuples: 1_000,
            probe_tuples: 500,
            ..DbmsConfig::default()
        };
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt.execute(query_job(cfg)).unwrap();
        let agg = report.task_by_name(JobId(0), "hash-aggregate").unwrap();
        let kinds: Vec<&str> = agg.placements.iter().map(|(k, _, _)| k.name()).collect();
        assert!(kinds.contains(&"private_scratch"));
        assert!(kinds.contains(&"global_scratch"));
        assert!(kinds.contains(&"output"));
    }

    #[test]
    fn expected_is_self_consistent() {
        let cfg = DbmsConfig::default();
        let e = expected(&cfg);
        assert!(e.filtered > 0 && e.filtered <= cfg.tuples);
        assert!(e.groups <= cfg.key_space);
        assert!(e.join_matches <= cfg.probe_tuples as u64);
        // With heavy skew and enough tuples most probe keys should match.
        assert!(e.join_matches > 0);
    }
}
