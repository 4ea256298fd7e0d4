//! Names the benchmark is known by: workloads, end-to-end metrics,
//! per-layer metrics. `BENCHMARK.json` at the repository root declares
//! the same names (with bounds); `ci.sh` fails when the two differ.
//! Later issues refer to workloads and metrics by these names.

/// The four workloads, in run order.
pub const WORKLOADS: [&str; 4] = ["batch_dag", "serve_bulk", "serve_ctrl", "apps_chaos"];

/// `(name, unit)` of every end-to-end metric, measured with tracing
/// off. `sim_*` are virtual time and repeat exactly per seed; the rest
/// are host wall clock, memory or set-up time.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("host_s_per_pass", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_makespan_ns", "ns"),
    ("sim_latency_p50_ns", "ns"),
    ("sim_latency_tail_ns", "ns"),
    ("sim_goodput_share", "share"),
    ("sim_max_rate_in_slo_rps", "1/s"),
    ("sim_fault_slowdown", "ratio"),
];

/// `(name, unit)` of every per-layer metric, keyed by crate name. A
/// traced run emits all of them; one a workload does not exercise
/// reads 0 there (the serve layer does no work on `batch_dag`).
pub const PER_LAYER: [(&str, &str); 67] = [
    ("hwsim.topology_build_us", "us"),
    ("hwsim.access_cost_ns_per_call", "ns"),
    ("hwsim.ledger_reserve_ns_per_call", "ns"),
    ("hwsim.ledger_reserve_contended_ns_per_call", "ns"),
    ("region.pool_alloc_free_ns_per_op", "ns"),
    ("region.pool_bulk_alloc_free_us_per_op", "us"),
    ("region.minor_faults_per_pass", "faults"),
    ("region.first_pass_minor_faults", "faults"),
    ("region.write_read_mib_per_s", "MiB/s"),
    ("region.copy_between_mib_per_s", "MiB/s"),
    ("dataflow.job_build_us_per_job", "us"),
    ("workloads.build_apps_ms", "ms"),
    ("workloads.output_mismatches", "count"),
    ("workloads.faulty_output_mismatches", "count"),
    ("sched.plan_us_per_pass", "us"),
    ("sched.plan_ns_per_task", "ns"),
    ("sched.rank_ns_per_call", "ns"),
    ("sched.est_over_sim_makespan", "ratio"),
    ("sched.cc_over_declarative_makespan", "ratio"),
    ("core.runtime_new_us", "us"),
    ("core.drop_ms_per_pass", "ms"),
    ("core.execute_ms_per_pass", "ms"),
    ("core.ns_per_event", "ns"),
    ("core.events_per_host_s", "1/s"),
    ("core.execute_residual_share", "share"),
    ("core.shards2_over_shards1_host", "ratio"),
    ("core.traced_over_untraced_host", "ratio"),
    ("core.retries", "count"),
    ("core.faults_detected", "count"),
    ("core.reconstructs", "count"),
    ("core.sim_bytes_moved", "bytes"),
    ("serve.run_ms_per_pass", "ms"),
    ("serve.overhead_over_execute", "ratio"),
    ("serve.sample_offsets_ns_per_req", "ns"),
    ("serve.instantiate_ns_per_req", "ns"),
    ("serve.quota_admit_ns_per_req", "ns"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.fast_failed", "count"),
    ("serve.peak_util", "share"),
    ("obs.assemble_spans_ns_per_event", "ns"),
    ("obs.tail_attribution_us", "us"),
    ("obs.slo_burn_us", "us"),
    ("obs.chrome_trace_ns_per_event", "ns"),
    ("obs.full_observer_over_null_host", "ratio"),
    ("obs.hist_p99_over_exact", "ratio"),
    ("obs.span_sum_mismatches", "count"),
    ("ftol.rs_encode_mib_per_s", "MiB/s"),
    ("ftol.rs_reconstruct_mib_per_s", "MiB/s"),
    ("ftol.striped_write_mib_per_s", "MiB/s"),
    ("ftol.replica_recover_ms", "ms"),
    ("ftol.stripe_recover_ms", "ms"),
    ("ftol.sim_recovery_ns_repl3", "ns"),
    ("ftol.sim_recovery_ns_rs42", "ns"),
    ("bench.first_pass_s", "s"),
    ("bench.median_pass_s", "s"),
    ("bench.cpu_s_per_pass", "s"),
    ("bench.sys_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.own_share_of_pass", "share"),
    ("bench.ladder_s", "s"),
    ("bench.failed_share", "share"),
    ("bench.passes", "passes"),
    ("bench.latency_samples", "count"),
    ("bench.tail_percentile", "ratio"),
];

/// Whether a metric is virtual time or a count that must repeat to the
/// digit for one commit at one seed. `compare` holds these to equality.
/// (Host-side tallies — page faults, passes — carry their own units.)
pub fn is_exact(name: &str, unit: &str) -> bool {
    name.starts_with("sim_") || name.contains(".sim_") || unit == "count"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
    }

    #[test]
    fn exactness_follows_the_clock() {
        assert!(is_exact("sim_makespan_ns", "ns"));
        assert!(is_exact("ftol.sim_recovery_ns_rs42", "ns"));
        assert!(is_exact("serve.shed", "count"));
        assert!(!is_exact("host_s_per_pass", "s"));
        assert!(!is_exact("core.ns_per_event", "ns"));
    }
}
