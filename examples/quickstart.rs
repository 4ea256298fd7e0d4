//! Quickstart: declare a two-task dataflow, submit it, read the report.
//!
//! Run with: `cargo run --example quickstart`

use disagg::prelude::*;

fn main() {
    // A fully equipped server: CPU (cache/HBM/DRAM/PMem), GPU (GDDR),
    // CXL expander, SSD, HDD, and a far-memory blade behind the NIC.
    let (topo, _ids) = disagg::presets::single_server();
    let mut rt = Runtime::new(topo, RuntimeConfig::traced());

    // Declare the dataflow. Note what is *absent*: no device names, no
    // addresses. Tasks describe requirements; the runtime places them.
    let mut job = JobBuilder::new("quickstart");
    let produce = job.task(
        TaskSpec::new("produce")
            .work(WorkClass::Vector, 100_000)
            .output_bytes(1 << 20)
            .body(|ctx| {
                let chunk = [7u8; 4096];
                for i in 0..256 {
                    ctx.write_output(i * 4096, &chunk)?;
                }
                Ok(())
            }),
    );
    let consume = job.task(
        TaskSpec::new("consume")
            .work(WorkClass::Scalar, 100_000)
            .mem_latency(LatencyClass::Low)
            .private_scratch(1 << 16)
            .body(|ctx| {
                let mut buf = vec![0u8; 1 << 20];
                ctx.read_input(0, &mut buf)?;
                assert!(buf.iter().all(|&b| b == 7), "handover preserved the bytes");
                ctx.scratch_write(0, &buf[..64])?;
                Ok(())
            }),
    );
    job.edge(produce, consume);

    let report = rt.execute(job.build().expect("valid DAG")).expect("runs");

    println!("makespan:            {}", report.makespan);
    println!("ownership transfers: {}", report.ownership_transfers);
    println!("handover copies:     {}", report.handover_copies);
    println!(
        "bytes moved {} vs handed over by ownership {}",
        report.bytes_moved, report.bytes_ownership_transferred
    );
    for t in &report.tasks {
        println!(
            "  task {:10} on {:3} [{} → {}]",
            t.name,
            rt.topology().compute(t.compute).kind.name(),
            t.start,
            t.finish
        );
        for (kind, region, dev) in report.placements_of(t) {
            println!(
                "      {kind:15} {region} on {}",
                rt.topology().mem(*dev).kind.name()
            );
        }
    }
    assert!(report.placements_clean());
    println!("all declared properties honored.");
}
