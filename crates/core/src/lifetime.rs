//! Tests of the output→input handover, the executor step that gives a
//! producer's output to its consumers.
//!
//! §2.3: "handover is just a memory ownership transfer, and physical data
//! movement is minimized". A consumer whose device addresses the output
//! in place takes the region itself (Figure 4); otherwise, under the
//! `AlwaysCopy` baseline of experiment E7, and for every fan-out
//! consumer after the first, the bytes are copied into a fresh region
//! placed for the consumer.

#[cfg(test)]
mod tests {
    use disagg_hwsim::calibration;
    use disagg_hwsim::presets::{disaggregated_rack, single_server};
    use disagg_hwsim::trace::TraceEvent;

    use crate::config::HandoverPolicy;
    use crate::prelude::*;

    fn transfer_overhead() -> SimDuration {
        SimDuration::from_nanos(calibration::mechanisms().ownership_transfer_ns.value)
    }

    /// A producer on `producer` writing `fill` into the first bytes of a
    /// 1 MiB output, and a consumer on `consumer` that checks them.
    fn producer_and_consumer(producer: ComputeKind, consumer: ComputeKind, fill: u8) -> JobSpec {
        let mut job = JobBuilder::new("handover");
        let p = job.task(
            TaskSpec::new("p")
                .require(producer)
                .output_bytes(1 << 20)
                .body(move |ctx| {
                    ctx.write_output(0, &[fill; 64])?;
                    Ok(())
                }),
        );
        let c = job.task(TaskSpec::new("c").require(consumer).body(move |ctx| {
            let mut buf = [0u8; 64];
            ctx.read_input(0, &mut buf)?;
            if buf != [fill; 64] {
                return Err(TaskError::new("the consumer must see the producer's bytes"));
            }
            Ok(())
        }));
        job.edge(p, c);
        job.build().unwrap()
    }

    /// The region `task` wrote its output into.
    fn output_of(report: &RunReport, task: &TaskReport) -> u64 {
        report
            .placements_of(task)
            .iter()
            .find(|(k, _, _)| *k == "output")
            .unwrap()
            .1
             .0
    }

    #[test]
    fn addressable_handover_is_a_pure_transfer() {
        // The GPU addresses the host DRAM the CPU producer wrote into.
        let (topo, _) = single_server();
        let mut rt = Runtime::new(topo, RuntimeConfig::traced());
        let report = rt
            .execute(producer_and_consumer(
                ComputeKind::Cpu,
                ComputeKind::Gpu,
                0xEE,
            ))
            .unwrap();
        assert_eq!((report.ownership_transfers, report.handover_copies), (1, 0));
        // The consumer took the producer's own region, after exactly the
        // transfer's fixed overhead, and no byte crossed a wire.
        let out = output_of(&report, &report.tasks[0]);
        let handed: Vec<(u64, u64, u64, u64)> = rt
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::OwnershipTransfer {
                    region,
                    from_task,
                    to_task,
                    bytes,
                    ..
                } => Some((region, from_task, to_task, bytes)),
                _ => None,
            })
            .collect();
        assert_eq!(handed, [(out, 0, 1, 1 << 20)]);
        assert_eq!(
            report.tasks[1].start - report.tasks[0].finish,
            transfer_overhead()
        );
        assert_eq!(rt.trace().bytes_transferred_by_ownership(), 1 << 20);
        // The only bytes moved are the producer's write and the
        // consumer's read.
        assert_eq!(rt.trace().bytes_moved(), 2 * 64);
    }

    #[test]
    fn always_copy_policy_moves_bytes() {
        let (topo, _) = single_server();
        let config = RuntimeConfig::traced().with_handover(HandoverPolicy::AlwaysCopy);
        let mut rt = Runtime::new(topo, config);
        let report = rt
            .execute(producer_and_consumer(
                ComputeKind::Cpu,
                ComputeKind::Cpu,
                0xAB,
            ))
            .unwrap();
        assert_eq!((report.ownership_transfers, report.handover_copies), (0, 1));
        assert!(report.tasks[1].start - report.tasks[0].finish > transfer_overhead());
        // The whole output moved, besides the producer's write and the
        // consumer's read.
        assert_eq!(rt.trace().bytes_moved(), (1 << 20) + 2 * 64);
        // The trace books the copy's allocation, then the copy, then the
        // release of the producer's region, all at the producer's finish.
        let out = output_of(&report, &report.tasks[0]);
        let at = report.tasks[0].finish;
        let books: Vec<TraceEvent> = rt
            .trace()
            .events()
            .iter()
            .filter(|e| match **e {
                TraceEvent::Alloc { at: t, .. } | TraceEvent::Free { at: t, .. } => t == at,
                TraceEvent::Migrate { .. } => true,
                _ => false,
            })
            .cloned()
            .collect();
        let [TraceEvent::Alloc { region: copy, .. }, TraceEvent::Migrate { region: src, .. }, TraceEvent::Free { region: freed, .. }] =
            books[..]
        else {
            panic!("expected Alloc, Migrate, Free at {at:?}: {books:?}");
        };
        assert_ne!(copy, out);
        assert_eq!((src, freed), (out, out));
    }

    #[test]
    fn fan_out_copies_for_secondary_consumers() {
        // `c1` gets the transfer, `c2` a copy it may then write; `c1` also
        // waits for `c2`, so it reads the producer's bytes after that write.
        let run = |c2_writes: bool| {
            let (topo, _) = disaggregated_rack(2, 32, 2, 512);
            let mut rt = Runtime::new(topo, RuntimeConfig::traced());
            let mut job = JobBuilder::new("fanout");
            let p = job.task(TaskSpec::new("p").output_bytes(8192).body(|ctx| {
                ctx.write_output(0, &[3u8; 16])?;
                Ok(())
            }));
            let c1 = job.task(TaskSpec::new("c1").body(|ctx| {
                let mut buf = [0u8; 16];
                ctx.async_read(ctx.inputs()[0], 0, &mut buf)?;
                ctx.wait_async();
                if buf != [3u8; 16] {
                    return Err(TaskError::new("a write to the copy reached the source"));
                }
                Ok(())
            }));
            let c2 = job.task(TaskSpec::new("c2").output_bytes(64).body(move |ctx| {
                let mut buf = [0u8; 16];
                ctx.read_input(0, &mut buf)?;
                if buf != [3u8; 16] {
                    return Err(TaskError::new("a copy must carry the producer's bytes"));
                }
                if c2_writes {
                    let input = ctx.input()?;
                    ctx.async_write(input, 0, &[4u8; 16])?;
                    ctx.wait_async();
                }
                Ok(())
            }));
            job.edge(p, c1);
            job.edge(p, c2);
            job.edge(c2, c1);
            let report = rt.execute(job.build().unwrap()).unwrap();
            let src = output_of(&report, &report.tasks[0]);
            // The producer's region went to c1 whole and was copied for c2.
            let events = rt.trace().events();
            assert!(events.iter().any(|e| matches!(*e,
                TraceEvent::OwnershipTransfer { region, from_task: 0, to_task: 1, .. } if region == src)));
            let copies = events
                .iter()
                .filter(|e| matches!(**e, TraceEvent::Migrate { region, .. } if region == src))
                .count();
            assert_eq!(copies, 1);
            assert_eq!(report.handover_copies, 1);
            rt.manager().pool().bytes_materialized()
        };
        // On the host the copy shares the source's buffer until one side
        // writes; the write gives the copy a buffer of its own.
        assert_eq!(run(false), 8192);
        assert_eq!(run(true), 2 * 8192);
    }
}
