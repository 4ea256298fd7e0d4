//! N-way replication for far memory.
//!
//! The straightforward half of the paper's fault-tolerance discussion
//! (Challenge 8(3)): keep full copies of a region on devices in distinct
//! failure domains. Writes pay N× write amplification; reads go to the
//! nearest live replica; losing a replica triggers re-replication from a
//! survivor. The erasure-coded alternative lives in [`crate::stripe`];
//! experiment E12 compares the two, reproducing the Carbink trade-off.
//!
//! The amplification is the model's, charged in virtual time; the host
//! follows [`crate::stripe`]'s rule, *move each byte once*. Replicas are
//! pool regions of one size, so a whole-region write lands in the first
//! live replica and is copied to the others with `copy_contents`, which
//! for dense replicas shares the buffer instead (the pool's copy-on-write
//! backing, see [`disagg_region::pool`]); a recovered replica shares its
//! survivor's the same way. A partial write still writes each replica.

use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::device::{AccessOp, AccessPattern};
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::{ComputeId, MemDeviceId};
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_region::access::book_access;
use disagg_region::migrate::reserve_copy;
use disagg_region::pool::RegionId;
use disagg_region::region::{OwnerId, RegionManager};

use crate::{alive, alloc_on, charge_local, corrupted, distinct_domains, FtolError};

/// A region kept as N full replicas in distinct failure domains.
#[derive(Debug, Clone)]
pub struct ReplicatedRegion {
    /// The replica regions (all the same size).
    pub replicas: Vec<RegionId>,
    /// The devices backing each replica.
    pub devs: Vec<MemDeviceId>,
    /// Logical size in bytes.
    pub size: u64,
    /// The owner all replicas belong to.
    pub owner: OwnerId,
    /// Total bytes written including amplification (stats).
    pub bytes_written: u64,
}

impl ReplicatedRegion {
    /// Creates an N-way replicated region across the given devices, which
    /// must live on pairwise distinct nodes.
    pub fn create(
        mgr: &mut RegionManager,
        topo: &Topology,
        devices: &[MemDeviceId],
        size: u64,
        owner: OwnerId,
        now: SimTime,
    ) -> Result<ReplicatedRegion, FtolError> {
        if devices.len() < 2 {
            return Err(FtolError::NotEnoughDevices {
                have: devices.len(),
                need: 2,
            });
        }
        distinct_domains(topo, devices)?;
        let replicas = alloc_on(mgr, devices, size, owner, now)?;
        Ok(ReplicatedRegion {
            replicas,
            devs: devices.to_vec(),
            size,
            owner,
            bytes_written: 0,
        })
    }

    /// Storage overhead factor (N for N replicas).
    pub fn overhead(&self) -> f64 {
        self.replicas.len() as f64
    }

    /// Indices of replicas whose device and node are alive at `t`.
    pub fn alive(&self, topo: &Topology, faults: &FaultInjector, t: SimTime) -> Vec<usize> {
        alive(&self.devs, topo, faults, t)
    }

    /// Writes to *all* live replicas (replication writes are mirrored).
    /// The write completes when the slowest replica acknowledges; total
    /// bytes written are amplified N×. On the host a whole-region write
    /// lands once: the first live replica takes the bytes and the others
    /// share its buffer until one of them is written again.
    #[allow(clippy::too_many_arguments)]
    pub fn write(
        &mut self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        faults: &FaultInjector,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<SimDuration, FtolError> {
        let alive = self.alive(topo, faults, now);
        if alive.is_empty() {
            return Err(FtolError::AllReplicasDown);
        }
        let mut slowest = SimDuration::ZERO;
        let bytes = data.len() as u64;
        let whole = offset == 0 && bytes == self.size;
        for (n, &i) in alive.iter().enumerate() {
            if whole && n > 0 {
                mgr.copy_contents(self.replicas[alive[0]], self.replicas[i])?;
            } else {
                mgr.write(self.replicas[i], self.owner, offset, data)?;
            }
            slowest = slowest.max(charge_local(topo, ledger, self.devs[i], bytes, AccessOp::Write, now));
            self.bytes_written += bytes;
        }
        Ok(slowest)
    }

    /// The replicas of `alive` a read of `[offset, offset + len)` may
    /// use: those whose window is not corrupted, or — when every one is
    /// — all of them, leaving the repair to the caller's checksum layer.
    fn sources(
        &self,
        mgr: &RegionManager,
        faults: &FaultInjector,
        alive: Vec<usize>,
        offset: u64,
        len: u64,
        t: SimTime,
    ) -> Vec<usize> {
        let clean: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|&i| !corrupted(mgr, faults, self.replicas[i], offset, len, t))
            .collect();
        if clean.is_empty() {
            alive
        } else {
            clean
        }
    }

    /// Reads from the live replica nearest to `compute`, failing over
    /// past replicas whose window is corrupted (when every live replica
    /// is corrupted, the nearest one serves anyway and the caller's
    /// checksum layer must repair). Returns the duration and the
    /// replica index used.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        mgr: &RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        faults: &FaultInjector,
        compute: ComputeId,
        offset: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<(SimDuration, usize), FtolError> {
        let alive = self.alive(topo, faults, now);
        let candidates = self.sources(mgr, faults, alive, offset, buf.len() as u64, now);
        // Nearest = lowest path latency from the reader.
        let best = candidates
            .iter()
            .copied()
            .filter_map(|i| topo.path(compute, self.devs[i]).map(|p| (i, p.latency_ns)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(i, _)| i)
            .ok_or(FtolError::AllReplicasDown)?;
        mgr.read(self.replicas[best], self.owner, offset, buf)?;
        let dev = self.devs[best];
        let bytes = buf.len() as u64;
        let parts = topo
            .access_cost_parts(compute, dev, bytes, AccessOp::Read, AccessPattern::Sequential)
            .expect("filtered to reachable");
        let (fin, _) = book_access(ledger, Some(faults), dev, &parts, now);
        Ok((fin - now, best))
    }

    /// Re-creates a lost replica on `spare` by copying from the first
    /// survivor a whole-region read would trust (the same choice
    /// [`read`](Self::read) makes: a corrupted replica is a source only
    /// when every survivor is). Returns the recovery duration.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        &mut self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        faults: &FaultInjector,
        lost: usize,
        spare: MemDeviceId,
        now: SimTime,
    ) -> Result<SimDuration, FtolError> {
        let alive = self.alive(topo, faults, now);
        if alive.contains(&lost) {
            return Err(FtolError::ReplicaNotLost(lost));
        }
        let sources = self.sources(mgr, faults, alive, 0, self.size, now);
        let src = *sources.first().ok_or(FtolError::AllReplicasDown)?;
        // Allocate the new replica and copy the survivor's bytes: the
        // two share one buffer, so no byte moves on the host.
        let new = alloc_on(mgr, &[spare], self.size, self.owner, now)?[0];
        mgr.copy_contents(self.replicas[src], new)?;
        // The old replica's backing is gone with its device; drop our
        // handle without double-freeing if the pool still tracks it.
        let _ = mgr.release(self.replicas[lost], self.owner);
        self.replicas[lost] = new;
        self.devs[lost] = spare;

        if topo.mem_path(self.devs[src], spare).is_none() {
            return Err(FtolError::Unreachable(self.devs[src], spare));
        }
        let took = reserve_copy(topo, ledger, self.devs[src], spare, self.size, now);
        self.bytes_written += self.size;
        Ok(took)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::contention::ResourceKey;
    use disagg_hwsim::fault::FaultKind;
    use disagg_hwsim::presets::disaggregated_rack;

    const OWNER: OwnerId = OwnerId::App;

    fn fixture() -> (
        Topology,
        RegionManager,
        BandwidthLedger,
        Vec<MemDeviceId>,
        Vec<disagg_hwsim::ids::ComputeId>,
    ) {
        let (topo, rack) = disaggregated_rack(2, 32, 3, 64);
        let mgr = RegionManager::new(&topo);
        (
            topo,
            mgr,
            BandwidthLedger::default_buckets(),
            rack.pool.clone(),
            rack.cpus.clone(),
        )
    }

    #[test]
    fn create_requires_distinct_failure_domains() {
        let (topo, mut mgr, _, pool, _) = fixture();
        let err =
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[0]], 1024, OWNER, SimTime::ZERO)
                .unwrap_err();
        assert!(matches!(err, FtolError::SharedFailureDomain(_, _)));
        let err = ReplicatedRegion::create(&mut mgr, &topo, &[pool[0]], 1024, OWNER, SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, FtolError::NotEnoughDevices { .. }));
        assert!(
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[1]], 1024, OWNER, SimTime::ZERO)
                .is_ok()
        );
    }

    #[test]
    fn writes_mirror_to_all_replicas() {
        let (topo, mut mgr, mut ledger, pool, _) = fixture();
        let faults = FaultInjector::none();
        let mut rr =
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[1]], 1024, OWNER, SimTime::ZERO)
                .unwrap();
        rr.write(&mut mgr, &topo, &mut ledger, &faults, 0, &[7u8; 512], SimTime::ZERO)
            .unwrap();
        assert_eq!(rr.bytes_written, 1024, "2x write amplification");
        for &r in &rr.replicas {
            assert_eq!(&mgr.bytes(r, OWNER).unwrap()[..512], &[7u8; 512]);
        }
        assert_eq!(rr.overhead(), 2.0);
    }

    #[test]
    fn read_prefers_the_nearest_replica_and_survives_crashes() {
        let (topo, mut mgr, mut ledger, pool, cpus) = fixture();
        let mut rr =
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[1]], 4096, OWNER, SimTime::ZERO)
                .unwrap();
        let faults = FaultInjector::none();
        rr.write(&mut mgr, &topo, &mut ledger, &faults, 0, &[9u8; 4096], SimTime::ZERO)
            .unwrap();

        let mut buf = [0u8; 64];
        let (_, used) = rr
            .read(&mgr, &topo, &mut ledger, &faults, cpus[0], 0, &mut buf, SimTime::ZERO)
            .unwrap();
        assert_eq!(buf, [9u8; 64]);

        // Crash the node of the replica that served the read: the other
        // replica takes over.
        let crashed_node = topo.node_of_mem(rr.devs[used]);
        let faults = FaultInjector::with_events(vec![disagg_hwsim::fault::FaultEvent {
            at: SimTime(10),
            kind: FaultKind::NodeCrash(crashed_node),
        }]);
        let (_, used2) = rr
            .read(&mgr, &topo, &mut ledger, &faults, cpus[0], 0, &mut buf, SimTime(100))
            .unwrap();
        assert_ne!(used, used2);
        assert_eq!(buf, [9u8; 64]);
    }

    #[test]
    fn corrupted_replica_fails_over_to_a_clean_one() {
        let (topo, mut mgr, mut ledger, pool, cpus) = fixture();
        let mut rr =
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[1]], 4096, OWNER, SimTime::ZERO)
                .unwrap();
        let none = FaultInjector::none();
        rr.write(&mut mgr, &topo, &mut ledger, &none, 0, &[3u8; 4096], SimTime::ZERO)
            .unwrap();
        let mut buf = [0u8; 64];
        let (_, nearest) = rr
            .read(&mgr, &topo, &mut ledger, &none, cpus[0], 0, &mut buf, SimTime::ZERO)
            .unwrap();

        // Corrupt the read window on the nearest replica: the read must
        // fail over to the clean one.
        let p = mgr.placement(rr.replicas[nearest]).unwrap();
        let faults = FaultInjector::with_events(vec![disagg_hwsim::fault::FaultEvent {
            at: SimTime(10),
            kind: FaultKind::Corrupt { dev: p.dev, offset: p.offset, len: 128 },
        }]);
        let (_, used) = rr
            .read(&mgr, &topo, &mut ledger, &faults, cpus[0], 0, &mut buf, SimTime(100))
            .unwrap();
        assert_ne!(used, nearest, "corrupted window must not be served");
        assert_eq!(buf, [3u8; 64]);
        // A window outside the corruption still prefers the nearest.
        let (_, used2) = rr
            .read(&mgr, &topo, &mut ledger, &faults, cpus[0], 1024, &mut buf, SimTime(100))
            .unwrap();
        assert_eq!(used2, nearest);
    }

    #[test]
    fn all_replicas_down_is_an_error() {
        let (topo, mut mgr, mut ledger, pool, cpus) = fixture();
        let mut rr =
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[1]], 1024, OWNER, SimTime::ZERO)
                .unwrap();
        let faults = FaultInjector::with_events(
            rr.devs
                .iter()
                .map(|&d| disagg_hwsim::fault::FaultEvent {
                    at: SimTime(0),
                    kind: FaultKind::DeviceFail(d),
                })
                .collect(),
        );
        let mut buf = [0u8; 8];
        assert!(matches!(
            rr.read(&mgr, &topo, &mut ledger, &faults, cpus[0], 0, &mut buf, SimTime(1)),
            Err(FtolError::AllReplicasDown)
        ));
        assert!(matches!(
            rr.write(&mut mgr, &topo, &mut ledger, &faults, 0, &[1], SimTime(1)),
            Err(FtolError::AllReplicasDown)
        ));
    }

    #[test]
    fn recovery_restores_redundancy() {
        let (topo, mut mgr, mut ledger, pool, cpus) = fixture();
        let mut rr =
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[1]], 8192, OWNER, SimTime::ZERO)
                .unwrap();
        let none = FaultInjector::none();
        rr.write(&mut mgr, &topo, &mut ledger, &none, 0, &[5u8; 8192], SimTime::ZERO)
            .unwrap();

        // Replica 0's device fails.
        let faults = FaultInjector::with_events(vec![disagg_hwsim::fault::FaultEvent {
            at: SimTime(10),
            kind: FaultKind::DeviceFail(rr.devs[0]),
        }]);
        let took = rr
            .recover(&mut mgr, &topo, &mut ledger, &faults, 0, pool[2], SimTime(100))
            .unwrap();
        assert!(took > SimDuration::ZERO);
        assert_eq!(rr.devs[0], pool[2]);
        // Contents intact on the new replica.
        assert_eq!(&mgr.bytes(rr.replicas[0], OWNER).unwrap()[..16], &[5u8; 16]);
        // Redundancy is back: both replicas alive under the same fault plan.
        assert_eq!(rr.alive(&topo, &faults, SimTime(200)).len(), 2);
        let _ = cpus;
    }

    #[test]
    fn recovering_a_live_replica_is_rejected() {
        let (topo, mut mgr, mut ledger, pool, _) = fixture();
        let mut rr =
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[1]], 1024, OWNER, SimTime::ZERO)
                .unwrap();
        let faults = FaultInjector::none();
        assert!(matches!(
            rr.recover(&mut mgr, &topo, &mut ledger, &faults, 0, pool[2], SimTime(1)),
            Err(FtolError::ReplicaNotLost(0))
        ));
    }

    #[test]
    fn recovery_copies_from_a_survivor_a_read_would_trust() {
        let (topo, mut mgr, _, pool, _) = fixture();
        let size = 8192;
        let mut rr = ReplicatedRegion::create(&mut mgr, &topo, &pool[..3], size, OWNER, SimTime::ZERO)
            .unwrap();
        let none = FaultInjector::none();
        let mut ledger = BandwidthLedger::default_buckets();
        rr.write(&mut mgr, &topo, &mut ledger, &none, 0, &[4u8; 8192], SimTime::ZERO)
            .unwrap();
        // Replica 0's node crashes; replica 1 is alive but its whole
        // window is corrupted, so only replica 2 is a trustworthy source.
        let p1 = mgr.placement(rr.replicas[1]).unwrap();
        let faults = FaultInjector::with_events(vec![
            disagg_hwsim::fault::FaultEvent {
                at: SimTime(10),
                kind: FaultKind::NodeCrash(topo.node_of_mem(rr.devs[0])),
            },
            disagg_hwsim::fault::FaultEvent {
                at: SimTime(10),
                kind: FaultKind::Corrupt { dev: p1.dev, offset: p1.offset, len: size },
            },
        ]);
        let (tainted, clean) = (rr.devs[1], rr.devs[2]);
        let mut ledger = BandwidthLedger::default_buckets();
        rr.recover(&mut mgr, &topo, &mut ledger, &faults, 0, pool[3], SimTime(100))
            .unwrap();
        assert_eq!(ledger.bytes(ResourceKey::Mem(clean)), size as f64);
        assert_eq!(ledger.bytes(ResourceKey::Mem(tainted)), 0.0);
    }

    /// A copy has one price: migrating a region and recovering a replica
    /// of the same bytes between the same two devices take what
    /// `reserve_copy` says — the uncontended `transfer_cost` on an idle
    /// ledger, the booked time once the link is busy.
    #[test]
    fn migration_and_replica_recovery_pay_one_copy_price() {
        use disagg_region::migrate::migrate;
        use disagg_region::typed::RegionType;
        use disagg_hwsim::trace::Trace;

        let (topo, _, _, pool, _) = fixture();
        let (src, spare, size, now) = (pool[1], pool[2], 1 << 20, SimTime(100));
        let link = topo.mem_path(src, spare).unwrap().bottleneck_link.unwrap();
        // A fresh ledger, or one whose `src`→`spare` link is busy.
        let ledger = |busy: bool| {
            let mut l = BandwidthLedger::default_buckets();
            if busy {
                l.reserve(ResourceKey::Link(link), now, (64 << 20) as f64, 1.0);
            }
            l
        };
        let migrated = |busy: bool| {
            let mut mgr = RegionManager::new(&topo);
            let id = mgr
                .alloc(src, size, RegionType::GlobalScratch, Default::default(), OWNER, now)
                .unwrap();
            let mut trace = Trace::disabled();
            migrate(&mut mgr, &topo, &mut ledger(busy), &mut trace, id, spare, now).unwrap().1
        };
        let recovered = |busy: bool| {
            let mut mgr = RegionManager::new(&topo);
            let mut rr =
                ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], src], size, OWNER, now).unwrap();
            let faults = FaultInjector::with_events(vec![disagg_hwsim::fault::FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::DeviceFail(pool[0]),
            }]);
            rr.recover(&mut mgr, &topo, &mut ledger(busy), &faults, 0, spare, now).unwrap()
        };
        let floor = topo.transfer_cost(src, spare, size).unwrap();
        for busy in [false, true] {
            let price = reserve_copy(&topo, &mut ledger(busy), src, spare, size, now);
            assert_eq!((migrated(busy), recovered(busy)), (price, price), "busy: {busy}");
            if busy {
                assert!(price > floor, "{price:?} vs {floor:?}");
            } else {
                assert_eq!(price, floor);
            }
        }
    }

    #[test]
    fn a_whole_write_lands_once_and_the_other_replicas_share_it() {
        let (topo, mut mgr, mut ledger, pool, _) = fixture();
        let size = 8192;
        let mut rr = ReplicatedRegion::create(&mut mgr, &topo, &pool[..3], size, OWNER, SimTime::ZERO)
            .unwrap();
        let paid = |mgr: &RegionManager| mgr.pool().bytes_materialized();
        let none = FaultInjector::none();
        rr.write(&mut mgr, &topo, &mut ledger, &none, 0, &[1u8; 8192], SimTime::ZERO)
            .unwrap();
        assert_eq!(paid(&mgr), size, "one buffer for three replicas");
        assert_eq!(rr.bytes_written, 3 * size, "the model still amplifies");

        // Replica 2's device fails: a whole write reaches the live two
        // and leaves replica 2's bytes as they were.
        let faults = FaultInjector::with_events(vec![disagg_hwsim::fault::FaultEvent {
            at: SimTime(10),
            kind: FaultKind::DeviceFail(rr.devs[2]),
        }]);
        rr.write(&mut mgr, &topo, &mut ledger, &faults, 0, &[2u8; 8192], SimTime(20))
            .unwrap();
        assert_eq!(paid(&mgr), 2 * size, "replica 0 un-shares once; replica 1 shares it");
        // A partial write changes every live replica, there and only there.
        rr.write(&mut mgr, &topo, &mut ledger, &faults, 100, &[3u8; 50], SimTime(30))
            .unwrap();
        assert_eq!(paid(&mgr), 3 * size, "the first writer of a shared buffer copies it");
        let mut want = vec![2u8; 8192];
        want[100..150].fill(3);
        for &r in &rr.replicas[..2] {
            assert!(mgr.bytes(r, OWNER).unwrap() == want);
        }
        assert!(mgr.bytes(rr.replicas[2], OWNER).unwrap() == [1u8; 8192]);

        // Recovery shares the survivor's buffer: nothing materializes.
        rr.recover(&mut mgr, &topo, &mut ledger, &faults, 2, pool[3], SimTime(40))
            .unwrap();
        assert_eq!(paid(&mgr), 3 * size);
        assert!(mgr.bytes(rr.replicas[2], OWNER).unwrap() == want);
    }

    /// `a` and `b` agree to the nanosecond the ledger rounds a
    /// transfer's end up by.
    fn within_a_ns(a: SimDuration, b: SimDuration) -> bool {
        a.as_nanos().abs_diff(b.as_nanos()) <= 1
    }

    #[test]
    fn every_charge_on_an_idle_ledger_is_the_access_formula() {
        use disagg_hwsim::topology::{AccessCostParts, PathCost};
        let (topo, mut mgr, _, pool, cpus) = fixture();
        let size = 1u64 << 20;
        let mut rr =
            ReplicatedRegion::create(&mut mgr, &topo, &[pool[0], pool[1]], size, OWNER, SimTime::ZERO)
                .unwrap();
        let none = FaultInjector::none();
        let data = vec![6u8; size as usize];
        let idle = BandwidthLedger::default_buckets;
        let write = rr
            .write(&mut mgr, &topo, &mut idle(), &none, 0, &data, SimTime::ZERO)
            .unwrap();
        let local = AccessCostParts::of(
            topo.mem(pool[0]),
            PathCost::LOCAL,
            size,
            AccessOp::Write,
            AccessPattern::Sequential,
        );
        assert!(within_a_ns(write, local.total()), "write {write} vs {}", local.total());

        let mut buf = vec![0u8; size as usize];
        let read = |ledger: &mut BandwidthLedger, faults: &FaultInjector, buf: &mut [u8]| {
            rr.read(&mgr, &topo, ledger, faults, cpus[0], 0, buf, SimTime(10)).unwrap()
        };
        let (healthy, used) = read(&mut idle(), &none, &mut buf);
        let parts = topo
            .access_cost_parts(cpus[0], rr.devs[used], size, AccessOp::Read, AccessPattern::Sequential)
            .unwrap();
        assert!(within_a_ns(healthy, parts.total()), "read {healthy} vs {}", parts.total());
        assert_eq!(read(&mut idle(), &none, &mut []).0, SimDuration::ZERO);

        // Behind a busy uplink: another stream from the same reader to
        // the other replica's device holds the link the read needs.
        let link = parts.bottleneck_link.expect("the pool sits behind the fabric");
        let other = rr.devs[1 - used];
        let mut busy = idle();
        let stream = topo
            .access_cost_parts(cpus[0], other, 4 << 20, AccessOp::Read, AccessPattern::Sequential)
            .unwrap();
        book_access(&mut busy, None, other, &stream, SimTime(10));
        assert!(busy.bytes(ResourceKey::Link(link)) > 0.0);
        let (contended, _) = read(&mut busy, &none, &mut buf);
        assert!(contended > healthy, "busy uplink {contended} vs idle {healthy}");

        // Inside a LinkDegraded window the link runs at a quarter speed.
        let degraded = FaultInjector::with_events(vec![disagg_hwsim::fault::FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::LinkDegraded { link, factor_pct: 25 },
        }]);
        let (slow, _) = read(&mut idle(), &degraded, &mut buf);
        assert!(slow > healthy, "degraded link {slow} vs healthy {healthy}");
    }
}
