//! Erasure-coded striping of regions across memory nodes.
//!
//! The Carbink-flavoured alternative to replication: a logical region is
//! split into `k` data spans placed on distinct failure domains, plus `m`
//! Reed–Solomon parity spans. Storage overhead drops from N× to
//! `(k+m)/k`; the price is parity updates on writes and a reconstruction
//! (read `k` surviving spans + decode) instead of a plain copy on
//! recovery. This matches the paper's pointer to "a combination of
//! erasure-coding, one-sided remote memory accesses ... as it is used by
//! Carbink".
//!
//! Two clocks, kept apart. **Virtual time** is the model: every span
//! fetched or written is a [`BandwidthLedger`] reservation on its device,
//! a write pays a full parity rewrite, a degraded read or a recovery
//! fetches `k` whole spans, and the arithmetic costs
//! [`ParityEngine::ns_per_byte`] — none of which depends on how the host
//! computes the bytes. **Host time** follows one rule: *move each byte
//! once, decode only what was lost*. Coding reads the survivors where they
//! lie ([`RegionManager::bytes`] views, no staging copy); a write
//! re-encodes parity only over the span columns it changed (the code is
//! column-wise, so parity elsewhere is still valid — a 100-byte
//! write codes 100 columns, not `k × span_size` bytes); a degraded read
//! serves surviving spans from the pool and decodes just the lost windows
//! straight into the caller's buffer; recovery decodes the one lost span.
//! Bytes computed whole are not copied again: parity encoded over every
//! column, and a rebuilt span, become their span's backing
//! ([`RegionManager::replace_contents`]). The same rule covers
//! replication ([`crate::replicate`]): a whole-region write lands once
//! and the other replicas share it.

use disagg_hwsim::calibration;
use disagg_hwsim::contention::BandwidthLedger;
use disagg_hwsim::device::AccessOp;
use disagg_hwsim::fault::FaultInjector;
use disagg_hwsim::ids::MemDeviceId;
use disagg_hwsim::time::{SimDuration, SimTime};
use disagg_hwsim::topology::Topology;
use disagg_region::pool::RegionId;
use disagg_region::region::{OwnerId, RegionManager};

use crate::reedsolomon::ReedSolomon;
use crate::{alive, alloc_on, charge_local, corrupted, distinct_domains, FtolError};

/// Where parity/decode arithmetic runs (Carbink's "off-loadable parity
/// calculations"): on the host CPU, or offloaded to a DPU/accelerator
/// that streams GF(2⁸) multiply-accumulates an order of magnitude
/// faster and off the critical path of the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParityEngine {
    /// Host CPU computes parity and decodes.
    #[default]
    Host,
    /// DPU/accelerator offload.
    Offload,
}

impl ParityEngine {
    /// Modelled GF(2⁸) arithmetic cost per byte, nanoseconds: the
    /// engine's entry in the machine table, independent of the host's
    /// [`crate::gf256`] speed.
    pub fn ns_per_byte(self) -> f64 {
        let m = calibration::mechanisms();
        match self {
            ParityEngine::Host => m.host_decode_ns_per_byte.value,
            ParityEngine::Offload => m.offload_parity_ns_per_byte.value,
        }
    }
}

/// A logical region striped as `k` data + `m` parity spans.
#[derive(Debug)]
pub struct StripedRegion {
    /// Data spans (indices `0..k`), then parity spans (`k..k+m`).
    pub spans: Vec<RegionId>,
    /// Devices backing each span.
    pub devs: Vec<MemDeviceId>,
    /// Bytes per span.
    pub span_size: u64,
    /// Logical size in bytes.
    pub size: u64,
    /// Owner of all spans.
    pub owner: OwnerId,
    /// Total bytes written including parity amplification (stats).
    pub bytes_written: u64,
    /// Where parity arithmetic runs.
    pub parity_engine: ParityEngine,
    rs: ReedSolomon,
}

impl StripedRegion {
    /// Creates a striped region over `k + m` devices on pairwise distinct
    /// nodes. The first `k` devices hold data, the rest parity.
    #[allow(clippy::too_many_arguments)]
    pub fn create(
        mgr: &mut RegionManager,
        topo: &Topology,
        devices: &[MemDeviceId],
        size: u64,
        k: usize,
        m: usize,
        owner: OwnerId,
        now: SimTime,
    ) -> Result<StripedRegion, FtolError> {
        let rs = ReedSolomon::new(k, m)?;
        if devices.len() != k + m {
            return Err(FtolError::NotEnoughDevices {
                have: devices.len(),
                need: k + m,
            });
        }
        distinct_domains(topo, devices)?;
        let span_size = size.div_ceil(k as u64).max(1);
        let spans = alloc_on(mgr, devices, span_size, owner, now)?;
        Ok(StripedRegion {
            spans,
            devs: devices.to_vec(),
            span_size,
            size,
            owner,
            bytes_written: 0,
            parity_engine: ParityEngine::default(),
            rs,
        })
    }

    /// Switches parity/decode arithmetic to the given engine.
    pub fn with_parity_engine(mut self, engine: ParityEngine) -> Self {
        self.parity_engine = engine;
        self
    }

    /// Data span count.
    pub fn k(&self) -> usize {
        self.rs.data_shards()
    }

    /// Parity span count.
    pub fn m(&self) -> usize {
        self.rs.parity_shards()
    }

    /// Storage overhead factor `(k + m)/k`.
    pub fn overhead(&self) -> f64 {
        self.rs.overhead()
    }

    /// Span indices whose device and node are alive at `t`.
    pub fn alive(&self, topo: &Topology, faults: &FaultInjector, t: SimTime) -> Vec<usize> {
        alive(&self.devs, topo, faults, t)
    }

    /// Span indices alive at `t` whose bytes overlap no corrupted range
    /// on their device: the spans a read or a recovery may trust as a
    /// source. A corrupt span is alive but its contents are suspect.
    fn trusted(
        &self,
        mgr: &RegionManager,
        topo: &Topology,
        faults: &FaultInjector,
        t: SimTime,
    ) -> Vec<usize> {
        let mut alive = self.alive(topo, faults, t);
        alive.retain(|&i| !corrupted(mgr, faults, self.spans[i], 0, self.span_size, t));
        alive
    }

    /// Charges a parallel read of the whole spans `from` (what a decode
    /// fetches) and returns when the slowest arrives.
    fn charge_fetch(
        &self,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        from: &[usize],
        now: SimTime,
    ) -> SimDuration {
        from.iter().fold(SimDuration::ZERO, |slowest, &i| {
            let fetched = charge_local(topo, ledger, self.devs[i], self.span_size, AccessOp::Read, now);
            slowest.max(fetched)
        })
    }

    /// The modelled duration of one GF(2⁸) pass over `bytes` on the
    /// configured engine. Virtual time only: it does not depend on how
    /// fast the host runs [`crate::gf256::mul_row`].
    fn arithmetic_cost(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos_f64(bytes as f64 * self.parity_engine.ns_per_byte())
    }

    /// The pieces of logical `[offset, end)`, one per data span it
    /// touches: `(span, offset within the span, bytes)`. `end` must not
    /// exceed `self.size`.
    fn pieces(&self, offset: u64, end: u64) -> impl Iterator<Item = (usize, u64, usize)> {
        let span_size = self.span_size;
        let mut cursor = offset;
        std::iter::from_fn(move || {
            (cursor < end).then(|| {
                let within = cursor % span_size;
                let take = (span_size - within).min(end - cursor);
                let piece = ((cursor / span_size) as usize, within, take as usize);
                cursor += take;
                piece
            })
        })
    }

    /// The span columns `[lo, hi)` a non-empty write of logical `[offset,
    /// end)` changes, in at most two ranges; parity outside them is still
    /// valid. One span touched: its window. Two spans, tail of one and a
    /// shorter head of the next: both windows. Anything more covers every
    /// column.
    fn touched_columns(&self, offset: u64, end: u64) -> Vec<(u64, u64)> {
        let (first, last) = (offset / self.span_size, (end - 1) / self.span_size);
        let lo = offset % self.span_size;
        let hi = (end - 1) % self.span_size + 1;
        if first == last {
            vec![(lo, hi)]
        } else if last == first + 1 && hi < lo {
            vec![(0, hi), (lo, self.span_size)]
        } else {
            vec![(0, self.span_size)]
        }
    }

    /// Writes `data` at logical `offset`, updating the touched data spans
    /// and their parity. Span I/O proceeds in parallel; the write
    /// completes with the slowest span. The model charges a full parity
    /// rewrite (Carbink re-encodes the span set); the host re-encodes only
    /// the columns the write changed, straight from the pool's bytes, and
    /// parity encoded over every column becomes its span's buffer. An
    /// empty write changes nothing and costs nothing.
    pub fn write(
        &mut self,
        mgr: &mut RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        offset: u64,
        data: &[u8],
        now: SimTime,
    ) -> Result<SimDuration, FtolError> {
        let end = self.check_window(offset, data.len())?;
        if data.is_empty() {
            return Ok(SimDuration::ZERO);
        }
        let k = self.k();
        // Scatter the write across the affected data spans.
        let mut slowest = SimDuration::ZERO;
        let mut src = 0usize;
        for (span, within, take) in self.pieces(offset, end) {
            mgr.write(self.spans[span], self.owner, within, &data[src..src + take])?;
            let dev = self.devs[span];
            slowest = slowest.max(charge_local(topo, ledger, dev, take as u64, AccessOp::Write, now));
            self.bytes_written += take as u64;
            src += take;
        }
        // Re-encode parity over the touched columns.
        for (lo, hi) in self.touched_columns(offset, end) {
            let columns: Vec<&[u8]> = (0..k)
                .map(|i| Ok(&mgr.bytes(self.spans[i], self.owner)?[lo as usize..hi as usize]))
                .collect::<Result<_, FtolError>>()?;
            let parity = self.rs.encode_slices(&columns)?;
            for (p, bytes) in parity.into_iter().enumerate() {
                let span = self.spans[k + p];
                if hi - lo == self.span_size {
                    mgr.replace_contents(span, self.owner, bytes)?;
                } else {
                    mgr.write(span, self.owner, lo, &bytes)?;
                }
            }
        }
        // Parity arithmetic reads k spans and produces m spans.
        let parity_cost = self.arithmetic_cost(k as u64 * self.span_size);
        for p in k..k + self.m() {
            let dev = self.devs[p];
            slowest = slowest.max(charge_local(topo, ledger, dev, self.span_size, AccessOp::Write, now));
            self.bytes_written += self.span_size;
        }
        Ok(slowest + parity_cost)
    }

    /// Bounds-checks the logical window `[offset, offset + len)` and
    /// returns its end.
    fn check_window(&self, offset: u64, len: usize) -> Result<u64, FtolError> {
        let len = len as u64;
        match offset.checked_add(len) {
            Some(end) if end <= self.size => Ok(end),
            _ => Err(FtolError::OutOfBounds { offset, len, size: self.size }),
        }
    }

    /// Reads `buf.len()` bytes at logical `offset`. If every needed data
    /// span is alive and uncorrupted this is a plain parallel read; if
    /// any is lost — its device failed, its node crashed, or its bytes
    /// overlap a corrupted range — the read degrades to reconstruction:
    /// fetch `k` trustworthy surviving spans and decode the lost ones.
    /// (On the host, needed spans that survive are served from the pool
    /// and only the lost windows are decoded, straight into `buf`.)
    /// Returns the duration and whether the read was degraded; an empty
    /// read is `(ZERO, false)`.
    #[allow(clippy::too_many_arguments)]
    pub fn read(
        &self,
        mgr: &RegionManager,
        topo: &Topology,
        ledger: &mut BandwidthLedger,
        faults: &FaultInjector,
        offset: u64,
        buf: &mut [u8],
        now: SimTime,
    ) -> Result<(SimDuration, bool), FtolError> {
        let end = self.check_window(offset, buf.len())?;
        if buf.is_empty() {
            return Ok((SimDuration::ZERO, false));
        }
        let alive = self.trusted(mgr, topo, faults, now);
        let k = self.k();

        if self.pieces(offset, end).all(|(span, ..)| alive.contains(&span)) {
            let mut slowest = SimDuration::ZERO;
            let mut dst = 0usize;
            for (span, within, take) in self.pieces(offset, end) {
                mgr.read(self.spans[span], self.owner, within, &mut buf[dst..dst + take])?;
                let dev = self.devs[span];
                slowest = slowest.max(charge_local(topo, ledger, dev, take as u64, AccessOp::Read, now));
                dst += take;
            }
            return Ok((slowest, false));
        }

        // Degraded read: fetch k surviving spans, decode what is missing.
        if alive.len() < k {
            return Err(FtolError::Unrecoverable {
                alive: alive.len(),
                needed: k,
            });
        }
        let fetch = self.charge_fetch(topo, ledger, &alive[..k], now);
        let total = fetch + self.arithmetic_cost(self.span_size);

        let mut dst = 0usize;
        for (span, within, take) in self.pieces(offset, end) {
            let out = &mut buf[dst..dst + take];
            if alive.contains(&span) {
                mgr.read(self.spans[span], self.owner, within, out)?;
            } else {
                self.decode_into(mgr, &alive[..k], span, within as usize, out)?;
            }
            dst += take;
        }
        Ok((total, true))
    }

    /// Decodes columns `[lo, lo + out.len())` of span `target` from the
    /// pool's bytes of the `k` spans `from`.
    fn decode_into(
        &self,
        mgr: &RegionManager,
        from: &[usize],
        target: usize,
        lo: usize,
        out: &mut [u8],
    ) -> Result<(), FtolError> {
        let present: Vec<(usize, &[u8])> = from
            .iter()
            .map(|&i| Ok((i, &mgr.bytes(self.spans[i], self.owner)?[lo..lo + out.len()])))
            .collect::<Result<_, FtolError>>()?;
        Ok(self.rs.decode_shard(&present, target, out)?)
    }

    /// Rebuilds the span lost on `lost` onto `spare`: read `k` surviving
    /// spans a read would trust (alive and uncorrupted), decode the lost
    /// one (and only it), write it — on the host, the decoded buffer
    /// becomes the new span. Returns the recovery duration.
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
        if self.alive(topo, faults, now).contains(&lost) {
            return Err(FtolError::ReplicaNotLost(lost));
        }
        let alive = self.trusted(mgr, topo, faults, now);
        let k = self.k();
        if alive.len() < k {
            return Err(FtolError::Unrecoverable {
                alive: alive.len(),
                needed: k,
            });
        }
        let fetch = self.charge_fetch(topo, ledger, &alive[..k], now);
        let mut rebuilt = vec![0u8; self.span_size as usize];
        self.decode_into(mgr, &alive[..k], lost, 0, &mut rebuilt)?;
        let decode = self.arithmetic_cost(self.span_size);

        let new = alloc_on(mgr, &[spare], self.span_size, self.owner, now)?[0];
        mgr.replace_contents(new, self.owner, rebuilt)?;
        let _ = mgr.release(self.spans[lost], self.owner);
        self.spans[lost] = new;
        self.devs[lost] = spare;
        let write = charge_local(topo, ledger, spare, self.span_size, AccessOp::Write, now);
        self.bytes_written += self.span_size;
        Ok(fetch + decode + write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disagg_hwsim::contention::ResourceKey;
    use disagg_hwsim::device::AccessPattern;
    use disagg_hwsim::fault::{FaultEvent, FaultKind};
    use disagg_hwsim::presets::disaggregated_rack;

    const OWNER: OwnerId = OwnerId::App;

    fn fixture(blades: usize) -> (Topology, RegionManager, BandwidthLedger, Vec<MemDeviceId>) {
        let (topo, rack) = disaggregated_rack(2, 32, blades, 64);
        let mgr = RegionManager::new(&topo);
        (topo, mgr, BandwidthLedger::default_buckets(), rack.pool)
    }

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn create_validates_devices_and_domains() {
        let (topo, mut mgr, _, pool) = fixture(4);
        assert!(matches!(
            StripedRegion::create(&mut mgr, &topo, &pool[..3], 1 << 20, 3, 1, OWNER, SimTime::ZERO),
            Err(FtolError::NotEnoughDevices { .. })
        ));
        let dup = [pool[0], pool[0], pool[1], pool[2]];
        assert!(matches!(
            StripedRegion::create(&mut mgr, &topo, &dup, 1 << 20, 3, 1, OWNER, SimTime::ZERO),
            Err(FtolError::SharedFailureDomain(_, _))
        ));
        let sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 1 << 20, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        assert_eq!(sr.k(), 3);
        assert_eq!(sr.m(), 1);
        assert!((sr.overhead() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn write_read_round_trip_spanning_spans() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(2500);
        // Offset 100 spans all three data spans (span_size = 1000).
        sr.write(&mut mgr, &topo, &mut ledger, 100, &data, SimTime::ZERO)
            .unwrap();
        let mut buf = vec![0u8; 2500];
        let faults = FaultInjector::none();
        let (took, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 100, &mut buf, SimTime::ZERO)
            .unwrap();
        assert!(!degraded);
        assert!(took > SimDuration::ZERO);
        assert_eq!(buf, data);
    }

    #[test]
    fn parity_amplifies_writes_less_than_replication() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(3000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .unwrap();
        // 3000 data bytes + 1000 parity = 4000 written; 2x replication
        // of the same data would write 6000.
        assert_eq!(sr.bytes_written, 4000);
    }

    #[test]
    fn degraded_read_survives_a_lost_data_span() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(3000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .unwrap();
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(5),
            kind: FaultKind::DeviceFail(sr.devs[1]),
        }]);
        let mut buf = vec![0u8; 3000];
        let (took_degraded, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(10))
            .unwrap();
        assert!(degraded);
        assert_eq!(buf, data, "reconstruction must restore exact bytes");

        // A healthy read of the same range is faster than the degraded one.
        let mut ledger2 = BandwidthLedger::default_buckets();
        let none = FaultInjector::none();
        let (took_ok, _) = sr
            .read(&mgr, &topo, &mut ledger2, &none, 0, &mut buf, SimTime(10))
            .unwrap();
        assert!(took_degraded > took_ok);
    }

    #[test]
    fn corrupted_span_triggers_degraded_decode() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(3000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .unwrap();
        // Silent corruption inside data span 1: the span stays alive but
        // cannot be trusted as a read or reconstruction source.
        let p = mgr.placement(sr.spans[1]).unwrap();
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(5),
            kind: FaultKind::Corrupt { dev: p.dev, offset: p.offset + 10, len: 4 },
        }]);
        let mut buf = vec![0u8; 3000];
        let (_, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(10))
            .unwrap();
        assert!(degraded, "a corrupt span must not be read directly");
        assert_eq!(buf, data, "decode restores the exact bytes");
    }

    #[test]
    fn too_many_losses_are_unrecoverable() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        sr.write(&mut mgr, &topo, &mut ledger, 0, &payload(3000), SimTime::ZERO)
            .unwrap();
        let faults = FaultInjector::with_events(vec![
            FaultEvent {
                at: SimTime(1),
                kind: FaultKind::DeviceFail(sr.devs[0]),
            },
            FaultEvent {
                at: SimTime(1),
                kind: FaultKind::DeviceFail(sr.devs[1]),
            },
        ]);
        let mut buf = vec![0u8; 100];
        assert!(matches!(
            sr.read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(2)),
            Err(FtolError::Unrecoverable { alive: 2, needed: 3 })
        ));
    }

    #[test]
    fn recovery_rebuilds_the_lost_span() {
        let (topo, mut mgr, mut ledger, pool) = fixture(5);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(3000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO)
            .unwrap();
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(5),
            kind: FaultKind::DeviceFail(sr.devs[2]),
        }]);
        let took = sr
            .recover(&mut mgr, &topo, &mut ledger, &faults, 2, pool[4], SimTime(10))
            .unwrap();
        assert!(took > SimDuration::ZERO);
        assert_eq!(sr.devs[2], pool[4]);
        // After recovery, a normal (non-degraded) read sees correct data.
        let mut buf = vec![0u8; 3000];
        let (_, degraded) = sr
            .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(20))
            .unwrap();
        assert!(!degraded);
        assert_eq!(buf, data);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 1000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        assert!(matches!(
            sr.write(&mut mgr, &topo, &mut ledger, 990, &[0u8; 20], SimTime::ZERO),
            Err(FtolError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 20];
        let faults = FaultInjector::none();
        assert!(matches!(
            sr.read(&mgr, &topo, &mut ledger, &faults, 990, &mut buf, SimTime::ZERO),
            Err(FtolError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn empty_reads_and_writes_cost_nothing_and_never_underflow() {
        let (topo, mut mgr, mut ledger, pool) = fixture(4);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..4], 3000, 3, 1, OWNER, SimTime::ZERO)
                .unwrap();
        sr.write(&mut mgr, &topo, &mut ledger, 0, &payload(3000), SimTime::ZERO)
            .unwrap();
        let written = sr.bytes_written;
        let crash = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(1),
            kind: FaultKind::DeviceFail(sr.devs[0]),
        }]);
        for faults in [&FaultInjector::none(), &crash] {
            for offset in [0u64, 1, 1000, 3000] {
                assert_eq!(
                    sr.read(&mgr, &topo, &mut ledger, faults, offset, &mut [], SimTime(2)),
                    Ok((SimDuration::ZERO, false)),
                    "empty read at {offset}"
                );
                assert_eq!(
                    sr.write(&mut mgr, &topo, &mut ledger, offset, &[], SimTime(2)),
                    Ok(SimDuration::ZERO),
                    "empty write at {offset}"
                );
            }
        }
        assert_eq!(sr.bytes_written, written, "an empty write rewrites no parity");
        // Past the end — and past u64 — is still a typed error.
        for offset in [3001, u64::MAX] {
            assert!(matches!(
                sr.read(&mgr, &topo, &mut ledger, &crash, offset, &mut [], SimTime(2)),
                Err(FtolError::OutOfBounds { .. })
            ));
            assert!(matches!(
                sr.write(&mut mgr, &topo, &mut ledger, offset, &[0u8; 2], SimTime(2)),
                Err(FtolError::OutOfBounds { .. })
            ));
        }
    }

    #[test]
    fn recovery_decodes_only_from_spans_a_read_would_trust() {
        let (topo, mut mgr, mut ledger, pool) = fixture(7);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..6], 4000, 4, 2, OWNER, SimTime::ZERO)
                .unwrap();
        let data = payload(4000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO).unwrap();
        // Span 0's device fails and span 1 is silently corrupted: the
        // decode must fetch spans 2..6, never span 1.
        let p1 = mgr.placement(sr.spans[1]).unwrap();
        let faults = FaultInjector::with_events(vec![
            FaultEvent { at: SimTime(5), kind: FaultKind::DeviceFail(sr.devs[0]) },
            FaultEvent {
                at: SimTime(5),
                kind: FaultKind::Corrupt { dev: p1.dev, offset: p1.offset + 10, len: 4 },
            },
        ]);
        let corrupt = sr.devs[1];
        let mut ledger = BandwidthLedger::default_buckets();
        sr.recover(&mut mgr, &topo, &mut ledger, &faults, 0, pool[6], SimTime(10))
            .unwrap();
        assert_eq!(ledger.stats(ResourceKey::Mem(corrupt)).reservations, 0);
        for &dev in &sr.devs[2..] {
            assert_eq!(ledger.stats(ResourceKey::Mem(dev)).reservations, 1, "fetched {dev}");
        }
        assert!(mgr.bytes(sr.spans[0], OWNER).unwrap() == &data[..1000], "span 0 rebuilt");

        // With one more span lost, fewer than k clean spans survive.
        let faults = FaultInjector::with_events(vec![
            FaultEvent { at: SimTime(5), kind: FaultKind::DeviceFail(sr.devs[0]) },
            FaultEvent { at: SimTime(5), kind: FaultKind::DeviceFail(sr.devs[2]) },
            FaultEvent {
                at: SimTime(5),
                kind: FaultKind::Corrupt { dev: p1.dev, offset: p1.offset, len: 1 },
            },
        ]);
        assert!(matches!(
            sr.recover(&mut mgr, &topo, &mut ledger, &faults, 0, pool[2], SimTime(10)),
            Err(FtolError::Unrecoverable { alive: 3, needed: 4 })
        ));
    }

    #[test]
    fn every_charge_on_an_idle_ledger_is_the_access_formula() {
        use disagg_hwsim::topology::{AccessCostParts, PathCost};
        let (topo, mut mgr, _, pool) = fixture(7);
        let span = 1u64 << 18;
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..6], 4 * span, 4, 2, OWNER, SimTime::ZERO)
                .unwrap();
        let local = |bytes, op| {
            let cxl = topo.mem(pool[0]);
            AccessCostParts::of(cxl, PathCost::LOCAL, bytes, op, AccessPattern::Sequential).total()
        };
        let idle = BandwidthLedger::default_buckets;
        let near = |a: SimDuration, b: SimDuration| a.as_nanos().abs_diff(b.as_nanos()) <= 1;

        // A full write: every span written in parallel, plus parity
        // arithmetic over the k data spans.
        let data = payload(4 * span as usize);
        let write = sr
            .write(&mut mgr, &topo, &mut idle(), 0, &data, SimTime::ZERO)
            .unwrap();
        let want = local(span, AccessOp::Write) + sr.arithmetic_cost(4 * span);
        assert!(near(write, want), "write {write} vs {want}");

        let none = FaultInjector::none();
        let mut buf = vec![0u8; 4096];
        let (read, _) = sr
            .read(&mgr, &topo, &mut idle(), &none, 7, &mut buf, SimTime(1))
            .unwrap();
        assert!(near(read, local(4096, AccessOp::Read)), "read {read}");

        // A degraded read fetches k whole spans, then decodes one.
        let crash = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::DeviceFail(sr.devs[0]),
        }]);
        let (degraded, _) = sr
            .read(&mgr, &topo, &mut idle(), &crash, 7, &mut buf, SimTime(1))
            .unwrap();
        let want = local(span, AccessOp::Read) + sr.arithmetic_cost(span);
        assert!(near(degraded, want), "degraded read {degraded} vs {want}");
    }

    #[test]
    fn parity_computed_whole_and_rebuilt_spans_are_adopted_and_stay_consistent() {
        let (topo, mut mgr, mut ledger, pool) = fixture(7);
        let mut sr =
            StripedRegion::create(&mut mgr, &topo, &pool[..6], 4000, 4, 2, OWNER, SimTime::ZERO)
                .unwrap();
        let rs = ReedSolomon::new(4, 2).unwrap();
        let paid = |mgr: &RegionManager| mgr.pool().bytes_materialized();
        let mut data = payload(4000);
        sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO).unwrap();
        assert!(rs.verify(&span_bytes(&sr, &mgr)).unwrap());
        assert_eq!(paid(&mgr), 6 * 1000, "every span once, parity adopted");

        // A write into two spans' edges re-encodes 150 columns in place;
        // one that covers every column adopts fresh parity again.
        for (offset, len, adopted) in [(900, 150, 0), (500, 3000, 2 * 1000)] {
            let before = paid(&mgr);
            let patch = vec![offset as u8; len];
            sr.write(&mut mgr, &topo, &mut ledger, offset as u64, &patch, SimTime(1)).unwrap();
            data[offset..offset + len].copy_from_slice(&patch);
            assert!(rs.verify(&span_bytes(&sr, &mgr)).unwrap(), "parity after [{offset}, +{len})");
            assert_eq!(paid(&mgr) - before, adopted);
        }

        // Recovery decodes one span into the buffer that becomes it.
        let faults = FaultInjector::with_events(vec![FaultEvent {
            at: SimTime(5),
            kind: FaultKind::DeviceFail(sr.devs[1]),
        }]);
        let before = paid(&mgr);
        sr.recover(&mut mgr, &topo, &mut ledger, &faults, 1, pool[6], SimTime(10)).unwrap();
        assert_eq!(paid(&mgr) - before, 1000, "exactly one span");
        assert!(rs.verify(&span_bytes(&sr, &mgr)).unwrap());
        let mut buf = vec![0u8; 4000];
        sr.read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(20)).unwrap();
        assert_eq!(buf, data);
    }

    /// The six spans of `sr` as the codec sees them.
    fn span_bytes(sr: &StripedRegion, mgr: &RegionManager) -> Vec<Vec<u8>> {
        sr.spans.iter().map(|&s| mgr.bytes(s, OWNER).unwrap().to_vec()).collect()
    }

    /// RS(4+2) over `size` bytes: every single- and double-span loss is
    /// read back degraded at unaligned windows, recovered, and read back
    /// healthy; every returned duration is the one the pre-kernel code
    /// returned (`want`, harvested by running this test on PR 13's tree).
    fn exercise_rs42(size: usize, windows: &[(usize, usize)], want: &Durations) {
        let (topo, mut mgr, mut ledger, pool) = fixture(8);
        let mut sr = StripedRegion::create(
            &mut mgr, &topo, &pool[..6], size as u64, 4, 2, OWNER, SimTime::ZERO,
        )
        .unwrap();
        let mut data = vec![0u8; size];
        disagg_hwsim::rng::SimRng::new(size as u64).fill_bytes(&mut data);
        let took = sr.write(&mut mgr, &topo, &mut ledger, 0, &data, SimTime::ZERO).unwrap();
        assert_eq!(took.as_nanos(), want.write, "write");
        let spans = span_bytes(&sr, &mgr);
        assert!(ReedSolomon::new(4, 2).unwrap().verify(&spans).unwrap());

        let mut spares = vec![pool[6], pool[7]];
        let mut buf = vec![0u8; size];
        let losses = (0..6).flat_map(|a| (a..6).map(move |b| (a, b)));
        for (a, b) in losses {
            // `a == b` is the single loss of span a.
            let lost: Vec<usize> = if a == b { vec![a] } else { vec![a, b] };
            let faults = FaultInjector::with_events(
                lost.iter()
                    .map(|&i| FaultEvent { at: SimTime(5), kind: FaultKind::DeviceFail(sr.devs[i]) })
                    .collect(),
            );
            let degraded_expected = lost.iter().any(|&i| i < 4);

            let mut ledger = BandwidthLedger::default_buckets();
            buf.fill(0);
            let (took, degraded) = sr
                .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(10))
                .unwrap();
            assert_eq!(degraded, degraded_expected, "lost {lost:?}");
            assert!(buf == data, "full read after losing {lost:?}");
            let full = if degraded { want.degraded } else { want.healthy_full };
            assert_eq!(took.as_nanos(), full, "full read, lost {lost:?}");

            for (w, &(offset, len)) in windows.iter().enumerate() {
                let mut ledger = BandwidthLedger::default_buckets();
                let out = &mut buf[..len];
                out.fill(0);
                let (took, degraded) = sr
                    .read(&mgr, &topo, &mut ledger, &faults, offset as u64, out, SimTime(10))
                    .unwrap();
                assert!(out == &data[offset..offset + len], "window {w}, lost {lost:?}");
                if degraded {
                    // k whole spans are fetched however small the window.
                    assert_eq!(took.as_nanos(), want.degraded, "window {w}, lost {lost:?}");
                }
            }

            for &i in &lost {
                let mut ledger = BandwidthLedger::default_buckets();
                let spare = spares.remove(0);
                spares.push(sr.devs[i]);
                let took = sr
                    .recover(&mut mgr, &topo, &mut ledger, &faults, i, spare, SimTime(20))
                    .unwrap();
                assert_eq!(took.as_nanos(), want.recover, "recover {i} of {lost:?}");
            }
            let mut ledger = BandwidthLedger::default_buckets();
            buf.fill(0);
            let (took, degraded) = sr
                .read(&mgr, &topo, &mut ledger, &faults, 0, &mut buf, SimTime(30))
                .unwrap();
            assert!(!degraded && buf == data, "healthy read after recovering {lost:?}");
            assert_eq!(took.as_nanos(), want.healthy_full, "healthy read after {lost:?}");
            // Rebuilt spans, parity included, hold what was encoded.
            for (i, want) in spans.iter().enumerate() {
                assert!(mgr.bytes(sr.spans[i], OWNER).unwrap() == want, "span {i} after {lost:?}");
            }
        }
    }

    /// Virtual-time results of [`exercise_rs42`], nanoseconds.
    struct Durations {
        write: u64,
        healthy_full: u64,
        degraded: u64,
        recover: u64,
    }

    #[test]
    fn rs42_over_block_aligned_spans_survives_every_loss_at_the_pinned_cost() {
        // The benchmark's 12 MiB shape (spans a multiple of the kernel's
        // 128-byte block) at an eighth of the size, for debug-build time.
        let span = 3 << 17;
        exercise_rs42(
            4 * span,
            &[(1, 4097), (span - 13, 29), (2 * span + 5, span + 777), (4 * span - 1, 1)],
            &Durations { write: 799_790, healthy_full: 13_358, degraded: 209_966, recover: 223_324 },
        );
    }

    #[test]
    fn rs42_over_an_odd_sized_region_survives_every_loss_at_the_pinned_cost() {
        // 1 000 003 % 4 == 3: the last data span is part padding.
        let span = 250_001;
        exercise_rs42(
            1_000_003,
            &[(1, 4097), (span - 13, 29), (2 * span + 5, span + 777), (1_000_002, 1)],
            &Durations { write: 508_587, healthy_full: 8_585, degraded: 133_586, recover: 142_171 },
        );
    }
}
