//! Compute-device models.
//!
//! The paper's Figure 1 pools CPUs, GPUs, TPUs, and FPGAs behind a runtime
//! system; the simulation models the two kinds its experiments place work
//! on, CPUs and GPUs. For placement and scheduling, what matters about a compute
//! device is (a) how fast it executes a given class of work, (b) how many
//! concurrent tasks it can host, and (c) which memories are *local* to it —
//! the crux of Figure 3, where the "fast and local" region maps to DRAM for
//! a CPU but GDDR for a GPU.

use crate::calibration;
use crate::ids::MemDeviceId;
use crate::time::SimDuration;

/// The classes of compute devices in the disaggregated pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ComputeKind {
    /// General-purpose CPU.
    Cpu,
    /// Throughput-oriented GPU.
    Gpu,
}

impl ComputeKind {
    /// All compute kinds.
    pub const ALL: [ComputeKind; 2] = [ComputeKind::Cpu, ComputeKind::Gpu];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ComputeKind::Cpu => "CPU",
            ComputeKind::Gpu => "GPU",
        }
    }
}

/// The class of work a task performs, used to pick the per-element cost on
/// a given compute device. Mirrors the workloads of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Pointer-chasing / branchy scalar code (DBMS operators, parsing).
    Scalar,
    /// Data-parallel elementwise work (filters, transforms, codecs).
    Vector,
    /// Dense linear algebra (ML training/inference).
    Tensor,
    /// Cryptographic / bit-level transforms.
    Crypto,
}

/// A calibrated compute-device model.
#[derive(Debug, Clone)]
pub struct ComputeModel {
    /// Device class.
    pub kind: ComputeKind,
    /// Number of tasks the device can execute concurrently without slowdown
    /// (cores for a CPU, SM groups for a GPU, ...).
    pub slots: u32,
    /// Per-element execution cost in nanoseconds for each work class:
    /// `[Scalar, Vector, Tensor, Crypto]`.
    pub ns_per_elem: [f64; 4],
    /// Memory devices that are *local* to this compute device (attached to
    /// the same socket/package). Filled in by the topology builder.
    pub local_mem: Vec<MemDeviceId>,
    /// Fixed cost to launch a task on this device (kernel-launch /
    /// reconfiguration overhead), in nanoseconds.
    pub launch_overhead_ns: f64,
}

impl ComputeModel {
    /// The default model for a compute kind: its record in the machine
    /// table ([`calibration::compute`]).
    pub fn preset(kind: ComputeKind) -> ComputeModel {
        let r = calibration::compute(kind);
        ComputeModel {
            kind,
            slots: r.slots.value,
            ns_per_elem: r.ns_per_elem.map(|e| e.value),
            local_mem: Vec::new(),
            launch_overhead_ns: r.launch_overhead_ns.value,
        }
    }

    /// Per-element cost in nanoseconds for a work class.
    pub fn elem_cost(&self, class: WorkClass) -> f64 {
        let idx = match class {
            WorkClass::Scalar => 0,
            WorkClass::Vector => 1,
            WorkClass::Tensor => 2,
            WorkClass::Crypto => 3,
        };
        self.ns_per_elem[idx]
    }

    /// Cost of executing `elems` elements of `class` work, plus launch
    /// overhead. Use for whole-task estimates; inline work inside a
    /// running task uses [`ComputeModel::work_cost`].
    pub fn exec_cost(&self, class: WorkClass, elems: u64) -> SimDuration {
        SimDuration::from_nanos_f64(self.launch_overhead_ns + self.elem_cost(class) * elems as f64)
    }

    /// Cost of `elems` elements of `class` work with no launch overhead
    /// (the task is already running on the device).
    pub fn work_cost(&self, class: WorkClass, elems: u64) -> SimDuration {
        SimDuration::from_nanos_f64(self.elem_cost(class) * elems as f64)
    }

    /// True if the given memory device is local to this compute device.
    pub fn is_local(&self, mem: MemDeviceId) -> bool {
        self.local_mem.contains(&mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_beats_cpu_on_vector_work() {
        let cpu = ComputeModel::preset(ComputeKind::Cpu);
        let gpu = ComputeModel::preset(ComputeKind::Gpu);
        assert!(gpu.elem_cost(WorkClass::Vector) < cpu.elem_cost(WorkClass::Vector));
        assert!(gpu.elem_cost(WorkClass::Tensor) < cpu.elem_cost(WorkClass::Tensor));
    }

    #[test]
    fn cpu_beats_gpu_on_scalar_work() {
        let cpu = ComputeModel::preset(ComputeKind::Cpu);
        let gpu = ComputeModel::preset(ComputeKind::Gpu);
        assert!(cpu.elem_cost(WorkClass::Scalar) < gpu.elem_cost(WorkClass::Scalar));
    }

    #[test]
    fn exec_cost_includes_launch_overhead() {
        let gpu = ComputeModel::preset(ComputeKind::Gpu);
        let zero = gpu.exec_cost(WorkClass::Vector, 0);
        assert_eq!(zero.as_nanos(), 10_000);
        let some = gpu.exec_cost(WorkClass::Vector, 1_000_000);
        assert!(some > zero);
    }

    #[test]
    fn accelerators_pay_higher_launch_overhead_than_cpu() {
        let cpu = ComputeModel::preset(ComputeKind::Cpu).launch_overhead_ns;
        assert!(ComputeModel::preset(ComputeKind::Gpu).launch_overhead_ns > cpu);
    }

    #[test]
    fn locality_checks_use_topology_fill_in() {
        let mut cpu = ComputeModel::preset(ComputeKind::Cpu);
        assert!(!cpu.is_local(MemDeviceId(0)));
        cpu.local_mem.push(MemDeviceId(0));
        assert!(cpu.is_local(MemDeviceId(0)));
        assert!(!cpu.is_local(MemDeviceId(1)));
    }
}
