//! Kernel cost descriptions and roofline timing.

use crate::device::{DeviceSpec, Precision};

/// An abstract GPU kernel's resource demands.
///
/// Timing follows the roofline model: the kernel takes
/// `max(flop_time, memory_time) + serial_time`, where memory traffic is
/// multiplied by the device's non-coalesced penalty when
/// [`KernelCost::coalesced`] is false, and `serial_time` charges
/// [`DeviceSpec::serial_step_latency`] per serialized step.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelCost {
    /// Floating-point operations.
    pub flops: f64,
    /// Bytes moved to/from HBM.
    pub bytes: f64,
    /// Whether HBM accesses are coalesced/streaming.
    pub coalesced: bool,
    /// Number of inherently serialized steps (dependent kernel launches).
    pub serial_steps: f64,
    /// Math precision (selects the flop rate).
    pub precision: Option<Precision>,
}

impl KernelCost {
    /// A kernel that does nothing.
    pub fn zero() -> KernelCost {
        KernelCost {
            coalesced: true,
            ..Default::default()
        }
    }

    /// A streaming (coalesced) kernel.
    pub fn streaming(flops: f64, bytes: f64) -> KernelCost {
        KernelCost {
            flops,
            bytes,
            coalesced: true,
            serial_steps: 1.0,
            precision: Some(Precision::Fp32),
        }
    }

    /// A kernel with data-dependent, non-coalesced accesses.
    pub fn scattered(flops: f64, bytes: f64) -> KernelCost {
        KernelCost {
            flops,
            bytes,
            coalesced: false,
            serial_steps: 1.0,
            precision: Some(Precision::Fp32),
        }
    }

    /// Accumulates another kernel's demands into this one (sequential
    /// composition).
    pub fn add(&mut self, other: KernelCost) {
        self.flops += other.flops;
        // Non-coalesced traffic is pre-multiplied at timing; track it by
        // folding the penalty into a "weighted bytes" scheme instead: we keep
        // it simple by storing the worst-case coalescing flag only when the
        // other kernel dominates traffic. For exactness, compose with
        // `seconds()` instead; `add` exists for coarse aggregation of
        // same-shaped kernels.
        self.coalesced = self.coalesced && other.coalesced;
        self.bytes += other.bytes;
        self.serial_steps += other.serial_steps;
        if self.precision.is_none() {
            self.precision = other.precision;
        }
    }

    /// Roofline execution time on `device`, in seconds.
    pub fn seconds(&self, device: &DeviceSpec) -> f64 {
        let rate = device.flops(self.precision.unwrap_or(Precision::Fp32));
        let flop_time = if self.flops > 0.0 {
            self.flops / rate
        } else {
            0.0
        };
        let penalty = if self.coalesced {
            1.0
        } else {
            device.non_coalesced_penalty
        };
        let mem_time = self.bytes * penalty / device.mem_bandwidth;
        flop_time.max(mem_time) + self.serial_steps * device.serial_step_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bound_kernel_times_by_bandwidth() {
        let d = DeviceSpec::a100();
        let k = KernelCost::streaming(0.0, 1.3e12); // exactly one second of traffic
        let t = k.seconds(&d);
        assert!((t - (1.0 + d.serial_step_latency)).abs() < 1e-9);
    }

    #[test]
    fn non_coalesced_pays_penalty() {
        let d = DeviceSpec::a100();
        let fast = KernelCost::streaming(0.0, 1e9).seconds(&d);
        let slow = KernelCost::scattered(0.0, 1e9).seconds(&d);
        let ratio = (slow - d.serial_step_latency) / (fast - d.serial_step_latency);
        assert!((ratio - d.non_coalesced_penalty).abs() < 1e-6);
    }

    #[test]
    fn compute_bound_kernel_times_by_flops() {
        let d = DeviceSpec::a100();
        let k = KernelCost {
            flops: d.fp32_flops, // one second of math
            bytes: 1.0,
            coalesced: true,
            serial_steps: 0.0,
            precision: Some(Precision::Fp32),
        };
        assert!((k.seconds(&d) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn serial_steps_dominate_tiny_kernels() {
        let d = DeviceSpec::a100();
        let k = KernelCost {
            flops: 100.0,
            bytes: 100.0,
            coalesced: true,
            serial_steps: 1000.0,
            precision: Some(Precision::Fp32),
        };
        let t = k.seconds(&d);
        assert!(t >= 1000.0 * d.serial_step_latency);
    }

    #[test]
    fn add_composes() {
        let mut a = KernelCost::streaming(10.0, 20.0);
        a.add(KernelCost::scattered(1.0, 2.0));
        assert_eq!(a.flops, 11.0);
        assert_eq!(a.bytes, 22.0);
        assert!(!a.coalesced);
        assert_eq!(a.serial_steps, 2.0);
    }
}
