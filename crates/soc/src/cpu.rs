//! CPU core and cluster specifications.

use aitax_des::SimSpan;

/// Whether a core belongs to the performance or efficiency cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    /// Performance ("gold"/"prime") cores.
    Big,
    /// Efficiency ("silver") cores.
    Little,
}

/// Static description of one CPU core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCoreSpec {
    /// Which cluster the core belongs to.
    pub kind: ClusterKind,
    /// Nominal (un-throttled) clock in Hz.
    pub freq_hz: f64,
    /// Peak fp32 FLOPs retired per cycle (NEON FMA width × pipes × 2).
    pub fp32_flops_per_cycle: f64,
    /// Peak int8 ops retired per cycle (dot-product instructions).
    pub int8_ops_per_cycle: f64,
    /// Cache-warmup penalty charged when a task migrates onto this core.
    ///
    /// The paper's Figure 6 attributes NNAPI's fallback slowness partly to
    /// "frequent CPU migrations"; this is the per-migration cost.
    pub migration_penalty: SimSpan,
}

impl CpuCoreSpec {
    /// Peak fp32 throughput in FLOP/s at nominal frequency.
    #[inline]
    pub fn peak_fp32_flops(&self) -> f64 {
        self.freq_hz * self.fp32_flops_per_cycle
    }

    /// Peak int8 throughput in op/s at nominal frequency.
    #[inline]
    pub fn peak_int8_ops(&self) -> f64 {
        self.freq_hz * self.int8_ops_per_cycle
    }
}

/// A homogeneous cluster of cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuClusterSpec {
    /// The per-core spec.
    pub core: CpuCoreSpec,
    /// How many cores the cluster has.
    pub count: usize,
}

/// Convenience constructor for a big cluster.
///
/// `flops_per_cycle` captures the microarchitecture generation (A73-class
/// ≈6, A75 ≈8, A76 ≈9, A77 ≈10 effective fp32 FLOPs/cycle). The int8
/// rate is 2× the fp32 rate: these cores predate the `sdot` dot-product
/// instructions, so quantized kernels run on widening multiplies.
pub(crate) fn big_cluster(
    count: usize,
    freq_ghz: f64,
    migration_penalty_us: f64,
    flops_per_cycle: f64,
) -> CpuClusterSpec {
    CpuClusterSpec {
        core: CpuCoreSpec {
            kind: ClusterKind::Big,
            freq_hz: freq_ghz * 1e9,
            fp32_flops_per_cycle: flops_per_cycle,
            int8_ops_per_cycle: flops_per_cycle * 2.0,
            migration_penalty: SimSpan::from_us(migration_penalty_us),
        },
        count,
    }
}

/// Convenience constructor for a little cluster.
pub(crate) fn little_cluster(
    count: usize,
    freq_ghz: f64,
    migration_penalty_us: f64,
) -> CpuClusterSpec {
    CpuClusterSpec {
        core: CpuCoreSpec {
            kind: ClusterKind::Little,
            freq_hz: freq_ghz * 1e9,
            // Single 128-bit NEON pipe → 4 fp32 FLOPs/cycle.
            fp32_flops_per_cycle: 4.0,
            int8_ops_per_cycle: 8.0,
            migration_penalty: SimSpan::from_us(migration_penalty_us),
        },
        count,
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    fn core() -> CpuCoreSpec {
        big_cluster(1, 2.0, 50.0, 8.0).core
    }

    #[test]
    fn peak_throughputs() {
        let c = core();
        assert_eq!(c.peak_fp32_flops(), 16e9);
        assert_eq!(c.peak_int8_ops(), 32e9);
    }

    #[test]
    fn big_faster_than_little_per_cycle() {
        let b = big_cluster(1, 2.0, 50.0, 8.0).core;
        let l = little_cluster(1, 2.0, 50.0).core;
        assert!(b.peak_fp32_flops() > l.peak_fp32_flops());
        assert_eq!(b.kind, ClusterKind::Big);
        assert_eq!(l.kind, ClusterKind::Little);
    }
}
