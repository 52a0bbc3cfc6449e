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
    pub fn peak_fp32_flops(&self) -> f64 {
        self.freq_hz * self.fp32_flops_per_cycle
    }

    /// Peak int8 throughput in op/s at nominal frequency.
    pub fn peak_int8_ops(&self) -> f64 {
        self.freq_hz * self.int8_ops_per_cycle
    }

    /// Time to retire `cycles` core-cycles at a frequency multiplier
    /// (`1.0` = nominal; thermal throttling passes `< 1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `freq_multiplier` is not positive.
    pub fn span_for_cycles(&self, cycles: f64, freq_multiplier: f64) -> SimSpan {
        assert!(
            freq_multiplier > 0.0,
            "frequency multiplier must be positive"
        );
        let secs = cycles / (self.freq_hz * freq_multiplier);
        SimSpan::from_secs(secs.max(0.0))
    }

    /// Cycles retired in `span` at a frequency multiplier.
    pub fn cycles_in_span(&self, span: SimSpan, freq_multiplier: f64) -> f64 {
        span.as_secs() * self.freq_hz * freq_multiplier
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
pub fn big_cluster(
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
pub fn little_cluster(count: usize, freq_ghz: f64, migration_penalty_us: f64) -> CpuClusterSpec {
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
    fn span_for_cycles_at_nominal() {
        let c = core();
        // 2e9 cycles at 2 GHz = 1 s.
        let s = c.span_for_cycles(2e9, 1.0);
        assert!((s.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throttling_slows_execution() {
        let c = core();
        let nominal = c.span_for_cycles(1e9, 1.0);
        let throttled = c.span_for_cycles(1e9, 0.5);
        assert_eq!(throttled.as_ns(), nominal.as_ns() * 2);
    }

    #[test]
    fn cycles_span_round_trip() {
        let c = core();
        let span = c.span_for_cycles(123_456_789.0, 0.8);
        let cycles = c.cycles_in_span(span, 0.8);
        assert!((cycles - 123_456_789.0).abs() / 123_456_789.0 < 1e-6);
    }

    #[test]
    fn big_faster_than_little_per_cycle() {
        let b = big_cluster(1, 2.0, 50.0, 8.0).core;
        let l = little_cluster(1, 2.0, 50.0).core;
        assert!(b.peak_fp32_flops() > l.peak_fp32_flops());
        assert_eq!(b.kind, ClusterKind::Big);
        assert_eq!(l.kind, ClusterKind::Little);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_multiplier_panics() {
        core().span_for_cycles(1.0, 0.0);
    }
}
