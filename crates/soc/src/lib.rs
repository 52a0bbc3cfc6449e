//! Mobile SoC hardware models for the `aitax` simulator.
//!
//! The paper's measurements span four Qualcomm Snapdragon chipsets
//! (Table II: SD835, SD845, SD855, SD865), each pairing a big.LITTLE CPU
//! with an Adreno-class GPU and a Hexagon-class compute DSP. Real silicon is
//! not available in this environment, so this crate models the *performance-
//! relevant* properties of those parts:
//!
//! * [`CpuCoreSpec`]/`CpuClusterSpec` — per-core frequency and peak
//!   per-cycle arithmetic throughput, plus the migration (cache-warmup)
//!   penalty the scheduler charges when a task hops cores,
//! * [`GpuSpec`] / [`DspSpec`] — accelerator throughput and invocation
//!   overheads (kernel launch, FastRPC),
//! * `MemorySpec` — AXI bandwidth, DMA and cache-flush costs that dominate
//!   the offload path of Figure 7,
//! * `ThermalModel` — the throttling behaviour that motivates the paper's
//!   §III-D cool-down methodology,
//! * [`catalog`] — calibrated instances for all four Table II platforms.
//!
//! Throughputs are *peak* numbers; achievable efficiency per operator kind
//! lives in `aitax-framework`'s cost model, mirroring how real frameworks
//! (not the silicon) determine delivered performance.

pub mod catalog;
mod cpu;
mod devices;
mod memory;
mod thermal;

pub use aitax_power::PowerSpec;
pub use catalog::{SocCatalog, SocId};
pub use cpu::ClusterKind;
use cpu::CpuClusterSpec;
pub use cpu::CpuCoreSpec;
use devices::NpuSpec;
pub use devices::{DspSpec, GpuSpec};
use memory::MemorySpec;
use thermal::ThermalModel;
pub use thermal::ThermalState;

/// Full specification of one SoC platform (one row of Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct SocSpec {
    /// Marketing name, e.g. `"Snapdragon 845"`.
    pub name: &'static str,
    /// Host system the paper measured it in, e.g. `"Google Pixel 3"`.
    pub host_system: &'static str,
    /// CPU clusters (big first).
    pub clusters: Vec<CpuClusterSpec>,
    /// The GPU block.
    pub gpu: GpuSpec,
    /// The compute DSP block.
    pub dsp: DspSpec,
    /// Dedicated NPU, when the chipset has one (SD865's tensor accelerator).
    pub npu: Option<NpuSpec>,
    /// Memory subsystem.
    pub memory: MemorySpec,
    /// Thermal behaviour.
    pub thermal: ThermalModel,
    /// Per-rail power description (one core rail per entry of [`cores`]).
    ///
    /// [`cores`]: SocSpec::cores
    pub power: PowerSpec,
}

impl SocSpec {
    /// Total number of CPU cores.
    pub(crate) fn core_count(&self) -> usize {
        self.clusters.iter().map(|c| c.count).sum()
    }

    /// Flattens clusters into one spec per core, big cores first.
    ///
    /// Core indices returned here are the canonical core ids used by the
    /// scheduler and the profiler.
    pub fn cores(&self) -> Vec<CpuCoreSpec> {
        let mut out = Vec::with_capacity(self.core_count());
        for cluster in &self.clusters {
            for _ in 0..cluster.count {
                out.push(cluster.core);
            }
        }
        out
    }

    /// Indices of the big (performance) cores.
    pub fn big_core_ids(&self) -> Vec<usize> {
        self.cores()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == ClusterKind::Big)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of the little (efficiency) cores.
    #[cfg(test)]
    fn little_core_ids(&self) -> Vec<usize> {
        self.cores()
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind == ClusterKind::Little)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cores_flatten_big_first() {
        let soc = catalog::SocCatalog::get(SocId::Sd845);
        let cores = soc.cores();
        assert_eq!(cores.len(), 8);
        assert_eq!(cores[0].kind, ClusterKind::Big);
        assert_eq!(cores[7].kind, ClusterKind::Little);
        assert_eq!(soc.big_core_ids(), vec![0, 1, 2, 3]);
        assert_eq!(soc.little_core_ids(), vec![4, 5, 6, 7]);
    }
}
