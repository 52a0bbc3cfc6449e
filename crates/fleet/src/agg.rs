//! Streaming cohort aggregation over per-device partials.
//!
//! The aggregator folds [`DevicePartial`]s **in device order** — the
//! canonical sequence [`run_fleet`] returns — into one fleet-wide
//! [`Cohort`] plus per-chipset, per-thermal-band and per-engine
//! breakdowns. Because the fold order is fixed and every input partial
//! is itself a pure function of `(population seed, device id, request
//! budget)`, the aggregate (and the artifact bytes rendered from it) is
//! identical for any shard split or thread count. No sample vector ever
//! materializes: cohorts accumulate [`StreamDist`]s and [`Welford`]
//! moments, so a million-request fleet aggregates in constant memory.
//!
//! [`run_fleet`]: crate::shard::run_fleet

use std::collections::BTreeMap;

use aitax_core::{StreamDist, Welford};
use aitax_lab::agg::DegradationTotals;
use aitax_soc::SocId;

use crate::device::DevicePartial;
use crate::population::{PopulationSpec, ThermalBand};

/// Streaming accumulator of one device cohort.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cohort {
    /// Devices folded in.
    pub devices: usize,
    /// Requests those devices served.
    pub requests: u64,
    /// Per-request end-to-end latency distribution.
    pub latency: StreamDist,
    /// AI-tax fraction over active devices.
    pub tax: Welford,
    /// Model-initialization latency over active devices (ms).
    pub init: Welford,
    /// Energy per inference over active devices (mJ).
    pub energy_mj: Welford,
    /// Non-inference energy share over active devices.
    pub energy_tax: Welford,
    /// Mean power draw over active devices (W).
    pub power: Welford,
    /// Summed degradation counters.
    pub degradation: DegradationTotals,
}

impl Cohort {
    /// Folds one device's partial in. Call in device order — the float
    /// moments are merge-order-sensitive in the last bits, and the
    /// canonical order is what keeps artifacts byte-identical.
    pub(crate) fn fold(&mut self, p: &DevicePartial) {
        self.devices += 1;
        self.requests += p.requests;
        self.latency.merge(&p.latency);
        if p.requests > 0 {
            self.tax.push(p.tax_fraction);
            self.init.push(p.model_init_ms);
            self.energy_mj.push(p.energy_mj);
            self.energy_tax.push(p.energy_tax);
            self.power.push(p.mean_power_w);
            self.degradation.faults_injected += p.degradation.faults_injected;
            self.degradation.rpc_retries += p.degradation.rpc_retries;
            self.degradation.rpc_giveups += p.degradation.rpc_giveups;
            self.degradation.cpu_fallbacks += p.degradation.cpu_fallbacks;
            self.degradation.added_tax_ms += p.degradation.added_tax_ms;
        }
    }
}

/// The aggregated fleet: totals plus cohort breakdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Artifact schema version.
    pub schema: &'static str,
    /// Population name.
    pub population: String,
    /// Population seed.
    pub seed: u64,
    /// Devices simulated.
    pub devices: usize,
    /// Total requests served.
    pub requests: u64,
    /// Fleet-wide aggregate.
    pub total: Cohort,
    /// Per-chipset cohorts, [`SocId::ALL`] order (sampled chipsets only).
    pub by_chipset: Vec<(String, Cohort)>,
    /// Per-thermal-band cohorts, coldest first (sampled bands only).
    pub by_thermal: Vec<(String, Cohort)>,
    /// Per-engine cohorts, label order (sampled engines only).
    pub by_engine: Vec<(String, Cohort)>,
}

impl FleetReport {
    /// Aggregates `partials` (device order) for `spec`.
    ///
    /// # Panics
    ///
    /// Panics if the partials are not exactly the population in device
    /// order.
    pub fn aggregate(spec: &PopulationSpec, partials: &[DevicePartial]) -> FleetReport {
        assert_eq!(
            partials.len(),
            spec.devices,
            "partial count must match population"
        );
        assert!(
            partials.iter().enumerate().all(|(k, p)| p.device_id == k),
            "partials must arrive in device order"
        );
        let mut total = Cohort::default();
        let mut chipset: [Cohort; 4] = std::array::from_fn(|_| Cohort::default());
        let mut thermal: [Cohort; 4] = std::array::from_fn(|_| Cohort::default());
        let mut engine: BTreeMap<String, Cohort> = BTreeMap::new();
        for p in partials {
            total.fold(p);
            chipset[soc_index(p.soc)].fold(p);
            thermal[p.band.index()].fold(p);
            engine.entry(p.engine_label.clone()).or_default().fold(p);
        }
        let requests = total.requests;
        FleetReport {
            schema: "aitax-fleet/v1",
            population: spec.name.clone(),
            seed: spec.seed,
            devices: spec.devices,
            requests,
            total,
            by_chipset: SocId::ALL
                .iter()
                .zip(chipset)
                .filter(|(_, c)| c.devices > 0)
                .map(|(soc, c)| (soc.to_string(), c))
                .collect(),
            by_thermal: ThermalBand::ALL
                .iter()
                .zip(thermal)
                .filter(|(_, c)| c.devices > 0)
                .map(|(band, c)| (band.label().to_string(), c))
                .collect(),
            by_engine: engine.into_iter().collect(),
        }
    }
}

fn soc_index(soc: SocId) -> usize {
    match soc {
        SocId::Sd835 => 0,
        SocId::Sd845 => 1,
        SocId::Sd855 => 2,
        SocId::Sd865 => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::run_fleet;

    fn small_fleet() -> (PopulationSpec, Vec<DevicePartial>) {
        let spec = PopulationSpec::new("agg-test").devices(24).seed(3);
        let partials = run_fleet(&spec, 96, 4, 1);
        (spec, partials)
    }

    #[test]
    fn aggregate_reconciles_counts() {
        let (spec, partials) = small_fleet();
        let rep = FleetReport::aggregate(&spec, &partials);
        assert_eq!(rep.schema, "aitax-fleet/v1");
        assert_eq!(rep.devices, 24);
        assert_eq!(rep.requests, 96);
        assert_eq!(rep.total.latency.count(), 96);
        // Every cohort group partitions the fleet exactly.
        for group in [&rep.by_chipset, &rep.by_thermal, &rep.by_engine] {
            let devices: usize = group.iter().map(|(_, c)| c.devices).sum();
            let requests: u64 = group.iter().map(|(_, c)| c.requests).sum();
            let samples: u64 = group.iter().map(|(_, c)| c.latency.count()).sum();
            assert_eq!(devices, rep.devices);
            assert_eq!(requests, rep.requests);
            assert_eq!(samples, rep.total.latency.count());
        }
        assert!(rep.total.tax.mean() > 0.0);
        assert!(rep.total.energy_mj.mean() > 0.0);
        assert!(rep.total.latency.p50_ms() <= rep.total.latency.p99_ms());
    }

    #[test]
    fn aggregate_is_shard_and_thread_invariant() {
        let (spec, partials) = small_fleet();
        let reference = FleetReport::aggregate(&spec, &partials);
        for (shards, threads) in [(1, 1), (5, 2), (24, 3)] {
            let again = FleetReport::aggregate(&spec, &run_fleet(&spec, 96, shards, threads));
            assert_eq!(
                again, reference,
                "{shards} shards × {threads} threads must aggregate identically"
            );
        }
    }

    #[test]
    #[should_panic(expected = "device order")]
    fn out_of_order_partials_panic() {
        let (spec, mut partials) = small_fleet();
        partials.swap(0, 1);
        let _ = FleetReport::aggregate(&spec, &partials);
    }
}
