//! Weighted device-population sampling.
//!
//! A [`PopulationSpec`] describes a fleet as distributions — chipset mix
//! over the SD835–865 catalog, ambient thermal profile, battery state,
//! background-app pressure, per-device fault rate, and a workload mix —
//! and materializes device *k* with [`PopulationSpec::device`]. Sampling
//! uses the pure two-level stream `root.derive2(STREAM_*, k)`
//! ([`SimRng::derive2`], ids from [`aitax_des::rng`]), so a device is a function of
//! `(population seed, k)` alone: the same device appears at index *k*
//! regardless of shard split, thread count, or which other devices were
//! ever sampled.

use aitax_des::fault::FaultKind;
use aitax_des::rng::{STREAM_DEVICE, STREAM_PROBE, STREAM_RUN, STREAM_TENANT};
use aitax_des::SimRng;
use aitax_framework::Engine;
use aitax_models::zoo::ModelId;
use aitax_soc::SocId;
use aitax_tensor::DType;

/// Ambient thermal cohort a device falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ThermalBand {
    /// Below 15 °C ambient.
    Cold,
    /// 15–25 °C ambient.
    Cool,
    /// 25–33 °C ambient.
    Warm,
    /// 33 °C ambient and up.
    Hot,
}

impl ThermalBand {
    /// Every band, coldest first (cohort ordering in artifacts).
    pub const ALL: [ThermalBand; 4] = [
        ThermalBand::Cold,
        ThermalBand::Cool,
        ThermalBand::Warm,
        ThermalBand::Hot,
    ];

    /// Classifies an ambient temperature.
    pub fn from_ambient_c(c: f64) -> ThermalBand {
        if c < 15.0 {
            ThermalBand::Cold
        } else if c < 25.0 {
            ThermalBand::Cool
        } else if c < 33.0 {
            ThermalBand::Warm
        } else {
            ThermalBand::Hot
        }
    }

    /// Stable cohort label.
    pub fn label(&self) -> &'static str {
        match self {
            ThermalBand::Cold => "cold",
            ThermalBand::Cool => "cool",
            ThermalBand::Warm => "warm",
            ThermalBand::Hot => "hot",
        }
    }

    /// Position in [`ThermalBand::ALL`].
    pub fn index(&self) -> usize {
        match self {
            ThermalBand::Cold => 0,
            ThermalBand::Cool => 1,
            ThermalBand::Warm => 2,
            ThermalBand::Hot => 3,
        }
    }
}

/// How a workload's model execution is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// The chipset's ML accelerator, via whichever delegate fits it
    /// (SNPE DSP on SD835, the Hexagon delegate on SD845/855, NNAPI on
    /// SD865). Quantized models only.
    Accel,
    /// The TFLite GPU delegate.
    Gpu,
    /// The TFLite CPU interpreter with the given thread count.
    Cpu(usize),
}

impl ExecPath {
    /// The concrete engine this path maps to on `soc`.
    pub fn engine_for(&self, soc: SocId) -> Engine {
        match self {
            ExecPath::Accel => match soc {
                SocId::Sd835 => Engine::SnpeDsp,
                SocId::Sd845 | SocId::Sd855 => Engine::TfLiteHexagon { threads: 4 },
                SocId::Sd865 => Engine::nnapi(),
            },
            ExecPath::Gpu => Engine::TfLiteGpu { threads: 2 },
            ExecPath::Cpu(threads) => Engine::tflite_cpu(*threads),
        }
    }
}

/// One entry of the population's workload mix.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Stable workload label.
    pub label: &'static str,
    /// The model the app runs.
    pub model: ModelId,
    /// Numeric format.
    pub dtype: DType,
    /// Execution routing.
    pub path: ExecPath,
    /// Sampling weight (integer, exact).
    pub weight: u64,
}

/// The default workload mix: app archetypes the paper's Table 1 models
/// cover, weighted towards the light always-on vision models real fleets
/// are dominated by. Accelerated entries are quantized (the Hexagon and
/// SNPE DSP paths reject float graphs).
pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        label: "vision-mnv1-accel",
        model: ModelId::MobileNetV1,
        dtype: DType::I8,
        path: ExecPath::Accel,
        weight: 26,
    },
    WorkloadSpec {
        label: "vision-mnv1-cpu",
        model: ModelId::MobileNetV1,
        dtype: DType::F32,
        path: ExecPath::Cpu(4),
        weight: 16,
    },
    WorkloadSpec {
        label: "classifier-eff-accel",
        model: ModelId::EfficientNetLite0,
        dtype: DType::I8,
        path: ExecPath::Accel,
        weight: 14,
    },
    WorkloadSpec {
        label: "detector-ssd-accel",
        model: ModelId::SsdMobileNetV2,
        dtype: DType::I8,
        path: ExecPath::Accel,
        weight: 12,
    },
    WorkloadSpec {
        label: "pose-gpu",
        model: ModelId::PoseNet,
        dtype: DType::F32,
        path: ExecPath::Gpu,
        weight: 12,
    },
    WorkloadSpec {
        label: "classifier-sq-cpu",
        model: ModelId::SqueezeNet,
        dtype: DType::F32,
        path: ExecPath::Cpu(2),
        weight: 10,
    },
    WorkloadSpec {
        label: "segmenter-dlv3-accel",
        model: ModelId::DeeplabV3MobileNetV2,
        dtype: DType::I8,
        path: ExecPath::Accel,
        weight: 5,
    },
    WorkloadSpec {
        label: "classifier-inc3-cpu",
        model: ModelId::InceptionV3,
        dtype: DType::F32,
        path: ExecPath::Cpu(4),
        weight: 5,
    },
];

/// Chipset mix: share of each SoC in the fleet (integer weights, exact).
/// Skewed towards the SD845/855 mid-generation the way a real installed
/// base trails flagship launches.
pub const CHIPSET_MIX: [(SocId, u64); 4] = [
    (SocId::Sd835, 12),
    (SocId::Sd845, 38),
    (SocId::Sd855, 30),
    (SocId::Sd865, 20),
];

/// Background-app pressure mix: weight of running `i` concurrent
/// background inference loops.
pub const BACKGROUND_MIX: [u64; 4] = [45, 30, 17, 8];

/// Battery fraction under which a device enters saver mode (background
/// loops off, CPU interpreter capped at 2 threads).
pub const BATTERY_SAVER_BELOW: f64 = 0.20;

/// A second, co-resident serving tenant sampled onto a device: the
/// `aitax-serve` mix seen at population scale. The co-tenant's engine
/// contends with the device's main workload for the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoTenant {
    /// Workload label of the co-resident tenant (cohort key).
    pub workload: &'static str,
    /// The engine the co-tenant's loop runs, routed for the device's
    /// chipset.
    pub engine: Engine,
}

/// A fleet described as weighted distributions plus a seed.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Population name (artifact file names derive from it).
    pub name: String,
    /// Number of devices in the fleet.
    pub devices: usize,
    /// Root seed every device stream derives from.
    pub seed: u64,
    /// Probability that a device carries a sustained fault.
    pub fault_rate: f64,
    /// Probability that a device runs a co-resident tenant workload
    /// (default 0: single-tenant, the pre-serve population).
    pub multi_tenant_rate: f64,
}

impl PopulationSpec {
    /// The default population: 256 devices, seed 1, 3% faulty,
    /// single-tenant.
    pub fn new(name: impl Into<String>) -> Self {
        PopulationSpec {
            name: name.into(),
            devices: 256,
            seed: 1,
            fault_rate: 0.03,
            multi_tenant_rate: 0.0,
        }
    }

    /// Sets the device count.
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n.max(1);
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-device fault probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn fault_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "fault rate must be in [0,1]");
        self.fault_rate = p;
        self
    }

    /// Sets the probability that a device runs a co-resident tenant.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn multi_tenant_rate(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "multi-tenant rate must be in [0,1]"
        );
        self.multi_tenant_rate = p;
        self
    }

    /// Materializes device `k` — a pure function of `(seed, k)`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is outside the population.
    pub fn device(&self, k: usize) -> DeviceSpec {
        assert!(k < self.devices, "device {k} outside population");
        let root = SimRng::seed_from(self.seed);
        let mut rng = root.derive2(STREAM_DEVICE, k as u64);

        let soc = CHIPSET_MIX[weighted_index(&mut rng, &CHIPSET_MIX.map(|(_, w)| w))].0;
        let ambient_c = rng.normal(23.0, 6.0).clamp(-5.0, 45.0);
        let band = ThermalBand::from_ambient_c(ambient_c);
        let battery_frac = rng.uniform(0.03, 1.0);
        let battery_saver = battery_frac < BATTERY_SAVER_BELOW;
        let mut background_loops = weighted_index(&mut rng, &BACKGROUND_MIX);
        let workload = WORKLOADS[weighted_index(&mut rng, &WORKLOADS.map(|w| w.weight))];
        let mut path = workload.path;
        if battery_saver {
            background_loops = 0;
            if let ExecPath::Cpu(threads) = path {
                path = ExecPath::Cpu(threads.min(2));
            }
        }
        let fault = if rng.chance(self.fault_rate) {
            let kind = *rng.pick(&FaultKind::ALL);
            let start_ns = (rng.uniform(0.0, 50.0) * 1e6) as u64;
            Some((kind, start_ns))
        } else {
            None
        };
        // Co-tenant sampling draws from its own stream (see
        // [`STREAM_TENANT`]) and saver mode defers it like any other
        // non-foreground work.
        let mut trng = root.derive2(STREAM_TENANT, k as u64);
        let co_tenant = if !battery_saver && trng.chance(self.multi_tenant_rate) {
            let w = WORKLOADS[weighted_index(&mut trng, &WORKLOADS.map(|w| w.weight))];
            // The co-tenant loop re-runs the host graph on its own engine
            // (`E2eConfig::background` takes one graph); quant-only DSP
            // delegates reject float graphs, so on a float host those
            // co-tenants fall back to the CPU interpreter the way a real
            // delegate rejection does.
            let mut engine = w.path.engine_for(soc);
            if !workload.dtype.is_quantized()
                && matches!(engine, Engine::TfLiteHexagon { .. } | Engine::SnpeDsp)
            {
                engine = Engine::tflite_cpu(2);
            }
            Some(CoTenant {
                workload: w.label,
                engine,
            })
        } else {
            None
        };

        DeviceSpec {
            id: k,
            soc,
            ambient_c,
            band,
            battery_frac,
            battery_saver,
            background_loops,
            workload: workload.label,
            model: workload.model,
            dtype: workload.dtype,
            engine: path.engine_for(soc),
            fault,
            co_tenant,
            run_seed: root.derive2(STREAM_RUN, k as u64).next_u64(),
            probe_seed: root.derive2(STREAM_PROBE, k as u64).next_u64(),
        }
    }

    /// Requests device `k` serves when `total` requests are spread over
    /// the population: `total / devices`, with the remainder going one
    /// each to the lowest-numbered devices. A pure function of
    /// `(total, devices, k)` — shards never re-balance.
    pub fn requests_for(&self, k: usize, total: u64) -> u64 {
        let base = total / self.devices as u64;
        let rem = total % self.devices as u64;
        base + u64::from((k as u64) < rem)
    }
}

/// Picks an index with probability proportional to integer `weights`.
///
/// # Panics
///
/// Panics if the weights sum to zero.
fn weighted_index(rng: &mut SimRng, weights: &[u64]) -> usize {
    let total: u64 = weights.iter().sum();
    assert!(total > 0, "weights must not all be zero");
    let mut x = rng.uniform_u64(0, total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// One fully-sampled device: everything its runs need, plain data.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Position in the population (the canonical aggregation order).
    pub id: usize,
    /// Sampled chipset.
    pub soc: SocId,
    /// Sampled ambient temperature (°C).
    pub ambient_c: f64,
    /// Thermal cohort of the ambient temperature.
    pub band: ThermalBand,
    /// Battery state of charge in `[0.03, 1]`.
    pub battery_frac: f64,
    /// Whether saver mode throttles this device.
    pub battery_saver: bool,
    /// Concurrent background inference loops.
    pub background_loops: usize,
    /// Workload label (cohort key).
    pub workload: &'static str,
    /// The model the workload runs.
    pub model: ModelId,
    /// Numeric format of the model.
    pub dtype: DType,
    /// Concrete engine after routing and saver capping.
    pub engine: Engine,
    /// Sustained fault this device carries: `(kind, start_ns)`.
    pub fault: Option<(FaultKind, u64)>,
    /// Co-resident tenant workload, if one was sampled.
    pub co_tenant: Option<CoTenant>,
    /// Seed of the main latency run.
    pub run_seed: u64,
    /// Seed of the traced energy-probe run.
    pub probe_seed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PopulationSpec {
        PopulationSpec::new("test").devices(512).seed(9)
    }

    #[test]
    fn device_sampling_is_pure() {
        let p = spec();
        let a = p.device(17);
        // Sampling other devices in between changes nothing.
        let _ = p.device(0);
        let _ = p.device(511);
        assert_eq!(a, p.device(17));
        // A different population seed samples a different device.
        let other = spec().seed(10).device(17);
        assert_ne!(a.run_seed, other.run_seed);
    }

    #[test]
    fn distributions_cover_their_supports() {
        let p = spec();
        let devices: Vec<DeviceSpec> = (0..p.devices).map(|k| p.device(k)).collect();
        for soc in SocId::ALL {
            assert!(devices.iter().any(|d| d.soc == soc), "{soc} never sampled");
        }
        for band in ThermalBand::ALL {
            assert!(
                devices.iter().any(|d| d.band == band),
                "band {} never sampled",
                band.label()
            );
        }
        assert!(devices.iter().any(|d| d.background_loops > 0));
        assert!(devices.iter().any(|d| d.battery_saver));
        let faulty = devices.iter().filter(|d| d.fault.is_some()).count();
        assert!(faulty > 0, "3% of 512 devices should include faults");
        assert!(faulty < 60, "fault rate should stay near 3%, got {faulty}");
    }

    #[test]
    fn accel_routing_respects_chipset_and_quantization() {
        for soc in SocId::ALL {
            let engine = ExecPath::Accel.engine_for(soc);
            match soc {
                SocId::Sd835 => assert_eq!(engine, Engine::SnpeDsp),
                SocId::Sd845 | SocId::Sd855 => {
                    assert_eq!(engine, Engine::TfLiteHexagon { threads: 4 })
                }
                SocId::Sd865 => assert_eq!(engine.label(), "nnapi"),
            }
        }
        // Every accelerated workload is quantized — the DSP/Hexagon
        // compile paths reject float graphs.
        for w in WORKLOADS {
            if matches!(w.path, ExecPath::Accel) {
                assert!(w.dtype.is_quantized(), "{} must be I8", w.label);
            }
        }
    }

    #[test]
    fn co_tenants_sample_only_when_enabled_and_never_perturb_devices() {
        let p = spec();
        let multi = spec().multi_tenant_rate(0.6);
        let mut with_co = 0usize;
        for k in 0..p.devices {
            let base = p.device(k);
            assert!(base.co_tenant.is_none(), "default rate is single-tenant");
            let m = multi.device(k);
            // The tenant stream is separate: every other sampled field
            // is identical whether or not multi-tenancy is enabled.
            assert_eq!(
                DeviceSpec {
                    co_tenant: None,
                    ..m.clone()
                },
                base
            );
            if let Some(co) = m.co_tenant {
                with_co += 1;
                assert!(!m.battery_saver, "saver mode defers co-tenants");
                assert!(WORKLOADS.iter().any(|w| w.label == co.workload));
            }
        }
        assert!(with_co > 100, "rate 0.6 of 512 devices: got {with_co}");
        // Purity holds for the tenant stream too.
        assert_eq!(multi.device(17), multi.device(17));
    }

    #[test]
    fn battery_saver_disables_background_and_caps_cpu() {
        let p = spec();
        let savers: Vec<DeviceSpec> = (0..p.devices)
            .map(|k| p.device(k))
            .filter(|d| d.battery_saver)
            .collect();
        assert!(!savers.is_empty());
        for d in &savers {
            assert_eq!(d.background_loops, 0);
            if let Engine::TfLiteCpu { threads } = d.engine {
                assert!(threads <= 2, "saver caps CPU threads");
            }
        }
    }

    #[test]
    fn thermal_bands_partition_the_range() {
        assert_eq!(ThermalBand::from_ambient_c(-5.0), ThermalBand::Cold);
        assert_eq!(ThermalBand::from_ambient_c(15.0), ThermalBand::Cool);
        assert_eq!(ThermalBand::from_ambient_c(24.9), ThermalBand::Cool);
        assert_eq!(ThermalBand::from_ambient_c(25.0), ThermalBand::Warm);
        assert_eq!(ThermalBand::from_ambient_c(40.0), ThermalBand::Hot);
        for (i, b) in ThermalBand::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn request_split_is_exact_and_front_loaded() {
        let p = PopulationSpec::new("t").devices(7);
        let total: u64 = (0..7).map(|k| p.requests_for(k, 23)).sum();
        assert_eq!(total, 23);
        assert_eq!(p.requests_for(0, 23), 4);
        assert_eq!(p.requests_for(1, 23), 4);
        assert_eq!(p.requests_for(2, 23), 3);
        assert_eq!(p.requests_for(6, 23), 3);
        // Fewer requests than devices → trailing devices sit idle.
        assert_eq!(p.requests_for(6, 3), 0);
    }

    #[test]
    fn weighted_index_is_exact_over_integers() {
        let mut rng = SimRng::seed_from(1);
        let weights = [1u64, 0, 3];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[weighted_index(&mut rng, &weights)] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight never sampled");
        assert!(counts[2] > counts[0] * 2, "weights respected: {counts:?}");
    }
}
