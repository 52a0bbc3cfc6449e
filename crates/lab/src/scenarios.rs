//! The named grids the `lab` binary and the `figures` exhibits run.
//!
//! Each function builds the declarative scenario spec for one exhibit;
//! [`by_name`] is the CLI registry. Grids only *describe* work — seeds,
//! repeats and iterations can still be overridden before expansion.

use aitax_core::RunMode;
use aitax_des::fault::FaultKind;
use aitax_framework::Engine;
use aitax_models::zoo::{ModelId, Zoo};
use aitax_soc::SocId;
use aitax_tensor::DType;

use crate::scenario::{FaultSpec, Grid, Scenario};

/// Names of every registered grid, CLI order.
pub const NAMES: [&str; 6] = ["smoke", "fig10", "fig11", "table1", "table2", "faults"];

/// Looks a grid up by its registry name.
pub fn by_name(name: &str, iterations: usize, seed: u64) -> Option<Grid> {
    match name {
        "smoke" => Some(smoke(iterations, seed)),
        "fig10" => Some(fig10(iterations, seed)),
        "fig11" => Some(fig11(iterations, seed)),
        "table1" => Some(table1(iterations, seed)),
        "table2" => Some(table2(iterations, seed)),
        "faults" => Some(faults(iterations, seed)),
        _ => None,
    }
}

/// A tiny two-scenario grid for CI smoke runs and determinism checks.
pub fn smoke(iterations: usize, seed: u64) -> Grid {
    Grid::new("smoke")
        .base_seed(seed)
        .repeats(2)
        .push(Scenario::new("cpu-f32", ModelId::MobileNetV1, DType::F32).iterations(iterations))
        .push(
            Scenario::new("nnapi-app-i8", ModelId::MobileNetV1, DType::I8)
                .engine(Engine::nnapi())
                .mode(RunMode::AndroidApp)
                .tracing(true)
                .iterations(iterations),
        )
}

/// Fig. 10 — the classification app with 0..8 background inference loops
/// contending for the CPU (quantized MobileNet via NNAPI, app mode).
pub fn fig10(iterations: usize, seed: u64) -> Grid {
    let mut grid = Grid::new("fig10").base_seed(seed);
    for &b in &[0usize, 1, 2, 4, 6, 8] {
        let mut s = Scenario::new(b.to_string(), ModelId::MobileNetV1, DType::I8)
            .engine(Engine::nnapi())
            .mode(RunMode::AndroidApp)
            .iterations(iterations);
        if b > 0 {
            s = s.background(b, Engine::tflite_cpu(2));
        }
        grid = grid.push(s);
    }
    grid
}

/// Fig. 11 — run-to-run latency distribution, CLI benchmark vs real app
/// (MobileNet v1 fp32 on the CPU). Eight seeded repeats per mode pool
/// into one distribution; raise `--repeats` for smoother CDF tails.
pub fn fig11(iterations: usize, seed: u64) -> Grid {
    let mut grid = Grid::new("fig11").base_seed(seed).repeats(8);
    for mode in [RunMode::CliBenchmark, RunMode::AndroidApp] {
        grid = grid.push(
            Scenario::new(mode.to_string(), ModelId::MobileNetV1, DType::F32)
                .mode(mode)
                .iterations(iterations),
        );
    }
    grid
}

/// Table I companion — every zoo model × CPU-supported dtype measured
/// end to end in CLI-benchmark mode (the paper's Table I lists the
/// benchmarks; this sweep attaches observed latencies to the list).
pub fn table1(iterations: usize, seed: u64) -> Grid {
    let mut grid = Grid::new("table1").base_seed(seed);
    for e in Zoo::all() {
        for dtype in [DType::F32, DType::I8] {
            if e.support.supports(false, dtype) {
                grid = grid.push(
                    Scenario::new(format!("{}-{}", e.id, dtype), e.id, dtype)
                        .iterations(iterations),
                );
            }
        }
    }
    grid
}

/// Table II companion — quantized MobileNet through NNAPI in app mode on
/// each of the four platforms, traced so energy/power land in the
/// artifacts.
pub fn table2(iterations: usize, seed: u64) -> Grid {
    let mut grid = Grid::new("table2").base_seed(seed);
    for id in SocId::ALL {
        grid = grid.push(
            Scenario::new(
                format!("{id:?}").to_lowercase(),
                ModelId::MobileNetV1,
                DType::I8,
            )
            .soc(id)
            .engine(Engine::nnapi())
            .mode(RunMode::AndroidApp)
            .tracing(true)
            .iterations(iterations),
        );
    }
    grid
}

/// Fault sweep — the Fig. 6 streaming scenario under each fault kind
/// (plus a healthy baseline), traced for the added-energy column.
pub fn faults(iterations: usize, seed: u64) -> Grid {
    let ten_ms = 10_000_000u64;
    let specs: [(&str, Option<FaultSpec>); 7] = [
        ("none", None),
        (
            "rpc-ioctl-error",
            Some(FaultSpec::Sustained(FaultKind::RpcIoctlError)),
        ),
        (
            "dsp-signal-timeout",
            Some(FaultSpec::Sustained(FaultKind::DspSignalTimeout)),
        ),
        (
            "dsp-response-dropped",
            Some(FaultSpec::Sustained(FaultKind::DspResponseDropped)),
        ),
        (
            "thermal-emergency",
            Some(FaultSpec::At(FaultKind::ThermalEmergency, ten_ms)),
        ),
        (
            "cache-flush-storm",
            Some(FaultSpec::Sustained(FaultKind::CacheFlushStorm)),
        ),
        (
            "background-burst",
            Some(FaultSpec::At(FaultKind::BackgroundBurst, ten_ms)),
        ),
    ];
    let mut grid = Grid::new("faults").base_seed(seed);
    for (label, fault) in specs {
        let mut s = Scenario::new(label, ModelId::MobileNetV1, DType::I8)
            .engine(Engine::nnapi())
            .mode(RunMode::AndroidApp)
            .tracing(true)
            .iterations(iterations.clamp(4, 40));
        if let Some(f) = fault {
            s = s.fault(f);
        }
        grid = grid.push(s);
    }
    grid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_names() {
        for name in NAMES {
            let grid = by_name(name, 4, 1).unwrap_or_else(|| panic!("grid '{name}' missing"));
            assert_eq!(grid.name, name);
            assert!(grid.job_count() > 0, "{name} must expand to jobs");
        }
        assert!(by_name("nope", 4, 1).is_none());
    }

    #[test]
    fn fig10_sweeps_background_counts() {
        let g = fig10(4, 1);
        assert_eq!(g.scenarios().len(), 6);
        assert!(g.scenarios()[0].background.is_none());
        assert_eq!(g.scenarios()[5].background.unwrap().0, 8);
    }

    #[test]
    fn fig11_pools_repeats_per_mode() {
        let g = fig11(10, 1);
        assert_eq!(g.scenarios().len(), 2);
        assert_eq!(g.job_count(), 16, "2 modes × 8 repeats");
    }

    #[test]
    fn table2_covers_every_soc() {
        let g = table2(4, 1);
        assert_eq!(g.scenarios().len(), SocId::ALL.len());
        assert!(g.scenarios().iter().all(|s| s.tracing));
    }

    #[test]
    fn faults_has_healthy_baseline_first() {
        let g = faults(6, 1);
        assert_eq!(g.scenarios()[0].label, "none");
        assert!(g.scenarios()[0].fault.is_none());
        assert_eq!(g.scenarios().len(), 7);
    }
}
