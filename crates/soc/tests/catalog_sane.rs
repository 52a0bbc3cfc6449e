//! Modeling invariants of the built SoC catalogs.
//!
//! The energy model interpolates over these values: `P ∝ V²f` is only
//! right over a sorted OPP ladder, and the governor walks the ladder by
//! index. A misordered row or a sign slip gives plausible but wrong
//! Table I/II numbers rather than a crash, so every catalog entry is
//! checked here as built — after `CoreRailSpec::scaled` has applied the
//! shared `OPP_LADDER`, which this therefore covers too.

use aitax_power::{AccelRailSpec, CoreRailSpec};
use aitax_soc::{SocCatalog, SocId, SocSpec};

/// Every modeling invariant `spec` violates, as `rail: problem` lines.
fn violations(spec: &SocSpec) -> Vec<String> {
    let mut out = Vec::new();
    for rail in &spec.power.core_rails {
        core_rail(rail, &mut out);
    }
    accel_rail(&spec.power.gpu, &mut out);
    accel_rail(&spec.power.dsp, &mut out);
    if let Some(npu) = &spec.power.npu {
        accel_rail(npu, &mut out);
    }
    let ic = &spec.power.interconnect;
    if ic.energy_per_byte_j < 0.0 || ic.uncore_w < 0.0 {
        out.push("interconnect: energy per byte and uncore floor must be non-negative".into());
    }
    if spec.memory.axi_bytes_per_sec <= 0.0 {
        out.push("memory: AXI bandwidth must be positive".into());
    }
    out
}

fn core_rail(rail: &CoreRailSpec, out: &mut Vec<String>) {
    let name = rail.name;
    if rail.opps.is_empty() {
        out.push(format!("{name}: empty OPP ladder"));
    }
    for w in rail.opps.windows(2) {
        if w[1].freq_hz <= w[0].freq_hz {
            out.push(format!(
                "{name}: OPP frequencies must be strictly increasing"
            ));
        }
        if w[1].voltage_v < w[0].voltage_v {
            out.push(format!("{name}: OPP voltages must be non-decreasing"));
        }
    }
    if rail.opps.iter().any(|o| o.voltage_v <= 0.0) {
        out.push(format!("{name}: OPP voltages must be positive"));
    }
    if rail.capacitance_f <= 0.0 {
        out.push(format!("{name}: switched capacitance must be positive"));
    }
    if rail.leakage_w < 0.0 {
        out.push(format!("{name}: leakage must be non-negative"));
    }
}

fn accel_rail(rail: &AccelRailSpec, out: &mut Vec<String>) {
    let name = rail.name;
    if rail.busy_w <= rail.idle_w {
        out.push(format!("{name}: busy power must exceed idle power"));
    }
    if rail.idle_w < 0.0 {
        out.push(format!("{name}: idle power must be non-negative"));
    }
}

#[test]
fn shipped_catalogs_are_sane() {
    for id in SocId::ALL {
        let found = violations(SocCatalog::get(id));
        assert!(found.is_empty(), "{id}: {found:#?}");
    }
}

#[test]
fn swapped_opp_rows_are_caught() {
    let mut spec = SocCatalog::get(SocId::Sd845).clone();
    spec.power.core_rails[0].opps.swap(1, 2);
    let found = violations(&spec);
    assert!(
        found.iter().any(|v| v.contains("strictly increasing")),
        "{found:#?}"
    );
}

#[test]
fn inverted_accel_rail_is_caught() {
    let mut spec = SocCatalog::get(SocId::Sd835).clone();
    spec.power.gpu.idle_w = spec.power.gpu.busy_w + 1.0;
    let found = violations(&spec);
    assert_eq!(found.len(), 1, "{found:#?}");
    assert!(found[0].contains("busy power"));
}
