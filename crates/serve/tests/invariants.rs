//! Serving invariants, checked through `aitax-testkit`:
//!
//! * attribution conservation on every committed scenario — the pass
//!   charges exactly the latency the mix added, no more, no less;
//! * the admission property: under `Shed { queue_bound }` the
//!   reconstructed queue occupancy never exceeds the bound, for a grid
//!   of bounds and seeds (including the degenerate bound of zero).

use aitax_core::QosClass;
use aitax_framework::Engine;
use aitax_models::zoo::ModelId;
use aitax_serve::{run_report, run_scenario, scenarios, AdmissionPolicy, ServeConfig, TenantSpec};
use aitax_tensor::DType;

#[test]
fn conservation_holds_on_every_scenario() {
    for name in scenarios::NAMES {
        let cfg = scenarios::by_name(name).unwrap();
        let report = run_report(&cfg, 2).0;
        let taxes = report.tenant_taxes();
        let violations = aitax_testkit::check_attribution_conservation(&taxes);
        assert!(violations.is_empty(), "scenario '{name}': {violations:?}");
        let leak = (report.added_ms - report.attributed_ms).abs();
        assert!(
            leak <= 1e-9 * report.added_ms.abs().max(1.0),
            "scenario '{name}': leak {leak} ms"
        );
    }
}

#[test]
fn conservation_is_seed_independent() {
    for seed in [2, 9, 23] {
        let cfg = scenarios::smoke().seed(seed);
        let report = run_report(&cfg, 2).0;
        let taxes = report.tenant_taxes();
        let violations = aitax_testkit::check_attribution_conservation(&taxes);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// A deliberately oversubscribed two-tenant scenario: offered load well
/// above service capacity, so backlogs form and admission has work to do.
fn oversubscribed(bound: usize, seed: u64) -> ServeConfig {
    ServeConfig::new(
        "prop",
        vec![
            TenantSpec::new(
                "hot",
                QosClass::Interactive,
                ModelId::MobileNetV1,
                DType::I8,
                Engine::tflite_cpu(2),
                40.0,
                16,
            ),
            TenantSpec::new(
                "bulk",
                QosClass::Background,
                ModelId::SsdMobileNetV2,
                DType::I8,
                Engine::tflite_cpu(2),
                30.0,
                16,
            ),
        ],
    )
    .admission(AdmissionPolicy::Shed { queue_bound: bound })
    .seed(seed)
}

#[test]
fn admission_never_exceeds_the_queue_bound() {
    let mut shed_anywhere = 0u64;
    for bound in [0usize, 1, 2, 4] {
        for seed in [3u64, 9, 17] {
            let cfg = oversubscribed(bound, seed);
            let run = run_scenario(&cfg, None);
            for (spec, t) in cfg.tenants.iter().zip(&run.tenants) {
                // Accounting: every offered request either completed or
                // was shed — admitted requests are never lost.
                assert_eq!(
                    t.completed.len() as u64 + t.shed,
                    spec.requests as u64,
                    "tenant '{}' bound {bound} seed {seed}",
                    spec.label
                );
                let waits: Vec<(f64, f64)> = t
                    .completed
                    .iter()
                    .map(|r| (r.arrival_ms, r.arrival_ms + r.queue_ms))
                    .collect();
                let violations = aitax_testkit::check_queue_bound(&spec.label, &waits, bound);
                assert!(
                    violations.is_empty(),
                    "tenant '{}' bound {bound} seed {seed}: {violations:?}",
                    spec.label
                );
                shed_anywhere += t.shed;
            }
        }
    }
    assert!(
        shed_anywhere > 0,
        "the property test never exercised shedding"
    );
}

#[test]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
fn bound_zero_serves_only_idle_arrivals() {
    let cfg = oversubscribed(0, 5);
    let run = run_scenario(&cfg, None);
    for t in &run.tenants {
        assert!(t.shed > 0, "oversubscribed bound-0 run must shed");
        for r in &t.completed {
            assert_eq!(r.queue_ms, 0.0, "bound 0 admits only idle-time arrivals");
        }
    }
}
