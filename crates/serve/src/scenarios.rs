//! Named scenario families — the serve grid.
//!
//! Each scenario is a curated tenant mix: `smoke` is the CI-sized
//! three-tenant sanity run, `contention` reproduces the Fig. 10/11
//! interference regime with true multi-tenancy (an interactive
//! viewfinder protected against a heavyweight best-effort enhancer and a
//! background indexer), and `saturation` drives offered load past
//! capacity to exercise admission control.

use aitax_core::QosClass;
use aitax_framework::Engine;
use aitax_models::zoo::ModelId;
use aitax_tensor::DType;

use crate::tenant::{AdmissionPolicy, ServeConfig, TenantSpec};

/// Every named scenario.
pub const NAMES: [&str; 3] = ["smoke", "contention", "saturation"];

/// Builds a named scenario, `None` for unknown names.
pub fn by_name(name: &str) -> Option<ServeConfig> {
    match name {
        "smoke" => Some(smoke()),
        "contention" => Some(contention()),
        "saturation" => Some(saturation()),
        _ => None,
    }
}

/// CI-sized three-tenant mix: small models, low request counts, a
/// permissive queue bound. Exists to keep the smoke job fast while still
/// exercising every code path (priorities, bursts, admission, arbiter).
pub fn smoke() -> ServeConfig {
    ServeConfig::new(
        "smoke",
        vec![
            TenantSpec::new(
                "viewfinder",
                QosClass::Interactive,
                ModelId::MobileNetV1,
                DType::I8,
                Engine::tflite_cpu(2),
                25.0,
                12,
            ),
            TenantSpec::new(
                "enhance",
                QosClass::BestEffort,
                ModelId::SqueezeNet,
                DType::F32,
                Engine::tflite_cpu(2),
                10.0,
                8,
            ),
            TenantSpec::new(
                "indexer",
                QosClass::Background,
                ModelId::EfficientNetLite0,
                DType::I8,
                Engine::tflite_cpu(1),
                6.0,
                6,
            ),
        ],
    )
    .admission(AdmissionPolicy::Shed { queue_bound: 8 })
}

/// The committed contention experiment: an interactive DSP viewfinder
/// sharing the SoC with a heavyweight CPU enhancer and a background
/// detector. QoS must keep the viewfinder's p99 under 2× its solo p99
/// while the lower classes absorb the attributed tax.
pub fn contention() -> ServeConfig {
    ServeConfig::new(
        "contention",
        vec![
            TenantSpec::new(
                "viewfinder",
                QosClass::Interactive,
                ModelId::MobileNetV1,
                DType::I8,
                Engine::SnpeDsp,
                30.0,
                60,
            ),
            TenantSpec::new(
                "enhance",
                QosClass::BestEffort,
                ModelId::InceptionV3,
                DType::F32,
                Engine::tflite_cpu(4),
                4.0,
                16,
            ),
            TenantSpec::new(
                "indexer",
                QosClass::Background,
                ModelId::SsdMobileNetV2,
                DType::I8,
                Engine::tflite_cpu(2),
                3.0,
                12,
            ),
        ],
    )
    .admission(AdmissionPolicy::Shed { queue_bound: 8 })
}

/// Offered load far beyond capacity with a tight queue bound: admission
/// control must shed instead of letting backlogs grow without bound.
pub(crate) fn saturation() -> ServeConfig {
    ServeConfig::new(
        "saturation",
        vec![
            TenantSpec::new(
                "viewfinder",
                QosClass::Interactive,
                ModelId::MobileNetV1,
                DType::I8,
                Engine::tflite_cpu(4),
                120.0,
                80,
            ),
            TenantSpec::new(
                "enhance",
                QosClass::BestEffort,
                ModelId::InceptionV3,
                DType::F32,
                Engine::tflite_cpu(4),
                20.0,
                40,
            ),
            TenantSpec::new(
                "indexer",
                QosClass::Background,
                ModelId::SqueezeNet,
                DType::F32,
                Engine::tflite_cpu(2),
                60.0,
                60,
            ),
        ],
    )
    .admission(AdmissionPolicy::Shed { queue_bound: 4 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_compiles_dtypes() {
        for name in NAMES {
            let cfg = by_name(name).unwrap();
            assert_eq!(cfg.name, name);
            assert!(!cfg.tenants.is_empty());
            for t in &cfg.tenants {
                // DSP engines must pair with quantized models.
                if matches!(t.engine, Engine::SnpeDsp | Engine::TfLiteHexagon { .. }) {
                    assert!(t.dtype.is_quantized(), "{name}/{}", t.label);
                }
                assert!(t.rate_hz > 0.0);
                assert!(t.requests > 0);
            }
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn contention_mix_spans_all_classes() {
        let cfg = contention();
        let classes: Vec<QosClass> = cfg.tenants.iter().map(|t| t.qos).collect();
        for c in QosClass::ALL {
            assert!(classes.contains(&c), "missing {c}");
        }
    }
}
