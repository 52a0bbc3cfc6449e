//! Tenant and scenario configuration.

use aitax_core::QosClass;
use aitax_framework::Engine;
use aitax_models::zoo::ModelId;
use aitax_soc::SocId;
use aitax_tensor::DType;

/// One serving tenant: a model pipeline with a QoS class and a seeded
/// open-loop arrival process.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique label within the scenario.
    pub label: String,
    /// QoS class (maps to a scheduler priority).
    pub qos: QosClass,
    /// The model this tenant serves.
    pub model: ModelId,
    /// Model datatype.
    pub dtype: DType,
    /// Execution engine.
    pub engine: Engine,
    /// Mean arrival rate in requests per second (open loop: arrivals do
    /// not wait for completions).
    pub rate_hz: f64,
    /// Number of requests the tenant issues.
    pub requests: usize,
}

impl TenantSpec {
    /// A tenant with the given label, class, model and traffic.
    pub fn new(
        label: impl Into<String>,
        qos: QosClass,
        model: ModelId,
        dtype: DType,
        engine: Engine,
        rate_hz: f64,
        requests: usize,
    ) -> TenantSpec {
        TenantSpec {
            label: label.into(),
            qos,
            model,
            dtype,
            engine,
            rate_hz,
            requests,
        }
    }
}

/// Admission control policy for one serving run.
///
/// Bounds the per-tenant backlog: a request arriving while the tenant
/// already has `queue_bound` requests waiting is *shed* (dropped and
/// counted) instead of queued. [`AdmissionPolicy::Unbounded`] queues
/// everything — the configuration solo baselines run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// No bound: every arrival queues.
    Unbounded,
    /// Shed arrivals beyond `queue_bound` waiting requests per tenant.
    Shed {
        /// Maximum waiting (not yet started) requests per tenant.
        queue_bound: usize,
    },
}

impl AdmissionPolicy {
    /// The per-tenant queue bound, `usize::MAX` when unbounded.
    pub(crate) fn queue_bound(self) -> usize {
        match self {
            AdmissionPolicy::Unbounded => usize::MAX,
            AdmissionPolicy::Shed { queue_bound } => queue_bound,
        }
    }
}

/// A complete multi-tenant serving scenario.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Scenario name (artifact filenames, reports).
    pub name: String,
    /// The tenants sharing the device.
    pub tenants: Vec<TenantSpec>,
    /// Target chipset.
    pub soc: SocId,
    /// Root seed: arrival streams and machine noise derive from it.
    pub seed: u64,
    /// Admission policy applied to the multi-tenant run (solo baselines
    /// always run unbounded).
    pub admission: AdmissionPolicy,
}

impl ServeConfig {
    /// A scenario with the default SD845 target, seed 1, and unbounded
    /// admission.
    pub fn new(name: impl Into<String>, tenants: Vec<TenantSpec>) -> ServeConfig {
        ServeConfig {
            name: name.into(),
            tenants,
            soc: SocId::Sd845,
            seed: 1,
            admission: AdmissionPolicy::Unbounded,
        }
    }

    /// Overrides the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the admission policy.
    pub fn admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Scales every tenant's arrival rate by `factor` (the CLI's
    /// `--arrival-rate` knob).
    pub fn scale_rates(mut self, factor: f64) -> Self {
        for t in &mut self.tenants {
            t.rate_hz *= factor;
        }
        self
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    #[test]
    fn queue_bound_mapping() {
        assert_eq!(AdmissionPolicy::Unbounded.queue_bound(), usize::MAX);
        assert_eq!(AdmissionPolicy::Shed { queue_bound: 4 }.queue_bound(), 4);
    }

    #[test]
    fn rate_scaling_is_uniform() {
        let cfg = ServeConfig::new(
            "t",
            vec![
                TenantSpec::new(
                    "a",
                    QosClass::Interactive,
                    ModelId::MobileNetV1,
                    DType::I8,
                    Engine::tflite_cpu(2),
                    10.0,
                    4,
                ),
                TenantSpec::new(
                    "b",
                    QosClass::Background,
                    ModelId::SqueezeNet,
                    DType::F32,
                    Engine::tflite_cpu(1),
                    4.0,
                    4,
                ),
            ],
        )
        .scale_rates(2.0);
        assert_eq!(cfg.tenants[0].rate_hz, 20.0);
        assert_eq!(cfg.tenants[1].rate_hz, 8.0);
    }
}
