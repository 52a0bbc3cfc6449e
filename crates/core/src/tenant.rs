//! Multi-tenant QoS vocabulary and per-tenant tax attribution.
//!
//! The paper measures one app at a time; a real device runs camera, pose,
//! NLP, and photo pipelines *concurrently* on one SoC. When they contend,
//! the AI tax stops being a property of a pipeline and becomes a property
//! of the *mix*: part of each tenant's latency is tax it pays for its own
//! stack, and part is tax other tenants impose through shared queues.
//! This module holds the vocabulary `aitax-serve` attributes that split
//! with: QoS classes mapped onto scheduler priorities, and the
//! [`TenantTax`] record pairing each tenant's in-mix [`TaxReport`] with
//! the contention it suffered and caused.

use crate::stage::TaxReport;

/// Quality-of-service class of a serving tenant.
///
/// Classes map onto the kernel's QoS priorities: interactive work
/// preempts best-effort work, which orders ahead of background work, on
/// CPU run queues and accelerator grants alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QosClass {
    /// User-blocking pipelines (viewfinder, dictation): highest priority.
    Interactive,
    /// Latency-tolerant but user-visible work (photo enhancement).
    BestEffort,
    /// Deferrable bulk work (gallery indexing): runs in the gaps.
    Background,
}

impl QosClass {
    /// Every class, highest priority first.
    pub const ALL: [QosClass; 3] = [
        QosClass::Interactive,
        QosClass::BestEffort,
        QosClass::Background,
    ];

    /// The scheduler priority this class runs at (see
    /// [`TaskSpec::priority`](aitax_kernel::TaskSpec)).
    pub fn priority(self) -> i8 {
        match self {
            QosClass::Interactive => 2,
            QosClass::BestEffort => 1,
            QosClass::Background => 0,
        }
    }

    /// Stable lower-case label (CLI values, artifact fields).
    pub fn label(self) -> &'static str {
        match self {
            QosClass::Interactive => "interactive",
            QosClass::BestEffort => "best-effort",
            QosClass::Background => "background",
        }
    }

    /// Parses a [`QosClass::label`] back.
    pub fn parse(s: &str) -> Option<QosClass> {
        QosClass::ALL.into_iter().find(|c| c.label() == s)
    }
}

impl std::fmt::Display for QosClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One tenant's share of a multi-tenant serving run: its own tax report
/// measured *in the mix*, plus the contention attribution against the
/// matching solo run.
///
/// Conservation: across all tenants of one scenario,
/// `Σ caused_ms + Σ self_ms == Σ suffered_ms` — every millisecond of
/// added latency is charged to exactly one culprit (possibly the victim
/// itself). `aitax-testkit` checks this on every scenario.
#[derive(Debug, Clone)]
pub struct TenantTax {
    /// Tenant label (unique within a scenario).
    pub tenant: String,
    /// The tenant's QoS class.
    pub qos: QosClass,
    /// Stage breakdowns of the tenant's completed requests in the mix.
    pub tax: TaxReport,
    /// Added end-to-end latency vs the tenant's solo run, summed over
    /// completed requests — what multi-tenancy cost *this* tenant.
    pub suffered_ms: f64,
    /// Added latency this tenant's holds imposed on *other* tenants.
    pub caused_ms: f64,
    /// Added latency this tenant imposed on itself (queueing behind its
    /// own earlier requests).
    pub self_ms: f64,
}

/// Sum of suffered contention across tenants — the total AI tax the mix
/// added over the solo baselines.
pub fn total_added_ms(tenants: &[TenantTax]) -> f64 {
    tenants.iter().map(|t| t.suffered_ms).sum()
}

/// Sum of attributed contention (cross-tenant caused + self-inflicted).
pub fn total_attributed_ms(tenants: &[TenantTax]) -> f64 {
    tenants.iter().map(|t| t.caused_ms + t.self_ms).sum()
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;

    #[test]
    fn priorities_are_strictly_ordered() {
        assert!(QosClass::Interactive.priority() > QosClass::BestEffort.priority());
        assert!(QosClass::BestEffort.priority() > QosClass::Background.priority());
        assert_eq!(QosClass::Background.priority(), 0, "legacy band");
    }

    #[test]
    fn labels_round_trip() {
        for c in QosClass::ALL {
            assert_eq!(QosClass::parse(c.label()), Some(c));
            assert_eq!(format!("{c}"), c.label());
        }
        assert_eq!(QosClass::parse("realtime"), None);
    }

    #[test]
    fn attribution_sums() {
        let t = |s: f64, c: f64, own: f64| TenantTax {
            tenant: "t".into(),
            qos: QosClass::BestEffort,
            tax: TaxReport::new(Vec::new()),
            suffered_ms: s,
            caused_ms: c,
            self_ms: own,
        };
        let mix = [t(10.0, 14.0, 1.0), t(8.0, 2.0, 1.0)];
        assert_eq!(total_added_ms(&mix), 18.0);
        assert_eq!(total_attributed_ms(&mix), 18.0);
    }
}
