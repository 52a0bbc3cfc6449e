//! Serving invariants: conservation and admission checks for
//! multi-tenant runs.
//!
//! Like the trace invariants these are scenario-agnostic: they encode
//! what any well-formed attribution or admission-controlled run must
//! satisfy, not what a particular scenario's numbers should be.
//!
//! * **Conservation** — the attribution pass charges every millisecond
//!   of multi-tenant slowdown to exactly one payer:
//!   `Σ caused + Σ self == Σ suffered` across the tenants of a scenario.
//!   A leak in either direction means blame was invented or dropped.
//! * **Queue bound** — under a `Shed { queue_bound }` admission policy a
//!   tenant never has more than `queue_bound` admitted requests waiting.
//!   The check reconstructs queue occupancy from the completed requests'
//!   `[arrival, start)` intervals, so it catches an executor that admits
//!   past the bound even if the shed counter looks plausible.

use aitax_core::tenant::{total_added_ms, total_attributed_ms, TenantTax};

use crate::invariant::Violation;

/// Checks attribution conservation over one scenario's tenants:
/// every ledger field is finite and
/// `Σ caused_ms + Σ self_ms == Σ suffered_ms` to within float residue
/// (relative 1e-9, floored at 1e-9 ms absolute for idle scenarios).
pub fn check_attribution_conservation(tenants: &[TenantTax]) -> Vec<Violation> {
    let mut out = Vec::new();
    for t in tenants {
        for (field, v) in [
            ("suffered_ms", t.suffered_ms),
            ("caused_ms", t.caused_ms),
            ("self_ms", t.self_ms),
        ] {
            if !v.is_finite() {
                out.push(Violation {
                    invariant: "attribution-conservation",
                    message: format!("tenant '{}': {field} is {v}", t.tenant),
                });
            }
        }
    }
    let added = total_added_ms(tenants);
    let attributed = total_attributed_ms(tenants);
    let tol = 1e-9 * added.abs().max(1.0);
    if (attributed - added).abs() > tol {
        out.push(Violation {
            invariant: "attribution-conservation",
            message: format!(
                "attributed {attributed} ms but the mix added {added} ms \
                 over solo (leak {} ms)",
                attributed - added
            ),
        });
    }
    out
}

/// Checks that reconstructed queue occupancy never exceeds `bound`.
///
/// `waits_ms` holds one `(arrival_ms, start_ms)` pair per *admitted*
/// request: the request occupies a queue slot over `[arrival, start)`.
/// Shed requests never enter the queue and must not be passed. A request
/// served immediately (`start == arrival`) occupies no slot; at equal
/// timestamps departures free their slot before arrivals claim one, which
/// matches the executor's dequeue-then-admit event order.
pub fn check_queue_bound(tenant: &str, waits_ms: &[(f64, f64)], bound: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    // Sweep line: +1 at arrival, -1 at start; -1 sorts first on ties.
    let mut events: Vec<(f64, i32)> = Vec::with_capacity(waits_ms.len() * 2);
    for &(arrival, start) in waits_ms {
        if start < arrival {
            out.push(Violation {
                invariant: "queue-bound",
                message: format!(
                    "tenant '{tenant}': request starts at {start} ms before \
                     its arrival at {arrival} ms"
                ),
            });
            continue;
        }
        events.push((arrival, 1));
        events.push((start, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut depth: i64 = 0;
    let mut peak: i64 = 0;
    for (_, delta) in events {
        depth += i64::from(delta);
        peak = peak.max(depth);
    }
    if peak > bound as i64 {
        out.push(Violation {
            invariant: "queue-bound",
            message: format!(
                "tenant '{tenant}': queue depth reached {peak} but the \
                 admission bound is {bound}"
            ),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aitax_core::QosClass;

    fn tenant(suffered: f64, caused: f64, own: f64) -> TenantTax {
        TenantTax {
            tenant: "t".into(),
            qos: QosClass::BestEffort,
            suffered_ms: suffered,
            caused_ms: caused,
            self_ms: own,
        }
    }

    #[test]
    fn balanced_ledger_conserves() {
        let mix = [tenant(10.0, 14.0, 1.0), tenant(8.0, 2.0, 1.0)];
        assert!(check_attribution_conservation(&mix).is_empty());
    }

    #[test]
    fn leaked_blame_is_flagged() {
        let mix = [tenant(10.0, 5.0, 0.0)];
        let v = check_attribution_conservation(&mix);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("leak"));
    }

    #[test]
    fn non_finite_ledger_is_flagged() {
        let v = check_attribution_conservation(&[tenant(f64::NAN, 0.0, 0.0)]);
        assert!(v.iter().any(|v| v.message.contains("suffered_ms")));
    }

    #[test]
    fn queue_depth_within_bound_passes() {
        // Two overlapping waits -> depth 2; immediate starts cost nothing.
        let waits = [(0.0, 5.0), (1.0, 5.0), (9.0, 9.0)];
        assert!(check_queue_bound("t", &waits, 2).is_empty());
        let v = check_queue_bound("t", &waits, 1);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("depth reached 2"));
    }

    #[test]
    fn tie_break_frees_before_claiming() {
        // The second request arrives exactly when the first starts: the
        // slot hands over, depth never exceeds 1.
        let waits = [(0.0, 4.0), (4.0, 8.0)];
        assert!(check_queue_bound("t", &waits, 1).is_empty());
    }

    #[test]
    fn time_travelling_request_is_flagged() {
        let v = check_queue_bound("t", &[(5.0, 2.0)], 4);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("before its arrival"));
    }
}
