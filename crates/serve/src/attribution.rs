//! The contention-attribution pass: solo baselines vs the mix.
//!
//! For a scenario of N tenants we run N+1 independent simulations: each
//! tenant alone (same arrival stream, unbounded admission) and the full
//! mix. The *suffered* tax of a tenant is the summed latency its
//! completed requests gained over the solo baseline; the *caused* tax is
//! that total redistributed to culprits. Direct shares come from the
//! memory-bandwidth arbiter's victim→culprit ledger; the remainder
//! (CPU preemption, accelerator queueing, DVFS side effects — real but
//! not individually metered) is rescaled proportionally so that
//!
//! ```text
//! Σ caused + Σ self-inflicted == Σ suffered        (exactly)
//! ```
//!
//! — the conservation law `aitax-testkit` checks on every scenario. The
//! N+1 runs are independent simulations, so they parallelize over the
//! lab pool and merge in input order: artifact bytes are identical for
//! any `--threads`.

use aitax_core::stats::DistStats;
use aitax_core::tenant::TenantTax;
use aitax_core::{QosClass, SimContext};

use crate::exec::{run_scenario_in, ScenarioRun};
use crate::tenant::{AdmissionPolicy, ServeConfig};

/// One tenant's attributed outcome (see [`ServeReport`]).
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant label.
    pub label: String,
    /// QoS class.
    pub qos: QosClass,
    /// Model display name.
    pub model: String,
    /// Engine label.
    pub engine: String,
    /// Offered arrival rate (Hz).
    pub rate_hz: f64,
    /// Requests offered.
    pub requests: usize,
    /// Requests completed in the mix.
    pub completed: usize,
    /// Requests shed by admission control in the mix.
    pub shed: u64,
    /// Requests that amortized FastRPC setup over a warm burst.
    pub burst_continuations: u64,
    /// Solo-baseline end-to-end latency distribution.
    pub solo: DistStats,
    /// In-mix end-to-end latency distribution.
    pub multi: DistStats,
    /// In-mix admission/executor queueing distribution.
    pub queue: DistStats,
    /// Mean AI-tax fraction of the tenant's in-mix requests.
    pub tax_fraction: f64,
    /// Latency the mix added to this tenant vs solo (ms, summed).
    pub suffered_ms: f64,
    /// Added latency this tenant imposed on other tenants (ms).
    pub caused_ms: f64,
    /// Added latency this tenant imposed on itself (ms).
    pub self_ms: f64,
}

/// A fully attributed multi-tenant serving result.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Scenario name.
    pub scenario: String,
    /// Chipset label.
    pub soc: String,
    /// Root seed.
    pub seed: u64,
    /// Per-tenant admission queue bound (`None` = unbounded).
    pub queue_bound: Option<usize>,
    /// Per-tenant attributed outcomes, in scenario order.
    pub tenants: Vec<TenantReport>,
    /// Total latency the mix added over the solo baselines (ms).
    pub added_ms: f64,
    /// Total attributed tax (ms) — equals `added_ms` by construction.
    pub attributed_ms: f64,
    /// Requests that queued for a memory-bandwidth slot in the mix.
    pub membw_queued: u64,
}

impl ServeReport {
    /// The per-tenant attribution as core [`TenantTax`] records (the
    /// interface the testkit conservation invariant consumes).
    pub fn tenant_taxes(&self) -> Vec<TenantTax> {
        self.tenants
            .iter()
            .map(|t| TenantTax {
                tenant: t.label.clone(),
                qos: t.qos,
                suffered_ms: t.suffered_ms,
                caused_ms: t.caused_ms,
                self_ms: t.self_ms,
            })
            .collect()
    }
}

/// Runs the N solo baselines and the mix (N+1 independent simulations,
/// parallel over `threads` workers, each reusing its own [`SimContext`])
/// and attributes the contention. The mix, the longest simulation, is
/// listed last, so the pool starts it first while the solos share the
/// other workers.
/// Returns the report plus the raw runs for deeper inspection (the mix
/// run is last).
pub fn run_report(cfg: &ServeConfig, threads: usize) -> (ServeReport, Vec<ScenarioRun>) {
    let n = cfg.tenants.len();
    let jobs: Vec<Option<usize>> = (0..n).map(Some).chain(std::iter::once(None)).collect();
    let runs = aitax_lab::run_tasks_ctx(jobs, threads, SimContext::new, |ctx, j| {
        run_scenario_in(cfg, *j, ctx)
    });
    let report = attribute(cfg, &runs);
    (report, runs)
}

/// Attributes contention given the solo runs and the mix run (as
/// produced by [`run_report`]: solos in tenant order, mix last).
pub fn attribute(cfg: &ServeConfig, runs: &[ScenarioRun]) -> ServeReport {
    let n = cfg.tenants.len();
    assert_eq!(runs.len(), n + 1, "expect N solos + 1 mix");
    let multi = &runs[n];

    // Solo latency by request index (solo runs complete everything).
    let solo_lat: Vec<Vec<f64>> = (0..n)
        .map(|k| {
            let solo = &runs[k].tenants[k];
            let mut by_index = vec![f64::NAN; cfg.tenants[k].requests];
            for r in &solo.completed {
                by_index[r.index] = r.latency_ms;
            }
            by_index
        })
        .collect();

    let suffered: Vec<f64> = (0..n)
        .map(|k| {
            multi.tenants[k]
                .completed
                .iter()
                .map(|r| r.latency_ms - solo_lat[k][r.index])
                .sum()
        })
        .collect();
    let added_ms: f64 = suffered.iter().sum();

    // Direct shares from the arbiter ledger, rescaled so attribution
    // conserves the measured total exactly.
    let mut cross_raw = vec![0.0f64; n];
    for (&(_victim, culprit), &ms) in &multi.blame_ms {
        cross_raw[culprit as usize] += ms;
    }
    let mut self_raw = vec![0.0f64; n];
    for (&victim, &ms) in &multi.self_wait_ms {
        self_raw[victim as usize] += ms;
    }
    let raw_total: f64 = cross_raw.iter().sum::<f64>() + self_raw.iter().sum::<f64>();
    let (mut caused, selfs) = if raw_total > 1e-12 {
        let scale = added_ms / raw_total;
        (
            cross_raw.iter().map(|r| r * scale).collect::<Vec<_>>(),
            self_raw.iter().map(|r| r * scale).collect::<Vec<_>>(),
        )
    } else {
        // No arbiter contention was metered: attribute by each tenant's
        // share of offered busy time (completed requests × solo mean).
        let w: Vec<f64> = (0..n)
            .map(|k| {
                let mean = DistStats::from_ms(
                    &runs[k].tenants[k]
                        .completed
                        .iter()
                        .map(|r| r.latency_ms)
                        .collect::<Vec<_>>(),
                )
                .mean;
                multi.tenants[k].completed.len() as f64 * mean
            })
            .collect();
        let wsum: f64 = w.iter().sum();
        let caused = if wsum > 0.0 {
            w.iter().map(|x| added_ms * x / wsum).collect()
        } else {
            vec![0.0; n]
        };
        (caused, vec![0.0; n])
    };
    // Pin conservation exactly: fold the float residue into the last
    // tenant's caused share.
    let attributed: f64 = caused.iter().sum::<f64>() + selfs.iter().sum::<f64>();
    if n > 0 {
        caused[n - 1] += added_ms - attributed;
    }
    let attributed_ms: f64 = caused.iter().sum::<f64>() + selfs.iter().sum::<f64>();

    let tenants = (0..n)
        .map(|k| {
            let spec = &cfg.tenants[k];
            let mix = &multi.tenants[k];
            let lat = |records: &[crate::exec::RequestRecord]| -> Vec<f64> {
                records.iter().map(|r| r.latency_ms).collect()
            };
            let tax_fraction = if mix.completed.is_empty() {
                0.0
            } else {
                mix.completed
                    .iter()
                    .map(|r| r.breakdown.tax_fraction())
                    .sum::<f64>()
                    / mix.completed.len() as f64
            };
            TenantReport {
                label: spec.label.clone(),
                qos: spec.qos,
                model: spec.model.to_string(),
                engine: spec.engine.label(),
                rate_hz: spec.rate_hz,
                requests: spec.requests,
                completed: mix.completed.len(),
                shed: mix.shed,
                burst_continuations: mix.burst_continuations,
                solo: DistStats::from_ms(&lat(&runs[k].tenants[k].completed)),
                multi: DistStats::from_ms(&lat(&mix.completed)),
                queue: DistStats::from_ms(
                    &mix.completed.iter().map(|r| r.queue_ms).collect::<Vec<_>>(),
                ),
                tax_fraction,
                suffered_ms: suffered[k],
                caused_ms: caused[k],
                self_ms: selfs[k],
            }
        })
        .collect();

    ServeReport {
        scenario: cfg.name.clone(),
        soc: cfg.soc.to_string(),
        seed: cfg.seed,
        queue_bound: match cfg.admission {
            AdmissionPolicy::Unbounded => None,
            AdmissionPolicy::Shed { queue_bound } => Some(queue_bound),
        },
        tenants,
        added_ms,
        attributed_ms,
        membw_queued: multi.membw_queued,
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
mod tests {
    use super::*;
    use crate::scenarios;

    #[test]
    fn attribution_conserves_on_smoke() {
        let cfg = scenarios::by_name("smoke").unwrap().seed(11);
        let (report, _) = run_report(&cfg, 2);
        assert_eq!(report.tenants.len(), 3);
        let attributed: f64 = report.tenants.iter().map(|t| t.caused_ms + t.self_ms).sum();
        let added: f64 = report.tenants.iter().map(|t| t.suffered_ms).sum();
        assert!(
            (attributed - added).abs() <= 1e-9 * added.abs().max(1.0),
            "conservation: {attributed} vs {added}"
        );
        assert_eq!(report.added_ms, added);
    }

    #[test]
    fn thread_counts_do_not_change_the_report() {
        let cfg = scenarios::by_name("smoke").unwrap().seed(4);
        let (a, _) = run_report(&cfg, 1);
        let (b, _) = run_report(&cfg, 4);
        assert_eq!(a.added_ms, b.added_ms);
        for (ta, tb) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(ta.multi.p99, tb.multi.p99);
            assert_eq!(ta.caused_ms, tb.caused_ms);
        }
    }
}
