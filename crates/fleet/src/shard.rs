//! Sharded fleet execution on the lab's work-stealing pool.
//!
//! A [`ShardPlan`] cuts the device index space into contiguous ranges;
//! each range becomes one task for [`aitax_lab::run_tasks_ctx`], and a
//! task expands its devices lazily — sampling [`DeviceSpec`]s and
//! running them one at a time — so the (device, request) grid never
//! materializes. Each pool worker keeps one
//! [`SimContext`], so consecutive devices on a
//! worker (and the main-run/energy-probe pair within one device) reuse
//! a machine instead of re-allocating calendar, trace and run-queue
//! storage per run.
//!
//! **Shards never pre-merge.** A task returns its devices' raw
//! [`DevicePartial`]s, and because [`run_tasks_ctx`] returns results in
//! input (= shard, = device) order, flattening them reconstructs the
//! canonical device sequence no matter how many shards or threads ran.
//! That is what keeps the downstream float folds byte-identical for any
//! `--shards` × `--threads` combination.
//!
//! [`run_tasks_ctx`]: aitax_lab::run_tasks_ctx
//! [`DeviceSpec`]: crate::population::DeviceSpec

use std::ops::Range;

use aitax_core::SimContext;
use aitax_lab::run_tasks_ctx;

use crate::device::{run_device_in, DevicePartial};
use crate::population::PopulationSpec;

/// A contiguous partition of `devices` into at most `shards` ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    devices: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plans `shards` contiguous ranges over `devices` (clamped to at
    /// least one shard, at most one per device).
    pub fn new(devices: usize, shards: usize) -> ShardPlan {
        ShardPlan {
            devices,
            shards: shards.clamp(1, devices.max(1)),
        }
    }

    /// The effective shard count after clamping.
    #[cfg(test)]
    fn shards(&self) -> usize {
        self.shards
    }

    /// The device ranges, in device order: sizes differ by at most one,
    /// larger shards first.
    pub fn ranges(&self) -> Vec<Range<usize>> {
        let base = self.devices / self.shards;
        let rem = self.devices % self.shards;
        let mut out = Vec::with_capacity(self.shards);
        let mut start = 0;
        for s in 0..self.shards {
            let len = base + usize::from(s < rem);
            out.push(start..start + len);
            start += len;
        }
        out
    }
}

/// Runs the whole fleet: `requests` total requests over `spec`'s
/// devices, cut into `shards` tasks executed on `threads` workers.
///
/// Returns per-device partials **in device order** — the canonical
/// sequence every aggregation folds in.
pub fn run_fleet(
    spec: &PopulationSpec,
    requests: u64,
    shards: usize,
    threads: usize,
) -> Vec<DevicePartial> {
    let plan = ShardPlan::new(spec.devices, shards);
    let per_shard: Vec<Vec<DevicePartial>> =
        run_tasks_ctx(plan.ranges(), threads, SimContext::new, |ctx, range| {
            range
                .clone()
                .map(|k| run_device_in(ctx, &spec.device(k), spec.requests_for(k, requests)))
                .collect()
        });
    per_shard.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_exactly() {
        for (devices, shards) in [(10, 3), (7, 7), (5, 16), (1, 1), (100, 8)] {
            let plan = ShardPlan::new(devices, shards);
            let ranges = plan.ranges();
            assert_eq!(ranges.len(), plan.shards());
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().unwrap().end, devices);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(w[0].len() >= w[1].len(), "larger shards first");
                assert!(w[0].len() - w[1].len() <= 1, "balanced");
            }
        }
    }

    #[test]
    fn degenerate_plans_are_clamped() {
        assert_eq!(ShardPlan::new(4, 0).shards(), 1);
        assert_eq!(ShardPlan::new(4, 99).shards(), 4);
        assert_eq!(ShardPlan::new(0, 3).shards(), 1);
        assert_eq!(ShardPlan::new(0, 3).ranges(), vec![0..0]);
    }

    #[test]
    fn fleet_partials_come_back_in_device_order() {
        let spec = PopulationSpec::new("t").devices(6).seed(2);
        let partials = run_fleet(&spec, 18, 3, 1);
        assert_eq!(partials.len(), 6);
        for (k, p) in partials.iter().enumerate() {
            assert_eq!(p.device_id, k);
            assert_eq!(p.requests, 3);
        }
    }

    #[test]
    fn partials_are_identical_for_any_shard_and_thread_split() {
        let spec = PopulationSpec::new("t").devices(6).seed(5);
        let reference = run_fleet(&spec, 13, 1, 1);
        for (shards, threads) in [(2, 1), (3, 2), (6, 4), (1, 2)] {
            let got = run_fleet(&spec, 13, shards, threads);
            assert_eq!(
                got, reference,
                "{shards} shards × {threads} threads must match serial"
            );
        }
    }
}
