//! Reusable simulation contexts: the simulator's own init-tax
//! amortization.
//!
//! The paper splits model cost into one-time initialization and
//! steady-state inference; the same split applies to the simulator
//! itself. Every [`E2eConfig::run`](crate::pipeline::E2eConfig::run)
//! pays a setup tax — machine/calendar/trace allocation, graph build,
//! session compile — before simulating a single event. A [`SimContext`]
//! holds the machine across runs so that tax is paid once: repeated
//! runs reset the machine in place (retaining the calendar's heap and
//! slab, run-queue and trace-column capacity) and resolve graphs and
//! plans through the process-wide compiled-artifact caches.
//!
//! Reuse is strictly invisible to results: a reset machine matches a
//! freshly booted one field-for-field (see
//! [`Machine::reset`](aitax_kernel::Machine::reset)), so a run in a
//! reused context is byte-identical to a run in a fresh one —
//! `tests/context_reuse.rs` pins this differentially.

use aitax_kernel::Machine;
use aitax_soc::{SocCatalog, SocId};

/// A reusable simulation scratch context: one machine, rebuilt only when
/// the chipset changes, reset in place otherwise.
///
/// Not `Send` (the machine holds boxed callbacks); worker threads each
/// build their own — see `run_tasks_ctx` in `aitax-lab`.
///
/// # Example
///
/// ```
/// use aitax_core::SimContext;
/// use aitax_core::pipeline::E2eConfig;
/// use aitax_models::zoo::ModelId;
/// use aitax_tensor::DType;
///
/// let mut ctx = SimContext::new();
/// let quick = || E2eConfig::new(ModelId::MobileNetV1, DType::F32).iterations(3);
/// let first = quick().run_in(&mut ctx);
/// let again = quick().run_in(&mut ctx); // machine reused, no rebuild
/// assert_eq!(
///     first.e2e_summary().samples_ms(),
///     again.e2e_summary().samples_ms()
/// );
/// ```
#[derive(Default)]
pub struct SimContext {
    machine: Option<(SocId, Machine)>,
}

impl SimContext {
    /// Creates an empty context; the first run boots its machine.
    pub fn new() -> Self {
        SimContext::default()
    }

    /// A machine for `soc`, seeded with `seed`: reset in place when the
    /// cached machine models the same chipset, freshly booted otherwise.
    /// Either way the returned machine is indistinguishable from
    /// `Machine::new(SocCatalog::get(soc), seed)`.
    #[expect(clippy::expect_used, reason = "both branches leave Some in place")]
    pub fn checkout(&mut self, soc: SocId, seed: u64) -> &mut Machine {
        let reusable = matches!(&self.machine, Some((cached, _)) if *cached == soc);
        if reusable {
            #[expect(clippy::expect_used, reason = "just matched Some above")]
            let (_, m) = self.machine.as_mut().expect("matched Some");
            m.reset(seed);
        } else {
            self.machine = Some((soc, Machine::new(SocCatalog::get(soc), seed)));
        }
        &mut self.machine.as_mut().expect("machine just installed").1
    }

    /// Whether a machine is currently cached (and for which chipset).
    #[cfg(test)]
    fn cached_soc(&self) -> Option<SocId> {
        self.machine.as_ref().map(|(soc, _)| *soc)
    }

    /// The cached machine as the last run left it, for inspection
    /// between runs (the next checkout resets it).
    pub fn machine(&self) -> Option<&Machine> {
        self.machine.as_ref().map(|(_, m)| m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_reuses_machine_for_same_soc() {
        let mut ctx = SimContext::new();
        assert_eq!(ctx.cached_soc(), None);
        let first = ctx.checkout(SocId::Sd845, 1) as *const Machine;
        assert_eq!(ctx.cached_soc(), Some(SocId::Sd845));
        let second = ctx.checkout(SocId::Sd845, 2) as *const Machine;
        assert_eq!(first, second, "same chipset must reuse the allocation");
        ctx.checkout(SocId::Sd865, 3);
        assert_eq!(ctx.cached_soc(), Some(SocId::Sd865));
    }

    #[test]
    fn checkout_matches_fresh_boot() {
        let mut ctx = SimContext::new();
        // Dirty the machine with a short run's worth of state.
        {
            let m = ctx.checkout(SocId::Sd845, 9);
            m.set_tracing(true);
            m.after(aitax_des::SimSpan::from_us(5.0), |_| {});
            while m.step() {}
        }
        let reused = ctx.checkout(SocId::Sd845, 11);
        let fresh = Machine::new(SocCatalog::get(SocId::Sd845), 11);
        assert_eq!(reused.now(), fresh.now());
        assert_eq!(reused.stats(), fresh.stats());
        assert_eq!(reused.temp_c().to_bits(), fresh.temp_c().to_bits());
        assert!(!reused.trace.is_enabled());
        assert_eq!(reused.trace.len(), 0);
        assert!(reused.trace.symbols().is_empty());
    }
}
