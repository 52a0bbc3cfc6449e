//! Property test over the kernel's CPU scheduler: every submitted task
//! completes exactly once, and the run takes no less than the work at
//! peak speed. Randomized cases are driven by the deterministic
//! simulator RNG, so every failure reproduces bit-exactly.

use aitax::des::SimRng;
use aitax::kernel::{Machine, TaskSpec, Work};
use aitax::soc::{SocCatalog, SocId};
use aitax::testkit::assert_ratio_within;

use std::cell::Cell;
use std::rc::Rc;

/// Scheduler conservation: all submitted work completes exactly once,
/// and total busy time is at least the serial work at peak speed.
#[test]
fn scheduler_conserves_work() {
    let mut rng = SimRng::seed_from(0xE2E_0008);
    for case in 0..48 {
        let ntasks = rng.uniform_u64(1, 25) as usize;
        let tasks: Vec<(u64, usize)> = (0..ntasks)
            .map(|_| (rng.uniform_u64(1, 60), rng.uniform_u64(0, 3) as usize))
            .collect();
        let seed = rng.uniform_u64(0, 1000);
        let mut m = Machine::new(SocCatalog::get(SocId::Sd845), seed);
        let done = Rc::new(Cell::new(0usize));
        let mut total_mflops = 0.0;
        for (mflops, class) in &tasks {
            let work = Work::Fp32Flops(*mflops as f64 * 1e6);
            total_mflops += *mflops as f64;
            let spec = match class {
                0 => TaskSpec::foreground("t", work),
                1 => TaskSpec::background("t", work),
                _ => TaskSpec::nnapi_fallback("t", work),
            };
            let d = done.clone();
            m.submit_cpu(spec, move |_| d.set(d.get() + 1));
        }
        m.run_until_idle();
        assert_eq!(done.get(), tasks.len(), "case {case}");
        assert_eq!(m.stats().tasks_completed, tasks.len() as u64, "case {case}");
        // Wall-clock lower bound: all-big-core peak on 4 cores.
        let peak_ms = total_mflops / (4.0 * 22_400.0) * 1e3 / 1e3;
        assert_ratio_within(
            &format!("case {case} wall-clock vs peak-speed bound"),
            m.now().as_ms() + 1e-6,
            peak_ms,
            0.9,
            f64::INFINITY,
        );
    }
}
