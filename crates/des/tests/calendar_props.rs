//! Property tests for the event calendar and RNG — the invariants every
//! other crate relies on. Randomized cases are driven by the crate's own
//! deterministic [`SimRng`] (seeded per test), so the suite needs no
//! external dependencies and every failure reproduces bit-exactly.

use aitax_des::{Calendar, SimRng, SimSpan, SimTime, Token};

/// Events always fire in non-decreasing time order regardless of
/// schedule order, and every scheduled event fires exactly once.
#[test]
fn calendar_is_a_priority_queue() {
    let mut rng = SimRng::seed_from(0xCA1E_0001);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 200) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        let mut cal = Calendar::new();
        for &d in &delays {
            cal.schedule_after(SimSpan::from_ns(d));
        }
        let mut fired = 0;
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = cal.next() {
            assert!(t >= last, "case {case}: events fired out of order");
            last = t;
            fired += 1;
        }
        assert_eq!(fired, delays.len(), "case {case}");
        let mut sorted = delays.clone();
        sorted.sort_unstable();
        assert_eq!(last.as_ns(), *sorted.last().unwrap(), "case {case}");
    }
}

/// Cancelled events never fire; everything else does.
#[test]
fn cancellation_is_exact() {
    let mut rng = SimRng::seed_from(0xCA1E_0002);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 100) as usize;
        let delays: Vec<u64> = (0..n).map(|_| rng.uniform_u64(0, 1_000_000)).collect();
        let mut cal = Calendar::new();
        let tokens: Vec<_> = delays
            .iter()
            .map(|&d| cal.schedule_after(SimSpan::from_ns(d)))
            .collect();
        let mut cancelled = std::collections::BTreeSet::new();
        for &tok in &tokens {
            if rng.chance(0.3) {
                assert!(cal.cancel(tok), "case {case}: live event must cancel");
                cancelled.insert(tok);
            }
        }
        let mut fired = std::collections::BTreeSet::new();
        while let Some((_, tok)) = cal.next() {
            assert!(
                !cancelled.contains(&tok),
                "case {case}: cancelled event fired"
            );
            assert!(fired.insert(tok), "case {case}: event fired twice");
        }
        assert_eq!(fired.len(), tokens.len() - cancelled.len(), "case {case}");
    }
}

/// Equal-time events preserve FIFO order (determinism backbone).
#[test]
fn fifo_tie_break() {
    let mut rng = SimRng::seed_from(0xCA1E_0003);
    for case in 0..64 {
        let n = rng.uniform_u64(1, 64) as usize;
        let at = rng.uniform_u64(0, 1000);
        let mut cal = Calendar::new();
        let toks: Vec<_> = (0..n)
            .map(|_| cal.schedule_at(SimTime::from_ns(at)))
            .collect();
        let fired: Vec<_> = std::iter::from_fn(|| cal.next().map(|(_, t)| t)).collect();
        assert_eq!(fired, toks, "case {case}: FIFO order broken");
    }
}

/// Random interleavings of schedule / cancel / fire keep the tombstone
/// calendar honest: time stays monotone, `pending()` always equals the
/// number of live events, the schedule/fire/cancel counters balance, and
/// a spent token (fired or cancelled) is rejected forever — even after
/// its slot has been recycled by a later event.
#[test]
fn churn_fuzz_accounting_and_token_reuse_safety() {
    let mut rng = SimRng::seed_from(0xCA1E_0006);
    for case in 0..48 {
        let mut cal = Calendar::new();
        let mut live: Vec<Token> = Vec::new();
        let mut spent: Vec<Token> = Vec::new();
        let mut last = SimTime::ZERO;
        let ops = rng.uniform_u64(100, 600);
        for op in 0..ops {
            match rng.uniform_u64(0, 4) {
                // Schedule (weighted 2x so the population grows).
                0 | 1 => {
                    let tok = cal.schedule_after(SimSpan::from_ns(rng.uniform_u64(0, 100_000)));
                    assert!(
                        !live.contains(&tok) && !spent.contains(&tok),
                        "case {case} op {op}: token handed out twice"
                    );
                    live.push(tok);
                }
                // Fire the next event.
                2 => {
                    if let Some((t, tok)) = cal.next() {
                        assert!(t >= last, "case {case} op {op}: time went backwards");
                        last = t;
                        let pos = live
                            .iter()
                            .position(|&l| l == tok)
                            .unwrap_or_else(|| panic!("case {case} op {op}: fired unknown token"));
                        spent.push(live.swap_remove(pos));
                    }
                }
                // Cancel: a live token must cancel exactly once; a spent
                // token must be rejected no matter who owns its slot now.
                _ => {
                    let pick_live = !live.is_empty() && (spent.is_empty() || rng.chance(0.5));
                    if pick_live {
                        let i = rng.uniform_u64(0, live.len() as u64) as usize;
                        let tok = live.swap_remove(i);
                        assert!(cal.cancel(tok), "case {case} op {op}: live cancel failed");
                        spent.push(tok);
                    } else if !spent.is_empty() {
                        let i = rng.uniform_u64(0, spent.len() as u64) as usize;
                        assert!(
                            !cal.cancel(spent[i]),
                            "case {case} op {op}: stale token cancelled a recycled slot"
                        );
                    }
                }
            }
            assert_eq!(
                cal.pending(),
                live.len(),
                "case {case} op {op}: pending() drifted from live population"
            );
            assert_eq!(
                cal.scheduled_total(),
                cal.fired_total() + cal.cancelled_total() + cal.pending() as u64,
                "case {case} op {op}: counters do not balance"
            );
        }
        // Drain: every remaining live event fires, in order, exactly once.
        while let Some((t, tok)) = cal.next() {
            assert!(t >= last, "case {case}: drain out of order");
            last = t;
            let pos = live.iter().position(|&l| l == tok);
            assert!(pos.is_some(), "case {case}: drained unknown token");
            live.swap_remove(pos.unwrap());
        }
        assert!(live.is_empty(), "case {case}: live events lost");
        assert_eq!(cal.pending(), 0, "case {case}");
    }
}

/// Same-seed RNG streams are identical; jitter stays in bounds.
#[test]
#[expect(clippy::float_cmp, reason = "tests pin exact results")]
fn rng_determinism_and_bounds() {
    let mut meta = SimRng::seed_from(0xCA1E_0004);
    for case in 0..64 {
        let seed = meta.next_u64();
        let frac = meta.uniform(0.0, 0.5);
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..50 {
            let ja = a.jitter(frac);
            assert_eq!(ja, b.jitter(frac), "case {case}: streams diverged");
            assert!(
                ja >= 1.0 - frac - 1e-12 && ja <= 1.0 + frac + 1e-12,
                "case {case}: jitter {ja} outside ±{frac}"
            );
        }
    }
}

/// Log-normal samples are always positive; exponential samples too.
#[test]
fn distribution_supports() {
    let mut meta = SimRng::seed_from(0xCA1E_0005);
    for case in 0..64 {
        let seed = meta.next_u64();
        let median = meta.uniform(0.001, 100.0);
        let sigma = meta.uniform(0.0, 2.0);
        let mut r = SimRng::seed_from(seed);
        for _ in 0..20 {
            assert!(r.lognormal(median, sigma) > 0.0, "case {case}");
            assert!(r.exponential(median) >= 0.0, "case {case}");
        }
    }
}
