//! Differential oracle for the timing-wheel calendar.
//!
//! The wheel in `calendar.rs` earns its determinism claim here: seeded
//! scripts of mixed schedule / cancel / pop / peek / advance operations
//! are replayed, operation by operation, against both the wheel
//! [`Calendar`] and the retired binary-heap [`LegacyCalendar`] (whose
//! `(time, seq)` ordering is correct by construction), asserting after
//! every step that the two agree on:
//!
//! * the **pop sequence** — which logical event fires, and when,
//! * the **clock** (`now`) and the peeked head time,
//! * the **pending count** and the scheduled/fired/cancelled totals,
//! * **token-reuse safety** — spent tokens are rejected by both forever.
//!
//! Token *values* are implementation detail (the two reclaim tombstone
//! slots at different moments, so slot numbers diverge); equality is
//! checked through caller-side logical event ids, never raw tokens.
//!
//! The full run replays ≥1M operations (seconds, even unoptimized). CI
//! smoke can shrink it via `AITAX_DIFF_OPS=<total>`; any failure names
//! the script seed and operation index, and reproduces bit-exactly.

use std::collections::BTreeMap;

use aitax_des::{Calendar, LegacyCalendar, SimRng, SimSpan, SimTime, Token};

/// Script seeds: one independent operation stream each.
const SCRIPT_SEEDS: [u64; 6] = [
    0xD1FF_0001,
    0xD1FF_0002,
    0xD1FF_0003,
    0xD1FF_0004,
    0xD1FF_0005,
    0xD1FF_0006,
];

/// Total operations across all scripts unless `AITAX_DIFF_OPS` overrides.
const DEFAULT_TOTAL_OPS: u64 = 1_200_000;

#[expect(
    clippy::disallowed_methods,
    reason = "AITAX_DIFF_OPS only sizes the run; both calendars replay the same scripts"
)]
#[expect(clippy::panic, reason = "a malformed knob fails the test")]
fn total_ops() -> u64 {
    match std::env::var("AITAX_DIFF_OPS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("AITAX_DIFF_OPS must be an integer, got {v:?}")),
        Err(_) => DEFAULT_TOTAL_OPS,
    }
}

/// One live logical event, tracked per implementation.
struct LiveEvent {
    id: u64,
    wheel: Token,
    legacy: Token,
}

/// A spent (fired or cancelled) token pair, kept to prove staleness.
struct SpentPair {
    wheel: Token,
    legacy: Token,
}

/// Both calendars plus the caller-side identity maps that translate
/// implementation tokens back to logical event ids.
struct Harness {
    wheel: Calendar,
    legacy: LegacyCalendar,
    live: Vec<LiveEvent>,
    /// wheel-token raw value → logical id (raw includes the generation,
    /// so it is unique even across slot recycling).
    by_wheel: BTreeMap<u64, u64>,
    by_legacy: BTreeMap<u64, u64>,
    spent: Vec<SpentPair>,
    next_id: u64,
}

impl Harness {
    fn new() -> Self {
        Harness {
            wheel: Calendar::new(),
            legacy: LegacyCalendar::new(),
            live: Vec::new(),
            by_wheel: BTreeMap::new(),
            by_legacy: BTreeMap::new(),
            spent: Vec::new(),
            next_id: 0,
        }
    }

    fn schedule(&mut self, delay: u64, ctx: &str) {
        let span = SimSpan::from_ns(delay);
        let w = self.wheel.schedule_after(span);
        let l = self.legacy.schedule_after(span);
        let id = self.next_id;
        self.next_id += 1;
        assert!(
            self.by_wheel.insert(w.raw(), id).is_none(),
            "{ctx}: wheel handed out a live token twice"
        );
        assert!(
            self.by_legacy.insert(l.raw(), id).is_none(),
            "{ctx}: legacy handed out a live token twice"
        );
        self.live.push(LiveEvent {
            id,
            wheel: w,
            legacy: l,
        });
    }

    /// Pops both calendars and asserts they fire the same logical event
    /// at the same instant. Returns whether anything fired.
    #[expect(
        clippy::panic,
        reason = "a divergence between the calendars fails the test"
    )]
    fn pop(&mut self, ctx: &str) -> bool {
        let w = self.wheel.next();
        let l = self.legacy.next();
        match (w, l) {
            (None, None) => false,
            (Some((wt, wtok)), Some((lt, ltok))) => {
                assert_eq!(wt, lt, "{ctx}: fire times diverged");
                let wid = self
                    .by_wheel
                    .remove(&wtok.raw())
                    .unwrap_or_else(|| panic!("{ctx}: wheel fired an unknown token"));
                let lid = self
                    .by_legacy
                    .remove(&ltok.raw())
                    .unwrap_or_else(|| panic!("{ctx}: legacy fired an unknown token"));
                assert_eq!(wid, lid, "{ctx}: pop order diverged (event {wid} vs {lid})");
                let pos = self
                    .live
                    .iter()
                    .position(|e| e.id == wid)
                    .unwrap_or_else(|| panic!("{ctx}: fired event {wid} was not live"));
                let ev = self.live.swap_remove(pos);
                self.spent.push(SpentPair {
                    wheel: ev.wheel,
                    legacy: ev.legacy,
                });
                true
            }
            (w, l) => {
                panic!("{ctx}: one calendar fired and the other did not (wheel={w:?} legacy={l:?})")
            }
        }
    }

    fn cancel_live(&mut self, i: usize, ctx: &str) {
        let ev = self.live.swap_remove(i);
        assert!(
            self.wheel.cancel(ev.wheel),
            "{ctx}: wheel refused a live cancel"
        );
        assert!(
            self.legacy.cancel(ev.legacy),
            "{ctx}: legacy refused a live cancel"
        );
        self.by_wheel.remove(&ev.wheel.raw());
        self.by_legacy.remove(&ev.legacy.raw());
        self.spent.push(SpentPair {
            wheel: ev.wheel,
            legacy: ev.legacy,
        });
    }

    fn assert_spent_rejected(&mut self, i: usize, ctx: &str) {
        let p = &self.spent[i];
        assert!(
            !self.wheel.cancel(p.wheel),
            "{ctx}: wheel accepted a spent token"
        );
        assert!(
            !self.legacy.cancel(p.legacy),
            "{ctx}: legacy accepted a spent token"
        );
    }

    /// The step-invariant checks run after every operation.
    fn check_agreement(&mut self, ctx: &str) {
        assert_eq!(
            self.wheel.now(),
            self.legacy.now(),
            "{ctx}: clocks diverged"
        );
        assert_eq!(
            self.wheel.pending(),
            self.legacy.pending(),
            "{ctx}: pending diverged"
        );
        assert_eq!(
            self.wheel.pending(),
            self.live.len(),
            "{ctx}: pending drifted"
        );
        assert_eq!(
            (
                self.wheel.scheduled_total(),
                self.wheel.fired_total(),
                self.wheel.cancelled_total()
            ),
            (
                self.legacy.scheduled_total(),
                self.legacy.fired_total(),
                self.legacy.cancelled_total()
            ),
            "{ctx}: counters diverged"
        );
    }

    fn check_peek(&mut self, ctx: &str) {
        assert_eq!(
            self.wheel.peek_time(),
            self.legacy.peek_time(),
            "{ctx}: peeked head diverged"
        );
    }
}

/// Delay distribution mixing the regimes the wheel must get right:
/// mostly near-term timers, ~10% far-future events that land at high
/// wheel levels and cross multiple cascade boundaries on their way down,
/// and a slice of exact ties (zero delay and round numbers).
fn pick_delay(rng: &mut SimRng) -> u64 {
    match rng.uniform_u64(0, 100) {
        // Same-instant and same-slot ties.
        0..=9 => rng.uniform_u64(0, 4),
        // Near-term: level 0-1 territory.
        10..=69 => rng.uniform_u64(0, 50_000),
        // Mid-range: a few cascade levels.
        70..=89 => rng.uniform_u64(50_000, 50_000_000),
        // Far future: up to ~64^8 ns, traversing most of the wheel.
        90..=97 => rng.uniform_u64(50_000_000, 1 << 48),
        // Extreme horizon.
        _ => rng.uniform_u64(1 << 48, 1 << 60),
    }
}

fn run_script(seed: u64, ops: u64) {
    let mut rng = SimRng::seed_from(seed);
    let mut h = Harness::new();
    for op in 0..ops {
        let ctx = format!("script {seed:#x} op {op}");
        match rng.uniform_u64(0, 10) {
            // Schedule (weighted 4x so a real backlog builds up).
            0..=3 => {
                let delay = pick_delay(&mut rng);
                h.schedule(delay, &ctx);
            }
            // Pop.
            4..=6 => {
                h.pop(&ctx);
            }
            // Cancel a live event, or probe a spent token for staleness.
            7 | 8 => {
                let pick_live = !h.live.is_empty() && (h.spent.is_empty() || rng.chance(0.6));
                if pick_live {
                    let i = rng.uniform_u64(0, h.live.len() as u64) as usize;
                    h.cancel_live(i, &ctx);
                } else if !h.spent.is_empty() {
                    let i = rng.uniform_u64(0, h.spent.len() as u64) as usize;
                    h.assert_spent_rejected(i, &ctx);
                }
            }
            // Peek, and occasionally advance the idle clock part-way
            // toward (or exactly onto) the head event.
            _ => {
                h.check_peek(&ctx);
                if rng.chance(0.25) {
                    let now = h.wheel.now();
                    let target = match h.wheel.peek_time() {
                        Some(head) => {
                            let gap = head.as_ns() - now.as_ns();
                            SimTime::from_ns(now.as_ns() + gap / 2 + (gap % 2) * (op % 2))
                        }
                        None => SimTime::from_ns(
                            now.as_ns().saturating_add(rng.uniform_u64(0, 1 << 30)),
                        ),
                    };
                    h.wheel.advance_to(target);
                    h.legacy.advance_to(target);
                }
            }
        }
        h.check_agreement(&ctx);
    }
    // Drain both to empty: the tail of the pop sequence must agree too.
    let ctx = format!("script {seed:#x} drain");
    while h.pop(&ctx) {
        h.check_agreement(&ctx);
    }
    assert!(h.live.is_empty(), "{ctx}: live events lost");
    assert_eq!(h.wheel.pending(), 0, "{ctx}");
    h.check_peek(&ctx);
}

/// The headline gate: ≥1M mixed operations replayed against the oracle
/// with identical pop sequences, clocks, counters, and token semantics.
#[test]
fn wheel_matches_legacy_heap_under_churn() {
    let total = total_ops();
    let per_script = total.div_ceil(SCRIPT_SEEDS.len() as u64);
    for &seed in &SCRIPT_SEEDS {
        run_script(seed, per_script);
    }
}

/// Far-future-only stress: every event crosses multiple cascade
/// boundaries before firing, with cancels landing mid-cascade.
#[test]
fn far_future_cascades_match_legacy_heap() {
    let mut rng = SimRng::seed_from(0xD1FF_CA5C);
    let mut h = Harness::new();
    let ops = (total_ops() / 20).max(2_000);
    for op in 0..ops {
        let ctx = format!("cascade op {op}");
        match rng.uniform_u64(0, 8) {
            0..=3 => {
                // Bias hard toward high wheel levels (level 2 and above).
                let delay = rng.uniform_u64(1 << 12, 1 << 56);
                h.schedule(delay, &ctx);
            }
            4 | 5 => {
                h.pop(&ctx);
            }
            6 => {
                if !h.live.is_empty() {
                    let i = rng.uniform_u64(0, h.live.len() as u64) as usize;
                    h.cancel_live(i, &ctx);
                }
            }
            _ => h.check_peek(&ctx),
        }
        h.check_agreement(&ctx);
    }
    let ctx = "cascade drain";
    while h.pop(ctx) {
        h.check_agreement(ctx);
    }
    assert_eq!(h.wheel.pending(), 0, "{ctx}");
}
