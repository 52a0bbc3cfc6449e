//! Differential test of the event calendar against a naive reference.
//!
//! Seeded scripts of mixed schedule / cancel / pop / peek / advance
//! operations are replayed, operation by operation, against both the
//! heap [`Calendar`] and [`Reference`], a model defined here that keeps
//! its pending events in a plain `Vec` of `(time, seq, id)` and pops the
//! minimum by linear scan — `(time, seq)` order with nothing to get
//! wrong. After every step the harness asserts that the two agree on:
//!
//! * the **pop sequence** — which logical event fires, and when,
//! * the **clock** (`now`) and the peeked head time,
//! * the **pending count** and the scheduled/fired/cancelled totals,
//! * **token-reuse safety** — spent tokens are rejected forever.
//!
//! Token *values* are the calendar's own business (slots recycle as
//! tombstones leave the heap); equality is checked through caller-side
//! logical event ids, never raw tokens.
//!
//! The full run replays ≥1M operations (seconds, even unoptimized). CI
//! smoke can shrink it via `AITAX_DIFF_OPS=<total>`; any failure names
//! the script seed and operation index, and reproduces bit-exactly.

use std::collections::BTreeMap;

use aitax_des::{Calendar, SimRng, SimSpan, SimTime, Token};

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
    reason = "AITAX_DIFF_OPS only sizes the run; calendar and reference replay the same scripts"
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

/// The reference calendar: pending events in schedule order, the next
/// one found by a linear scan for the least `(time, seq)`.
#[derive(Default)]
struct Reference {
    now: SimTime,
    next_seq: u64,
    /// `(time, seq, id)` of every pending event.
    pending: Vec<(SimTime, u64, u64)>,
    scheduled_total: u64,
    fired_total: u64,
    cancelled_total: u64,
}

impl Reference {
    fn schedule_after(&mut self, delay: SimSpan, id: u64) {
        self.pending.push((self.now + delay, self.next_seq, id));
        self.next_seq += 1;
        self.scheduled_total += 1;
    }

    /// Index of the pending event with the least `(time, seq)`.
    fn head(&self) -> Option<usize> {
        (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
    }

    fn next(&mut self) -> Option<(SimTime, u64)> {
        let i = self.head()?;
        let (at, _, id) = self.pending.remove(i);
        self.now = at;
        self.fired_total += 1;
        Some((at, id))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|i| self.pending[i].0)
    }

    fn cancel(&mut self, id: u64) -> bool {
        match self.pending.iter().position(|e| e.2 == id) {
            Some(i) => {
                self.pending.remove(i);
                self.cancelled_total += 1;
                true
            }
            None => false,
        }
    }

    fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "reference clock rewound");
        if let Some(head) = self.peek_time() {
            assert!(at <= head, "reference clock stepped over {head}");
        }
        self.now = at;
    }
}

/// One live logical event and the calendar token that names it.
struct LiveEvent {
    id: u64,
    token: Token,
}

/// The calendar, the reference, and the caller-side identity maps that
/// translate calendar tokens back to logical event ids.
struct Harness {
    cal: Calendar,
    reference: Reference,
    live: Vec<LiveEvent>,
    /// Token raw value → logical id (raw includes the generation, so it
    /// is unique even across slot recycling).
    by_token: BTreeMap<u64, u64>,
    /// Fired or cancelled events, kept to prove their tokens stay stale.
    spent: Vec<LiveEvent>,
    next_id: u64,
}

impl Harness {
    fn new() -> Self {
        Harness {
            cal: Calendar::new(),
            reference: Reference::default(),
            live: Vec::new(),
            by_token: BTreeMap::new(),
            spent: Vec::new(),
            next_id: 0,
        }
    }

    fn schedule(&mut self, delay: u64, ctx: &str) {
        let span = SimSpan::from_ns(delay);
        let token = self.cal.schedule_after(span);
        let id = self.next_id;
        self.next_id += 1;
        self.reference.schedule_after(span, id);
        assert!(
            self.by_token.insert(token.raw(), id).is_none(),
            "{ctx}: calendar handed out a live token twice"
        );
        self.live.push(LiveEvent { id, token });
    }

    /// Pops both and asserts they fire the same logical event at the
    /// same instant. Returns whether anything fired.
    #[expect(
        clippy::panic,
        reason = "a divergence from the reference fails the test"
    )]
    fn pop(&mut self, ctx: &str) -> bool {
        let got = self.cal.next();
        let want = self.reference.next();
        match (got, want) {
            (None, None) => false,
            (Some((t, token)), Some((rt, rid))) => {
                assert_eq!(t, rt, "{ctx}: fire times diverged");
                let id = self
                    .by_token
                    .remove(&token.raw())
                    .unwrap_or_else(|| panic!("{ctx}: calendar fired an unknown token"));
                assert_eq!(id, rid, "{ctx}: pop order diverged (event {id} vs {rid})");
                let pos = self
                    .live
                    .iter()
                    .position(|e| e.id == id)
                    .unwrap_or_else(|| panic!("{ctx}: fired event {id} was not live"));
                let ev = self.live.swap_remove(pos);
                self.spent.push(ev);
                true
            }
            (got, want) => {
                panic!("{ctx}: one side fired and the other did not (calendar={got:?} reference={want:?})")
            }
        }
    }

    fn cancel_live(&mut self, i: usize, ctx: &str) {
        let ev = self.live.swap_remove(i);
        assert!(
            self.cal.cancel(ev.token),
            "{ctx}: calendar refused a live cancel"
        );
        assert!(
            self.reference.cancel(ev.id),
            "{ctx}: reference refused a live cancel"
        );
        self.by_token.remove(&ev.token.raw());
        self.spent.push(ev);
    }

    fn assert_spent_rejected(&mut self, i: usize, ctx: &str) {
        let ev = &self.spent[i];
        assert!(
            !self.cal.cancel(ev.token),
            "{ctx}: calendar accepted a spent token"
        );
        assert!(
            !self.reference.cancel(ev.id),
            "{ctx}: reference accepted a spent event"
        );
    }

    fn advance_to(&mut self, at: SimTime) {
        self.cal.advance_to(at);
        self.reference.advance_to(at);
    }

    /// The step-invariant checks run after every operation.
    fn check_agreement(&mut self, ctx: &str) {
        assert_eq!(self.cal.now(), self.reference.now, "{ctx}: clocks diverged");
        assert_eq!(
            self.cal.pending(),
            self.reference.pending.len(),
            "{ctx}: pending diverged"
        );
        assert_eq!(
            self.cal.pending(),
            self.live.len(),
            "{ctx}: pending drifted"
        );
        assert_eq!(
            (
                self.cal.scheduled_total(),
                self.cal.fired_total(),
                self.cal.cancelled_total()
            ),
            (
                self.reference.scheduled_total,
                self.reference.fired_total,
                self.reference.cancelled_total
            ),
            "{ctx}: counters diverged"
        );
    }

    fn check_peek(&mut self, ctx: &str) {
        assert_eq!(
            self.cal.peek_time(),
            self.reference.peek_time(),
            "{ctx}: peeked head diverged"
        );
    }
}

/// Delay distribution mixing the regimes a calendar must order right:
/// mostly near-term timers, ~10% far-future events that wait behind many
/// later-scheduled nearer ones, and a slice of exact ties (zero and
/// near-zero delays).
fn pick_delay(rng: &mut SimRng) -> u64 {
    match rng.uniform_u64(0, 100) {
        // Same-instant and adjacent-instant ties.
        0..=9 => rng.uniform_u64(0, 4),
        // Near-term: up to 50 µs.
        10..=69 => rng.uniform_u64(0, 50_000),
        // Mid-range: up to 50 ms.
        70..=89 => rng.uniform_u64(50_000, 50_000_000),
        // Far future: up to 2^48 ns (~3.3 days).
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
                    let now = h.cal.now();
                    let target = match h.cal.peek_time() {
                        Some(head) => {
                            let gap = head.as_ns() - now.as_ns();
                            SimTime::from_ns(now.as_ns() + gap / 2 + (gap % 2) * (op % 2))
                        }
                        None => SimTime::from_ns(
                            now.as_ns().saturating_add(rng.uniform_u64(0, 1 << 30)),
                        ),
                    };
                    h.advance_to(target);
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
    assert_eq!(h.cal.pending(), 0, "{ctx}");
    h.check_peek(&ctx);
}

/// The headline gate: ≥1M mixed operations replayed against the
/// reference with identical pop sequences, clocks, counters, and token
/// semantics.
#[test]
fn calendar_matches_reference_under_churn() {
    let total = total_ops();
    let per_script = total.div_ceil(SCRIPT_SEEDS.len() as u64);
    for &seed in &SCRIPT_SEEDS {
        run_script(seed, per_script);
    }
}

/// Far-future-only stress: horizons from 4 µs to ~2.3 years of simulated
/// time, with cancels landing between pops.
#[test]
fn far_future_events_match_reference() {
    let mut rng = SimRng::seed_from(0xD1FF_CA5C);
    let mut h = Harness::new();
    let ops = (total_ops() / 20).max(2_000);
    for op in 0..ops {
        let ctx = format!("far op {op}");
        match rng.uniform_u64(0, 8) {
            0..=3 => {
                // Bias hard toward long horizons.
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
    let ctx = "far drain";
    while h.pop(ctx) {
        h.check_agreement(ctx);
    }
    assert_eq!(h.cal.pending(), 0, "{ctx}");
}
