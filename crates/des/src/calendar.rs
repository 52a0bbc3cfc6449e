//! The event calendar: a cancellable priority queue over [`SimTime`].
//!
//! The calendar is the heart of the simulator. It owns the virtual clock and
//! guarantees two properties the rest of the stack relies on:
//!
//! 1. **Monotonicity** — [`Calendar::next`] never moves the clock backwards.
//! 2. **Determinism** — events scheduled for the same instant fire in the
//!    order they were scheduled (FIFO tie-breaking via a sequence number),
//!    so a simulation with a fixed seed is exactly reproducible.
//!
//! # Binary heap over a tombstone slab
//!
//! Pending events sit in a [`BinaryHeap`] keyed by `(time, seq)`, where
//! `seq` is a per-calendar schedule counter. The sequence number is
//! globally unique, so it alone breaks every time tie: the pop order *is*
//! `(time, seq)` order by construction, with no invariant to maintain.
//!
//! Each heap entry also names a slot in a dense slab that carries the
//! event's live bit and a generation counter. Cancellation is a
//! tombstone: the slot's live bit is cleared in O(1) and the heap entry
//! is discarded when it reaches the head. Only then is the slot recycled
//! and its generation advanced, which invalidates stale [`Token`]s. Once
//! the heap, slab and free list have reached the run's high-water mark,
//! scheduling, cancelling and popping allocate nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimSpan, SimTime};

/// An opaque handle identifying a scheduled event.
///
/// Tokens are unique for the lifetime of a [`Calendar`] and can be used to
/// [cancel](Calendar::cancel) an event before it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(u64);

impl Token {
    /// Raw packed value: generation in the high 32 bits, slot in the low
    /// 32 (useful for logging).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The slab slot this token occupies. A slot is recycled when its
    /// heap entry leaves the heap: when the event fires, or, for a
    /// cancelled event, when its tombstone reaches the head. So at most
    /// [`Calendar::pending`] + the outstanding tombstones distinct values
    /// exist at once, and callers can use the slot as a small dense index
    /// for per-event side tables.
    #[inline]
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    #[inline]
    fn pack(generation: u32, slot: u32) -> Token {
        Token((u64::from(generation) << 32) | u64::from(slot))
    }

    #[cfg(test)]
    fn from_raw(raw: u64) -> Token {
        Token(raw)
    }
}

/// One slab entry. `generation` advances each time the slot is recycled,
/// invalidating any stale [`Token`] still pointing at it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    live: bool,
}

/// A cancellable, deterministically ordered event calendar.
///
/// # Example
///
/// ```
/// use aitax_des::{Calendar, SimSpan};
///
/// let mut cal = Calendar::new();
/// let late = cal.schedule_after(SimSpan::from_us(9.0));
/// let early = cal.schedule_after(SimSpan::from_us(1.0));
/// cal.cancel(late);
/// assert_eq!(cal.next().map(|(_, tok)| tok), Some(early));
/// assert!(cal.next().is_none());
/// ```
#[derive(Debug, Default)]
pub struct Calendar {
    now: SimTime,
    next_seq: u64,
    // Ordered by (time, seq); the trailing slot index is payload only —
    // seq is globally unique, so it alone breaks every time tie (FIFO).
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    scheduled_total: u64,
    fired_total: u64,
    cancelled_total: u64,
}

impl Calendar {
    /// Creates an empty calendar with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the calendar to its just-constructed state — clock at
    /// [`SimTime::ZERO`], no pending events, zeroed counters, sequence
    /// and generation numbering restarted — while keeping the heap, slab
    /// and free-list capacity, so a reused calendar schedules its next
    /// run without reallocating. Tokens minted by a reset calendar are
    /// identical to those a fresh calendar would mint (the slab refills
    /// from index 0 at generation 0), which is what makes a reset run
    /// byte-identical to a fresh one.
    ///
    /// Tokens from before the reset must not be passed to
    /// [`Calendar::cancel`] afterwards; like any stale token they are
    /// rejected unless the slab happens to re-mint the same
    /// (slot, generation) pair, which a full reset makes possible.
    pub fn reset(&mut self) {
        self.now = SimTime::ZERO;
        self.next_seq = 0;
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.scheduled_total = 0;
        self.fired_total = 0;
        self.cancelled_total = 0;
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        (self.scheduled_total - self.fired_total - self.cancelled_total) as usize
    }

    /// Total events ever scheduled (deterministic across identical runs).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total events that fired via [`Calendar::next`].
    pub fn fired_total(&self) -> u64 {
        self.fired_total
    }

    /// Total events cancelled while still pending.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Schedules an event `delay` after the current time.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimSpan) -> Token {
        self.schedule_at(self.now + delay)
    }

    /// Schedules an event at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Calendar::now`]); scheduling
    /// into the past would violate causality.
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime) -> Token {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} at={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].live = true;
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    generation: 0,
                    live: true,
                });
                slot
            }
        };
        self.heap.push(Reverse((at, seq, slot)));
        self.scheduled_total += 1;
        Token::pack(self.slots[slot as usize].generation, slot)
    }

    /// Cancels a pending event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. O(1): the heap entry stays behind as
    /// a tombstone and is discarded when it reaches the head.
    #[inline]
    pub fn cancel(&mut self, token: Token) -> bool {
        match self.slots.get_mut(token.slot() as usize) {
            Some(s) if s.live && s.generation == token.generation() => {
                s.live = false;
                self.cancelled_total += 1;
                true
            }
            _ => false,
        }
    }

    /// Recycles a slot whose heap entry just popped: the generation bump
    /// invalidates every outstanding token for it, and only now — with no
    /// heap entry referencing it — may the slot be handed out again.
    #[inline]
    fn retire(&mut self, slot: u32) -> (u32, bool) {
        let s = &mut self.slots[slot as usize];
        let generation = s.generation;
        let was_live = s.live;
        s.live = false;
        s.generation = s.generation.wrapping_add(1);
        self.free.push(slot);
        (generation, was_live)
    }

    /// Pops the next live event, advancing the clock to its fire time.
    ///
    /// Returns `None` when the calendar is empty. Cancelled events are
    /// silently skipped (and their slots recycled).
    #[expect(
        clippy::should_implement_trait,
        reason = "`next` advances the simulation clock; the calendar is deliberately not an Iterator"
    )]
    #[inline]
    pub fn next(&mut self) -> Option<(SimTime, Token)> {
        while let Some(Reverse((at, _seq, slot))) = self.heap.pop() {
            let (generation, was_live) = self.retire(slot);
            if !was_live {
                continue;
            }
            debug_assert!(at >= self.now, "heap returned an event in the past");
            self.now = at;
            self.fired_total += 1;
            return Some((at, Token::pack(generation, slot)));
        }
        None
    }

    /// The fire time of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, _seq, slot))) = self.heap.peek() {
            if self.slots[slot as usize].live {
                return Some(at);
            }
            self.heap.pop();
            self.retire(slot);
        }
        None
    }

    /// Advances the clock to `at` without firing anything.
    ///
    /// Useful for injecting externally-timed phases (e.g. a blocking driver
    /// call) into an otherwise idle simulation.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time or before a pending event
    /// (which would make that event fire in the past).
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "cannot rewind the clock");
        if let Some(head) = self.peek_time() {
            assert!(
                at <= head,
                "advance_to({at}) would step over a pending event at {head}"
            );
        }
        self.now = at;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_time_order() {
        let mut cal = Calendar::new();
        let t3 = cal.schedule_after(SimSpan::from_ns(30));
        let t1 = cal.schedule_after(SimSpan::from_ns(10));
        let t2 = cal.schedule_after(SimSpan::from_ns(20));
        let order: Vec<Token> = std::iter::from_fn(|| cal.next().map(|(_, t)| t)).collect();
        assert_eq!(order, vec![t1, t2, t3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut cal = Calendar::new();
        let toks: Vec<Token> = (0..16)
            .map(|_| cal.schedule_after(SimSpan::from_ns(5)))
            .collect();
        let fired: Vec<Token> = std::iter::from_fn(|| cal.next().map(|(_, t)| t)).collect();
        assert_eq!(fired, toks, "equal-time events must fire in schedule order");
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut cal = Calendar::new();
        for d in [40u64, 10, 30, 10, 20] {
            cal.schedule_after(SimSpan::from_ns(d));
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = cal.next() {
            assert!(t >= last);
            last = t;
            assert_eq!(cal.now(), t);
        }
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut cal = Calendar::new();
        let a = cal.schedule_after(SimSpan::from_ns(10));
        let b = cal.schedule_after(SimSpan::from_ns(20));
        assert!(cal.cancel(a));
        assert!(!cal.cancel(a), "double cancel reports false");
        assert_eq!(cal.pending(), 1);
        let (_, tok) = cal.next().unwrap();
        assert_eq!(tok, b);
        assert!(cal.next().is_none());
    }

    #[test]
    fn cancel_unknown_token_is_false() {
        let mut cal = Calendar::new();
        assert!(!cal.cancel(Token::from_raw(42)));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut cal = Calendar::new();
        let a = cal.schedule_after(SimSpan::from_ns(10));
        cal.next();
        assert!(!cal.cancel(a), "fired events cannot be cancelled");
    }

    #[test]
    fn recycled_slot_rejects_stale_token() {
        let mut cal = Calendar::new();
        let old = cal.schedule_after(SimSpan::from_ns(1));
        cal.next();
        // The slot is recycled for a fresh event; the old token must not
        // be able to cancel it.
        let fresh = cal.schedule_after(SimSpan::from_ns(5));
        assert_eq!(old.slot(), fresh.slot(), "slot should be recycled");
        assert_ne!(old, fresh, "generation distinguishes the reuse");
        assert!(!cal.cancel(old));
        assert_eq!(cal.pending(), 1);
        assert!(cal.cancel(fresh));
        assert!(cal.next().is_none());
    }

    #[test]
    fn cancelled_slot_is_not_recycled_until_reclaimed() {
        let mut cal = Calendar::new();
        let a = cal.schedule_after(SimSpan::from_ns(50));
        cal.cancel(a);
        // The tombstone still sits in the heap, so a new event must get
        // a different slot — otherwise the stale entry would alias it.
        let b = cal.schedule_after(SimSpan::from_ns(60));
        assert_ne!(a.slot(), b.slot());
        let (_, tok) = cal.next().unwrap();
        assert_eq!(tok, b);
    }

    #[test]
    fn tombstone_slot_recycles_once_it_leaves_the_heap() {
        let mut cal = Calendar::new();
        let a = cal.schedule_after(SimSpan::from_ns(5));
        let _b = cal.schedule_after(SimSpan::from_ns(9));
        cal.cancel(a);
        // Peeking past the cancelled head discards its tombstone, which
        // frees the slot under a new generation.
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(9)));
        let c = cal.schedule_after(SimSpan::from_ns(7));
        assert_eq!(c.slot(), a.slot(), "the tombstone's slot is reused");
        assert!(!cal.cancel(a), "the stale token stays rejected");
        assert_eq!(cal.next(), Some((SimTime::from_ns(7), c)));
    }

    #[test]
    fn peek_skips_cancelled_head() {
        let mut cal = Calendar::new();
        let a = cal.schedule_after(SimSpan::from_ns(5));
        let _b = cal.schedule_after(SimSpan::from_ns(9));
        cal.cancel(a);
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(9)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_the_past_panics() {
        let mut cal = Calendar::new();
        cal.schedule_after(SimSpan::from_ns(10));
        cal.next();
        cal.schedule_at(SimTime::from_ns(5));
    }

    #[test]
    fn advance_to_moves_idle_clock() {
        let mut cal = Calendar::new();
        cal.advance_to(SimTime::from_ns(100));
        assert_eq!(cal.now(), SimTime::from_ns(100));
    }

    #[test]
    #[should_panic(expected = "step over")]
    fn advance_past_pending_event_panics() {
        let mut cal = Calendar::new();
        cal.schedule_after(SimSpan::from_ns(10));
        cal.advance_to(SimTime::from_ns(50));
    }

    #[test]
    fn pending_counts_live_events() {
        let mut cal = Calendar::new();
        assert_eq!(cal.pending(), 0);
        let a = cal.schedule_after(SimSpan::from_ns(1));
        let _b = cal.schedule_after(SimSpan::from_ns(2));
        assert_eq!(cal.pending(), 2);
        cal.cancel(a);
        assert_eq!(cal.pending(), 1);
        cal.next();
        assert_eq!(cal.pending(), 0);
    }

    #[test]
    fn totals_track_schedule_cancel_fire() {
        let mut cal = Calendar::new();
        let a = cal.schedule_after(SimSpan::from_ns(1));
        let _b = cal.schedule_after(SimSpan::from_ns(2));
        cal.cancel(a);
        while cal.next().is_some() {}
        assert_eq!(cal.scheduled_total(), 2);
        assert_eq!(cal.cancelled_total(), 1);
        assert_eq!(cal.fired_total(), 1);
    }

    #[test]
    fn far_future_horizons_fire_in_order() {
        // Eleven horizons, one per power of 64 up to the end of the `u64`
        // nanosecond timeline, each offset so no two coincide.
        let mut cal = Calendar::new();
        let delays: Vec<u64> = (0..11u32)
            .map(|l| 64u64.saturating_pow(l).saturating_add(u64::from(l)))
            .collect();
        let toks: Vec<Token> = delays
            .iter()
            .map(|&d| cal.schedule_after(SimSpan::from_ns(d)))
            .collect();
        let mut fired = Vec::new();
        while let Some((t, tok)) = cal.next() {
            fired.push((t.as_ns(), tok));
        }
        let mut expect: Vec<(u64, Token)> = delays.into_iter().zip(toks).collect();
        expect.sort_by_key(|&(d, _)| d);
        assert_eq!(fired, expect);
    }

    #[test]
    fn reset_calendar_is_indistinguishable_from_fresh() {
        let mut used = Calendar::new();
        // Dirty every piece of state: schedule, cancel, fire, advance.
        let mut tokens = Vec::new();
        for i in 0..200u64 {
            tokens.push(used.schedule_after(SimSpan::from_ns(1 + i * 37 % 5000)));
        }
        for t in tokens.iter().step_by(3) {
            used.cancel(*t);
        }
        while used.next().is_some() {}
        used.advance_to(SimTime::from_ns(1 << 40));
        used.reset();

        let mut fresh = Calendar::new();
        assert_eq!(used.now(), fresh.now());
        assert_eq!(used.pending(), 0);
        assert_eq!(used.scheduled_total(), 0);
        // Replay an identical script on both: tokens, fire order, clocks
        // and counters must match exactly.
        let script: Vec<u64> = (0..100).map(|i| 1 + (i * i) % 1000).collect();
        let mut ta = Vec::new();
        let mut tb = Vec::new();
        for &d in &script {
            ta.push(used.schedule_after(SimSpan::from_ns(d)));
            tb.push(fresh.schedule_after(SimSpan::from_ns(d)));
        }
        assert_eq!(ta, tb, "reset calendar must mint fresh-identical tokens");
        for (x, y) in ta.iter().zip(&tb).skip(1).step_by(4) {
            assert_eq!(used.cancel(*x), fresh.cancel(*y));
        }
        loop {
            let a = used.next();
            let b = fresh.next();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(used.now(), fresh.now());
        assert_eq!(used.scheduled_total(), fresh.scheduled_total());
        assert_eq!(used.fired_total(), fresh.fired_total());
        assert_eq!(used.cancelled_total(), fresh.cancelled_total());
    }

    #[test]
    fn schedule_at_now_fires_immediately_in_fifo_order() {
        let mut cal = Calendar::new();
        cal.schedule_after(SimSpan::from_ns(100));
        let (t, _) = cal.next().unwrap();
        assert_eq!(t.as_ns(), 100);
        let a = cal.schedule_at(cal.now());
        let b = cal.schedule_at(cal.now());
        assert_eq!(cal.next(), Some((t, a)));
        assert_eq!(cal.next(), Some((t, b)));
        assert!(cal.next().is_none());
    }

    #[test]
    fn max_adjacent_horizons_fire_in_order() {
        let mut cal = Calendar::new();
        let max = cal.schedule_at(SimTime::MAX);
        let almost = cal.schedule_at(SimTime::from_ns(u64::MAX - 1));
        let near = cal.schedule_at(SimTime::from_ns(1));
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(1)));
        assert_eq!(cal.next(), Some((SimTime::from_ns(1), near)));
        assert_eq!(cal.next(), Some((SimTime::from_ns(u64::MAX - 1), almost)));
        // schedule_after saturates at SimTime::MAX, so a MAX-resident
        // calendar can still accept (and immediately order) new events.
        let max2 = cal.schedule_after(SimSpan::from_ns(5));
        assert_eq!(cal.next(), Some((SimTime::MAX, max)));
        assert_eq!(cal.next(), Some((SimTime::MAX, max2)));
        assert!(cal.next().is_none());
    }

    #[test]
    fn advance_into_a_live_slot_keeps_order() {
        // advance_to moves the clock close to a pending event; the next
        // schedule at a *nearer* time must still fire first.
        let mut cal = Calendar::new();
        let far = cal.schedule_at(SimTime::from_ns(100));
        cal.advance_to(SimTime::from_ns(90));
        let near = cal.schedule_at(SimTime::from_ns(95));
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(95)));
        assert_eq!(cal.next(), Some((SimTime::from_ns(95), near)));
        assert_eq!(cal.next(), Some((SimTime::from_ns(100), far)));
    }
}
