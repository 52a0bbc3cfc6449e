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
//! # Hierarchical timing wheel
//!
//! Internally the calendar is a hierarchical timing wheel — the classic
//! kernel timer design — rather than a binary heap: [`LEVELS`] levels of
//! [`SLOTS`] buckets each, where a level-`L` slot spans `64^L` nanoseconds
//! and one level's 64 slots exactly tile one slot of the level above. An
//! event lands at the level of the highest bit in which its fire time
//! differs from `now` (`level = floor(log64(time XOR now))`), making
//! schedule and cancel O(1) and pop O(levels) worst case with no
//! comparison sorting anywhere.
//!
//! Buckets are intrusive FIFO lists threaded through a dense slab; a
//! 64-bit occupancy word per level finds the next non-empty bucket with a
//! single `trailing_zeros`. When the clock advances, the newly entered
//! slot at each level is *cascaded*: its entries are re-placed relative to
//! the new `now`, where they land at strictly lower levels (placement
//! relative to `now` can never target the slot containing `now`).
//!
//! **Determinism argument.** Within any bucket, live entries always sit in
//! increasing sequence order: direct schedules append in call order; a
//! bucket receives at most one cascade batch per epoch (all events bound
//! for one destination bucket share the same highest-differing-bit versus
//! the clock, so they travel down the levels together, in list order);
//! and any direct schedule that can target a bucket happens only after the
//! clock advance that delivered that bucket's cascade batch, so it carries
//! a larger sequence number. Level-0 buckets hold exactly one nanosecond
//! of simulated time, so popping bucket heads in slot order reproduces the
//! old binary heap's `(time, seq)` order exactly — a claim the
//! differential fuzzer in `tests/calendar_differential.rs` replays
//! millions of mixed operations against [`legacy::LegacyCalendar`] to
//! enforce.
//!
//! Cancellation is a tombstone: the slab entry's live bit is cleared and
//! the entry is reclaimed when its bucket is next drained or cascaded —
//! the slot generation then advances, invalidating stale [`Token`]s.

use crate::time::{SimSpan, SimTime};

#[cfg(any(test, feature = "legacy-oracle"))]
pub mod legacy;

/// Number of wheel levels. Level 10 spans bits 60..64, so the wheel
/// covers the entire `u64` nanosecond timeline (584 years of simulated
/// time) without overflow.
pub const LEVELS: usize = 11;

/// Buckets per level (one 6-bit digit of the fire time).
pub const SLOTS: usize = 64;

/// Bits per level digit.
const LEVEL_BITS: u32 = 6;

/// Sentinel for "no entry" in the intrusive bucket lists.
const NIL: u32 = u32::MAX;

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

    /// The slab slot this token occupies. Slots are dense and recycled
    /// after their event fires, so at most [`Calendar::pending`] + the
    /// in-flight tombstone backlog distinct values exist at once —
    /// callers can use the slot as a small dense index for per-event
    /// side tables.
    pub fn slot(self) -> u32 {
        self.0 as u32
    }

    pub(crate) fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }

    pub(crate) fn pack(generation: u32, slot: u32) -> Token {
        Token((u64::from(generation) << 32) | u64::from(slot))
    }

    #[cfg(test)]
    fn from_raw(raw: u64) -> Token {
        Token(raw)
    }
}

/// One slab entry: the event payload plus the intrusive list link.
/// `generation` advances each time the slot is recycled, invalidating any
/// stale [`Token`] still pointing at it.
#[derive(Debug, Clone, Copy)]
struct Ent {
    /// Absolute fire time in nanoseconds.
    time: u64,
    /// Global schedule sequence number (FIFO tie-break witness).
    seq: u64,
    /// Next entry in the same bucket, or [`NIL`].
    next: u32,
    generation: u32,
    live: bool,
}

/// An intrusive FIFO list of slab entries (one wheel bucket).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
    };
}

/// The wheel level an event `diff = time XOR now` nanoseconds "away"
/// belongs to: the level containing the highest differing bit.
#[inline]
fn level_of(diff: u64) -> usize {
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
    }
}

/// The bucket index of absolute time `t` at `level`.
#[inline]
fn slot_of(t: u64, level: usize) -> usize {
    ((t >> (LEVEL_BITS as usize * level)) & (SLOTS as u64 - 1)) as usize
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
#[derive(Debug)]
pub struct Calendar {
    now: SimTime,
    next_seq: u64,
    ents: Vec<Ent>,
    free: Vec<u32>,
    buckets: [[Bucket; SLOTS]; LEVELS],
    /// One occupancy bit per bucket; `trailing_zeros` finds the next
    /// non-empty slot without scanning.
    occ: [u64; LEVELS],
    scheduled_total: u64,
    fired_total: u64,
    cancelled_total: u64,
}

impl Default for Calendar {
    fn default() -> Self {
        Calendar {
            now: SimTime::ZERO,
            next_seq: 0,
            ents: Vec::new(),
            free: Vec::new(),
            buckets: [[Bucket::EMPTY; SLOTS]; LEVELS],
            occ: [0; LEVELS],
            scheduled_total: 0,
            fired_total: 0,
            cancelled_total: 0,
        }
    }
}

impl Calendar {
    /// Creates an empty calendar with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets the calendar to its just-constructed state — clock at
    /// [`SimTime::ZERO`], no pending events, zeroed counters, sequence
    /// and generation numbering restarted — while keeping the slab and
    /// free-list heap capacity, so a reused calendar schedules its next
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
        self.ents.clear();
        self.free.clear();
        self.buckets = [[Bucket::EMPTY; SLOTS]; LEVELS];
        self.occ = [0; LEVELS];
        self.scheduled_total = 0;
        self.fired_total = 0;
        self.cancelled_total = 0;
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        (self.scheduled_total - self.fired_total - self.cancelled_total) as usize
    }

    /// Whether no live events remain.
    pub fn is_idle(&self) -> bool {
        self.pending() == 0
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
    pub fn schedule_after(&mut self, delay: SimSpan) -> Token {
        self.schedule_at(self.now + delay)
    }

    /// Schedules an event at an absolute instant.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`Calendar::now`]); scheduling
    /// into the past would violate causality.
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
                let e = &mut self.ents[slot as usize];
                e.time = at.as_ns();
                e.seq = seq;
                e.live = true;
                e.next = NIL;
                slot
            }
            None => {
                let slot = self.ents.len() as u32;
                self.ents.push(Ent {
                    time: at.as_ns(),
                    seq,
                    next: NIL,
                    generation: 0,
                    live: true,
                });
                slot
            }
        };
        self.place(slot, at.as_ns());
        self.scheduled_total += 1;
        Token::pack(self.ents[slot as usize].generation, slot)
    }

    /// Appends entry `idx` (fire time `t`) to the bucket it belongs to,
    /// relative to the current clock. Placement relative to `now` can
    /// never target the slot containing `now` at levels ≥ 1, which is
    /// what keeps current slots cascaded-empty between clock advances.
    #[inline]
    fn place(&mut self, idx: u32, t: u64) {
        let lvl = level_of(t ^ self.now.as_ns());
        let s = slot_of(t, lvl);
        self.push_bucket(lvl, s, idx);
    }

    /// FIFO-appends entry `idx` to bucket (`lvl`, `s`).
    #[inline]
    fn push_bucket(&mut self, lvl: usize, s: usize, idx: u32) {
        let b = &mut self.buckets[lvl][s];
        if b.tail == NIL {
            b.head = idx;
        } else {
            self.ents[b.tail as usize].next = idx;
        }
        b.tail = idx;
        self.ents[idx as usize].next = NIL;
        self.occ[lvl] |= 1u64 << s;
    }

    /// Pops the head entry of bucket (`lvl`, `s`), clearing the occupancy
    /// bit when the bucket empties. Returns [`NIL`]-free entry index.
    #[inline]
    fn take_head(&mut self, lvl: usize, s: usize) -> u32 {
        let b = &mut self.buckets[lvl][s];
        let idx = b.head;
        debug_assert_ne!(idx, NIL, "take_head on empty bucket");
        let next = self.ents[idx as usize].next;
        b.head = next;
        if next == NIL {
            b.tail = NIL;
            self.occ[lvl] &= !(1u64 << s);
        }
        idx
    }

    /// Cancels a pending event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. O(1): the wheel entry stays behind as
    /// a tombstone and is reclaimed when its bucket is drained or cascaded.
    pub fn cancel(&mut self, token: Token) -> bool {
        match self.ents.get_mut(token.slot() as usize) {
            Some(e) if e.live && e.generation == token.generation() => {
                e.live = false;
                self.cancelled_total += 1;
                true
            }
            _ => false,
        }
    }

    /// Recycles a slab slot whose wheel entry just left its bucket: the
    /// generation bump invalidates every outstanding token for it, and
    /// only now — with no bucket referencing it — may the slot be handed
    /// out again.
    fn retire(&mut self, slot: u32) -> (u32, bool) {
        let e = &mut self.ents[slot as usize];
        let generation = e.generation;
        let was_live = e.live;
        e.live = false;
        e.generation = e.generation.wrapping_add(1);
        self.free.push(slot);
        (generation, was_live)
    }

    /// Advances the clock to `to`, cascading the newly entered slot at
    /// every level whose digit changed: live entries re-place relative to
    /// the new `now` (landing at strictly lower levels), tombstones are
    /// retired on the spot.
    ///
    /// Correctness relies on `to` never being beyond the earliest live
    /// event — callers (`next`, `advance_to`) guarantee it.
    fn advance_clock(&mut self, to: u64) {
        let from = self.now.as_ns();
        debug_assert!(to >= from, "clock may only move forward");
        self.now = SimTime::from_ns(to);
        if to == from {
            return;
        }
        let top = level_of(from ^ to);
        for lvl in (1..=top).rev() {
            let s = slot_of(to, lvl);
            if self.occ[lvl] & (1u64 << s) == 0 {
                continue;
            }
            while self.buckets[lvl][s].head != NIL {
                let idx = self.take_head(lvl, s);
                let e = self.ents[idx as usize];
                if e.live {
                    debug_assert!(e.time >= to, "cascade found a live event in the past");
                    self.place(idx, e.time);
                } else {
                    self.retire(idx);
                }
            }
        }
    }

    /// Finds the first candidate bucket holding the earliest event: the
    /// lowest occupied level-0 slot at or after `now`'s digit, else the
    /// lowest occupied slot (at or after the current digit) of the lowest
    /// such level. Returns `(level, slot)`.
    #[inline]
    fn first_due(&self) -> Option<(usize, usize)> {
        let now = self.now.as_ns();
        for lvl in 0..LEVELS {
            let idx = slot_of(now, lvl);
            let masked = self.occ[lvl] & (u64::MAX << idx);
            if masked != 0 {
                return Some((lvl, masked.trailing_zeros() as usize));
            }
        }
        None
    }

    /// Absolute start of the range bucket (`lvl`, `s`) covers in the
    /// current rotation: `now` with the level digit replaced by `s` and
    /// all lower digits cleared.
    #[inline]
    fn bucket_start(&self, lvl: usize, s: usize) -> u64 {
        let shift = LEVEL_BITS as usize * lvl;
        let above = shift + LEVEL_BITS as usize;
        let high = if above >= 64 {
            0
        } else {
            self.now.as_ns() & !((1u64 << above) - 1)
        };
        high | ((s as u64) << shift)
    }

    /// Whether any entry in bucket (`lvl`, `s`) is still live.
    fn bucket_has_live(&self, lvl: usize, s: usize) -> bool {
        let mut idx = self.buckets[lvl][s].head;
        while idx != NIL {
            let e = &self.ents[idx as usize];
            if e.live {
                return true;
            }
            idx = e.next;
        }
        false
    }

    /// Drains a bucket known to hold only tombstones, retiring them.
    fn drain_dead(&mut self, lvl: usize, s: usize) {
        while self.buckets[lvl][s].head != NIL {
            let idx = self.take_head(lvl, s);
            debug_assert!(!self.ents[idx as usize].live);
            self.retire(idx);
        }
    }

    /// Pops the next live event, advancing the clock to its fire time.
    ///
    /// Returns `None` when the calendar is empty. Cancelled events are
    /// silently skipped (and their slab slots recycled).
    #[expect(
        clippy::should_implement_trait,
        reason = "`next` advances the simulation clock; the calendar is deliberately not an Iterator"
    )]
    pub fn next(&mut self) -> Option<(SimTime, Token)> {
        loop {
            let (lvl, s) = self.first_due()?;
            if lvl == 0 {
                // Level-0 buckets span one nanosecond: every live entry in
                // them shares one fire time, and the list is live-FIFO by
                // the cascade invariant — the head is the next event.
                let idx = self.take_head(0, s);
                let e = self.ents[idx as usize];
                let (generation, was_live) = self.retire(idx);
                if !was_live {
                    continue;
                }
                debug_assert!(e.time >= self.now.as_ns(), "event fired in the past");
                self.advance_clock(e.time);
                self.fired_total += 1;
                return Some((SimTime::from_ns(e.time), Token::pack(generation, idx)));
            }
            // A higher-level bucket: enter it only if it still holds a
            // live event (committing the clock to its range start, which
            // cascades it); otherwise clean out the tombstones in place.
            if self.bucket_has_live(lvl, s) {
                let start = self.bucket_start(lvl, s).max(self.now.as_ns());
                self.advance_clock(start);
            } else {
                self.drain_dead(lvl, s);
            }
        }
    }

    /// The fire time of the next live event without popping it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            let (lvl, s) = self.first_due()?;
            let mut min: Option<u64> = None;
            let mut idx = self.buckets[lvl][s].head;
            while idx != NIL {
                let e = &self.ents[idx as usize];
                if e.live && min.is_none_or(|m| e.time < m) {
                    min = Some(e.time);
                }
                idx = e.next;
            }
            match min {
                // Candidate buckets are visited in range order, so the
                // first bucket with a live entry holds the minimum.
                Some(t) => return Some(SimTime::from_ns(t)),
                None => self.drain_dead(lvl, s),
            }
        }
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
        self.advance_clock(at.as_ns());
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
        // The tombstone still sits in its bucket, so a new event must get
        // a different slot — otherwise the stale entry would alias it.
        let b = cal.schedule_after(SimSpan::from_ns(60));
        assert_ne!(a.slot(), b.slot());
        let (_, tok) = cal.next().unwrap();
        assert_eq!(tok, b);
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
        assert!(cal.is_idle());
        let a = cal.schedule_after(SimSpan::from_ns(1));
        let _b = cal.schedule_after(SimSpan::from_ns(2));
        assert_eq!(cal.pending(), 2);
        cal.cancel(a);
        assert_eq!(cal.pending(), 1);
        cal.next();
        assert!(cal.is_idle());
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
    fn far_future_events_cross_cascade_boundaries() {
        // One event per wheel level, so every cascade path runs.
        let mut cal = Calendar::new();
        let delays: Vec<u64> = (0..LEVELS)
            .map(|l| 64u64.saturating_pow(l as u32).saturating_add(l as u64))
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
        // advance_to can move the clock into the wheel slot that holds a
        // pending event without cascading it first; the next schedule at
        // a *nearer* time must still fire first.
        let mut cal = Calendar::new();
        let far = cal.schedule_at(SimTime::from_ns(100)); // level 1 at now=0
        cal.advance_to(SimTime::from_ns(90)); // enters far's level-1 slot
        let near = cal.schedule_at(SimTime::from_ns(95));
        assert_eq!(cal.peek_time(), Some(SimTime::from_ns(95)));
        assert_eq!(cal.next(), Some((SimTime::from_ns(95), near)));
        assert_eq!(cal.next(), Some((SimTime::from_ns(100), far)));
    }
}
