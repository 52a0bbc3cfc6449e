//! The retired binary-heap calendar, kept as a **differential oracle**.
//!
//! This is the PR-5 implementation (`BinaryHeap<Reverse<(time, seq,
//! slot)>>` over a generation-checked tombstone slab) frozen in place so
//! the timing-wheel [`Calendar`](super::Calendar) can be checked against
//! it: `tests/calendar_differential.rs` replays seeded scripts of mixed
//! schedule/cancel/pop/advance operations through both and asserts
//! identical pop sequences, clocks, and counters. The heap's `(time,
//! seq)` ordering is trivially correct by construction, which is exactly
//! what makes it a trustworthy oracle for the wheel's cascade logic.
//!
//! Compiled only under the `legacy-oracle` feature (on by default so the
//! differential suite runs in a plain `cargo test`); production binaries
//! can drop it with `--no-default-features`.
//!
//! Note: [`Token`] *values* are not part of the oracle contract. Both
//! implementations recycle slab slots, but they reclaim tombstones at
//! different moments, so the same logical event can receive different
//! slot numbers in each. The differential harness therefore compares
//! caller-side event identities, never raw tokens.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::Token;
use crate::time::{SimSpan, SimTime};

/// One slab entry. `generation` advances each time the slot is recycled,
/// invalidating any stale [`Token`] still pointing at it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    generation: u32,
    live: bool,
}

/// The retired binary-heap calendar (see the module docs). Public API is
/// identical to [`Calendar`](super::Calendar).
#[derive(Debug, Default)]
pub struct LegacyCalendar {
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

impl LegacyCalendar {
    /// Creates an empty calendar with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::default()
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

    /// Total events that fired via [`LegacyCalendar::next`].
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
    /// Panics if `at` is in the past (before [`LegacyCalendar::now`]).
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
