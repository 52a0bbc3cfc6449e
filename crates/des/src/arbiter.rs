//! A shared-resource arbiter with priority grant order and a
//! contention-blame ledger.
//!
//! Multi-tenant serving needs to answer two questions about every shared
//! resource (accelerator queue slots, DRAM/AXI bandwidth tokens, driver
//! locks): *who gets it next*, and *who made whom wait*. The [`Arbiter`]
//! answers both as pure bookkeeping over the simulation clock — it holds
//! no callbacks and schedules no events, so the embedding simulator stays
//! in full control of the calendar (the same payload-free philosophy as
//! [`Calendar`](crate::Calendar)).
//!
//! Grant discipline: a fixed number of capacity slots; waiters queue in
//! priority order (highest first, FIFO within a band); a release grants
//! the head waiter immediately. Holders are never revoked — accelerator
//! jobs and bus bursts run to completion in this model. An optional
//! *reservation* ([`Arbiter::with_reservation`]) sets aside slots that
//! only requests at or above a priority floor may fill — the
//! memguard-/MPAM-style bandwidth guarantee that keeps latency-critical
//! pipelines from queueing behind long best-effort holds.
//!
//! Blame ledger: while any ticket waits, each wall-clock interval `dt`
//! between arbiter state changes charges every current holder an equal
//! `dt / holders` share of that victim's delay (holders are never empty
//! while anyone waits, so the shares always sum to `dt`). Waiting on
//! one's own tenant (a queue of requests behind the same app) is
//! *self-contention* and is kept out of the cross-tenant matrix. By
//! construction, for every victim:
//! `Σ_culprit blame + self_wait == total_wait`, which is the
//! conservation law `aitax-testkit` checks on every serve scenario.

use std::collections::{BTreeMap, VecDeque};

use crate::time::{SimSpan, SimTime};

/// Identifier of an active hold on the resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HoldId(u64);

/// Identifier of a queued acquisition waiting for a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

/// Outcome of [`Arbiter::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquired {
    /// A slot was free: the caller holds it now.
    Granted(HoldId),
    /// The resource is saturated: the caller waits in the priority queue
    /// and receives this ticket back from a later [`Arbiter::release`].
    Queued(Ticket),
}

/// One entry in the arbiter's event log (see [`Arbiter::events`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArbiterEvent {
    /// A slot was granted. `waited` is zero for immediate grants and the
    /// queueing delay for grants out of the wait queue. `queue_best` is
    /// the highest priority still waiting *after* this grant — an
    /// inversion-freedom checker asserts `priority >= queue_best`.
    Grant {
        /// Grant time.
        at: SimTime,
        /// Tenant receiving the slot.
        tenant: u32,
        /// Priority of the granted request.
        priority: i8,
        /// Time spent queued before this grant.
        waited: SimSpan,
        /// Holders active after this grant (≤ capacity always).
        holds: usize,
        /// Highest priority left waiting, if any.
        queue_best: Option<i8>,
    },
    /// A request found the resource saturated and joined the queue.
    Enqueue {
        /// Arrival time.
        at: SimTime,
        /// Waiting tenant.
        tenant: u32,
        /// Request priority.
        priority: i8,
    },
    /// A hold was released.
    Release {
        /// Release time.
        at: SimTime,
        /// Tenant that held the slot.
        tenant: u32,
        /// Holders active after the release.
        holds: usize,
    },
}

#[derive(Debug, Clone, Copy)]
struct Hold {
    id: HoldId,
    tenant: u32,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    ticket: Ticket,
    tenant: u32,
    priority: i8,
    enqueued: SimTime,
}

/// A capacity-slotted shared resource with priority grants and a blame
/// ledger. See the [module docs](self) for the model.
#[derive(Debug, Default)]
pub struct Arbiter {
    capacity: usize,
    /// Slots only requests with `priority >= reserve_floor` may fill.
    reserved: usize,
    reserve_floor: i8,
    holders: Vec<Hold>,
    queue: VecDeque<Waiter>,
    last_change: SimTime,
    next_id: u64,
    /// (victim, culprit) → waiting time charged to the culprit.
    blame: BTreeMap<(u32, u32), SimSpan>,
    /// victim → waiting time caused by the victim's own earlier requests.
    self_wait: BTreeMap<u32, SimSpan>,
    /// victim → total time spent in the wait queue.
    total_wait: BTreeMap<u32, SimSpan>,
    grants: u64,
    queued_total: u64,
    log: Option<Vec<ArbiterEvent>>,
}

impl Arbiter {
    /// An arbiter over `capacity` identical slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Arbiter {
        assert!(capacity > 0, "an arbiter needs at least one slot");
        Arbiter {
            capacity,
            ..Arbiter::default()
        }
    }

    /// An arbiter that reserves `reserved` of its `capacity` slots for
    /// requests with `priority >= floor`. Lower-priority requests see an
    /// effective capacity of `capacity - reserved`; reserved requests may
    /// fill any slot. This is how serving guarantees an interactive
    /// pipeline never queues behind two long best-effort bus holds.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `reserved >= capacity` (at least
    /// one slot must stay open to every priority, or low-priority work
    /// could never run at all).
    pub fn with_reservation(capacity: usize, reserved: usize, floor: i8) -> Arbiter {
        assert!(capacity > 0, "an arbiter needs at least one slot");
        assert!(
            reserved < capacity,
            "reservation must leave at least one general slot"
        );
        Arbiter {
            capacity,
            reserved,
            reserve_floor: floor,
            ..Arbiter::default()
        }
    }

    /// The slot count visible to a request at `priority`.
    fn cap_for(&self, priority: i8) -> usize {
        if priority >= self.reserve_floor {
            self.capacity
        } else {
            self.capacity - self.reserved
        }
    }

    /// Enables or disables the event log consumed by the testkit
    /// invariants. Off by default: serving runs are long and the ledger
    /// alone answers attribution.
    pub fn set_logging(&mut self, on: bool) {
        self.log = if on { Some(Vec::new()) } else { None };
    }

    /// Requests a slot at time `now` for `tenant` at `priority`.
    ///
    /// Time must be non-decreasing across all arbiter calls.
    pub fn acquire(&mut self, now: SimTime, tenant: u32, priority: i8) -> Acquired {
        self.settle(now);
        // Immediate grants never bypass an equal-or-higher waiter: a
        // queued waiter that this grant condition would admit would have
        // been granted at the previous release already (the queue only
        // holds requests blocked at the current holder count), and the
        // reservation floor is the only thing that makes caps differ.
        if self.holders.len() < self.cap_for(priority) {
            let id = HoldId(self.fresh());
            self.holders.push(Hold { id, tenant });
            self.grants += 1;
            self.log_grant(now, tenant, priority, SimSpan::ZERO);
            return Acquired::Granted(id);
        }
        let ticket = Ticket(self.fresh());
        let waiter = Waiter {
            ticket,
            tenant,
            priority,
            enqueued: now,
        };
        // Ahead of the first strictly-lower-priority waiter; FIFO within
        // a band (the same discipline as the kernel run queues).
        let pos = self
            .queue
            .iter()
            .position(|w| w.priority < priority)
            .unwrap_or(self.queue.len());
        self.queue.insert(pos, waiter);
        self.queued_total += 1;
        if let Some(log) = self.log.as_mut() {
            log.push(ArbiterEvent::Enqueue {
                at: now,
                tenant,
                priority,
            });
        }
        Acquired::Queued(ticket)
    }

    /// Releases a hold at time `now`. If a waiter was queued, its slot is
    /// granted immediately and `(ticket, hold)` is returned so the caller
    /// can resume whoever was parked on that ticket.
    ///
    /// # Panics
    ///
    /// Panics if `hold` is not currently held.
    pub fn release(&mut self, now: SimTime, hold: HoldId) -> Option<(Ticket, HoldId)> {
        self.settle(now);
        #[expect(
            clippy::expect_used,
            reason = "double-release is a simulator bug, not a data condition"
        )]
        let pos = self
            .holders
            .iter()
            .position(|h| h.id == hold)
            .expect("releasing a hold the arbiter does not know");
        let released = self.holders.swap_remove(pos);
        if let Some(log) = self.log.as_mut() {
            log.push(ArbiterEvent::Release {
                at: now,
                tenant: released.tenant,
                holds: self.holders.len(),
            });
        }
        // The queue is priority-ordered and `cap_for` is monotone in
        // priority, so if the head cannot be granted nobody behind it can.
        let grantable = self
            .queue
            .front()
            .is_some_and(|w| self.holders.len() < self.cap_for(w.priority));
        if !grantable {
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "grantable implies the queue is non-empty"
        )]
        let w = self.queue.pop_front().expect("checked non-empty");
        let id = HoldId(self.fresh());
        self.holders.push(Hold {
            id,
            tenant: w.tenant,
        });
        self.grants += 1;
        self.log_grant(now, w.tenant, w.priority, now.since(w.enqueued));
        Some((w.ticket, id))
    }

    /// Charges the interval since the last state change to the current
    /// holders, one `dt / holders` share per waiting victim. Holders are
    /// never empty while the queue is non-empty (an empty arbiter grants
    /// every priority at least one slot), so the shares sum to `dt`
    /// exactly — conservation even when a reservation idles a slot.
    fn settle(&mut self, now: SimTime) {
        let dt = now.since(self.last_change);
        self.last_change = now;
        if dt == SimSpan::ZERO || self.queue.is_empty() || self.holders.is_empty() {
            return;
        }
        let share = dt / self.holders.len() as f64;
        for w in &self.queue {
            *self.total_wait.entry(w.tenant).or_default() += dt;
            for h in &self.holders {
                if h.tenant == w.tenant {
                    *self.self_wait.entry(w.tenant).or_default() += share;
                } else {
                    *self.blame.entry((w.tenant, h.tenant)).or_default() += share;
                }
            }
        }
    }

    fn fresh(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn log_grant(&mut self, at: SimTime, tenant: u32, priority: i8, waited: SimSpan) {
        if let Some(log) = self.log.as_mut() {
            let queue_best = self.queue.front().map(|w| w.priority);
            let holds = self.holders.len();
            log.push(ArbiterEvent::Grant {
                at,
                tenant,
                priority,
                waited,
                holds,
                queue_best,
            });
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently held slots.
    pub fn in_use(&self) -> usize {
        self.holders.len()
    }

    /// Currently queued waiters.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Total grants issued (immediate + out of the queue).
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Total requests that had to queue.
    pub fn queued_total(&self) -> u64 {
        self.queued_total
    }

    /// The cross-tenant blame ledger: `(victim, culprit) → waiting time
    /// the culprit's holds imposed on the victim`.
    pub fn blame(&self) -> &BTreeMap<(u32, u32), SimSpan> {
        &self.blame
    }

    /// Waiting time each tenant spent queued behind *its own* holds.
    pub fn self_wait(&self) -> &BTreeMap<u32, SimSpan> {
        &self.self_wait
    }

    /// Total queueing delay per victim tenant.
    pub fn total_wait(&self) -> &BTreeMap<u32, SimSpan> {
        &self.total_wait
    }

    /// The event log, when enabled with [`Arbiter::set_logging`].
    pub fn events(&self) -> &[ArbiterEvent] {
        self.log.as_deref().unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: f64) -> SimTime {
        SimTime::ZERO + SimSpan::from_ms(ms)
    }

    #[test]
    fn grants_up_to_capacity_then_queues() {
        let mut a = Arbiter::new(2);
        let g0 = a.acquire(t(0.0), 0, 0);
        let g1 = a.acquire(t(0.0), 1, 0);
        assert!(matches!(g0, Acquired::Granted(_)));
        assert!(matches!(g1, Acquired::Granted(_)));
        let q = a.acquire(t(0.0), 2, 0);
        assert!(matches!(q, Acquired::Queued(_)));
        assert_eq!(a.in_use(), 2);
        assert_eq!(a.queue_len(), 1);
    }

    #[test]
    fn release_hands_slot_to_head_waiter() {
        let mut a = Arbiter::new(1);
        let Acquired::Granted(h) = a.acquire(t(0.0), 0, 0) else {
            panic!("first acquire must grant");
        };
        let Acquired::Queued(ticket) = a.acquire(t(1.0), 1, 0) else {
            panic!("second acquire must queue");
        };
        let granted = a.release(t(5.0), h).expect("waiter gets the slot");
        assert_eq!(granted.0, ticket);
        assert_eq!(a.in_use(), 1);
        assert_eq!(a.queue_len(), 0);
    }

    #[test]
    fn priority_jumps_the_wait_queue_fifo_within_band() {
        let mut a = Arbiter::new(1);
        let Acquired::Granted(h) = a.acquire(t(0.0), 0, 0) else {
            panic!();
        };
        let Acquired::Queued(lo) = a.acquire(t(0.1), 1, 0) else {
            panic!();
        };
        let Acquired::Queued(hi_a) = a.acquire(t(0.2), 2, 2) else {
            panic!();
        };
        let Acquired::Queued(hi_b) = a.acquire(t(0.3), 3, 2) else {
            panic!();
        };
        let (first, h2) = a.release(t(1.0), h).unwrap();
        assert_eq!(first, hi_a, "highest priority first");
        let (second, h3) = a.release(t(2.0), h2).unwrap();
        assert_eq!(second, hi_b, "FIFO within the priority band");
        let (third, h4) = a.release(t(3.0), h3).unwrap();
        assert_eq!(third, lo);
        assert!(a.release(t(4.0), h4).is_none());
    }

    #[test]
    fn blame_ledger_conserves_waiting_time() {
        let mut a = Arbiter::new(1);
        // Tenant 0 holds 10ms; tenants 1 and 0 (again) wait behind it.
        let Acquired::Granted(h) = a.acquire(t(0.0), 0, 0) else {
            panic!();
        };
        let _ = a.acquire(t(0.0), 1, 0);
        let _ = a.acquire(t(0.0), 0, 0);
        let (_, h2) = a.release(t(10.0), h).unwrap();
        let _ = a.release(t(12.0), h2);
        // Victim 1 waited 12ms total: 10 blamed on tenant 0's first hold,
        // 2 on whichever tenant held during (10, 12].
        for (&victim, &total) in a.total_wait() {
            let cross: SimSpan = a
                .blame()
                .iter()
                .filter(|((v, _), _)| *v == victim)
                .map(|(_, &s)| s)
                .sum();
            let own = a.self_wait().get(&victim).copied().unwrap_or(SimSpan::ZERO);
            let sum = cross + own;
            assert!(
                (sum.as_secs() - total.as_secs()).abs() < 1e-12,
                "victim {victim}: blamed {sum} != waited {total}"
            );
        }
        // Tenant 0 waiting behind tenant 0 is self-contention.
        assert!(a.self_wait().get(&0).copied().unwrap_or(SimSpan::ZERO) > SimSpan::ZERO);
        assert!(a.blame().contains_key(&(1, 0)));
    }

    #[test]
    fn event_log_supports_invariant_replay() {
        let mut a = Arbiter::new(1);
        a.set_logging(true);
        let Acquired::Granted(h) = a.acquire(t(0.0), 0, 0) else {
            panic!();
        };
        let _ = a.acquire(t(0.5), 1, 1);
        let (_, h2) = a.release(t(2.0), h).unwrap();
        let _ = a.release(t(3.0), h2);
        let events = a.events();
        assert_eq!(events.len(), 5, "{events:?}");
        for ev in events {
            match *ev {
                ArbiterEvent::Grant {
                    priority,
                    holds,
                    queue_best,
                    ..
                } => {
                    assert!(holds <= a.capacity());
                    if let Some(best) = queue_best {
                        assert!(priority >= best, "priority inversion in {ev:?}");
                    }
                }
                ArbiterEvent::Release { holds, .. } => assert!(holds < a.capacity()),
                ArbiterEvent::Enqueue { .. } => {}
            }
        }
    }

    #[test]
    fn reservation_protects_the_priority_floor() {
        // 2 slots, 1 reserved for priority >= 2: low-priority holders can
        // saturate only the general slot.
        let mut a = Arbiter::with_reservation(2, 1, 2);
        let Acquired::Granted(h_lo) = a.acquire(t(0.0), 0, 0) else {
            panic!("first low acquire fills the general slot");
        };
        let Acquired::Queued(lo_ticket) = a.acquire(t(1.0), 1, 1) else {
            panic!("second low acquire must queue despite a free slot");
        };
        assert_eq!(a.in_use(), 1);
        // The interactive request takes the reserved slot immediately.
        let Acquired::Granted(h_hi) = a.acquire(t(2.0), 2, 2) else {
            panic!("reserved request must never queue behind low holds");
        };
        // Releasing the reserved hold does NOT admit the low waiter — the
        // general slot is still occupied.
        assert!(a.release(t(3.0), h_hi).is_none());
        assert_eq!(a.queue_len(), 1);
        // Releasing the general slot does.
        let (ticket, _) = a.release(t(5.0), h_lo).expect("low waiter admitted");
        assert_eq!(ticket, lo_ticket);
        // Conservation still holds with the reservation idling a slot.
        for (&victim, &total) in a.total_wait() {
            let cross: SimSpan = a
                .blame()
                .iter()
                .filter(|((v, _), _)| *v == victim)
                .map(|(_, &s)| s)
                .sum();
            let own = a.self_wait().get(&victim).copied().unwrap_or(SimSpan::ZERO);
            assert!(((cross + own).as_secs() - total.as_secs()).abs() < 1e-12);
        }
        // The waiter's delay splits between the low holder (entire span)
        // and the reserved holder (only while it held).
        assert!(a.blame().contains_key(&(1, 0)));
        assert!(a.blame().contains_key(&(1, 2)));
    }

    #[test]
    #[should_panic(expected = "at least one general slot")]
    fn full_reservation_rejected() {
        let _ = Arbiter::with_reservation(2, 2, 2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        let _ = Arbiter::new(0);
    }
}
