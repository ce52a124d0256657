//! The timer store of a shard: cancellable timers keyed by `(machine,
//! token)` over the simulator's own event queue.
//!
//! [`TimerWheel`] is a thin key layer over [`presence_des::EventQueue`]
//! (O(1) cancel, no tombstones), which orders timers by `(deadline, seq)`.
//! A key → `(seq, deadline)` map gives cancel by key; re-arming an armed
//! key uses [`EventQueue::reschedule`]; `pop_due` pops while the earliest
//! deadline is at or before `now`. Every arming takes the next sequence
//! number, so timers with equal deadlines fire in the order they were
//! (last) armed — the order the DES oracle fires them in, which the
//! conformance suite relies on.

use presence_des::{splitmix64, EventQueue, SimTime};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Hasher for the key map. Keys are a shard's own machine ids and timer
/// tokens, never chosen by a peer, so a keyed SipHash buys nothing here
/// and would cost more than the queue operation it guards.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(u64::from(b)));
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        splitmix64(self.0)
    }
}

/// A map from timer keys to deadlines with an efficient
/// earliest-deadline-first drain.
#[derive(Debug)]
pub struct TimerWheel<K> {
    /// Armed timers in firing order; each carries its key.
    queue: EventQueue<K>,
    /// Armed key → its queue sequence number and deadline.
    armed: HashMap<K, (u64, SimTime), BuildHasherDefault<KeyHasher>>,
    /// The sequence number the next arming takes.
    next_seq: u64,
}

impl<K: Copy + Eq + Hash> Default for TimerWheel<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Eq + Hash> TimerWheel<K> {
    /// Creates an empty wheel.
    #[must_use]
    pub fn new() -> Self {
        Self {
            queue: EventQueue::new(),
            armed: HashMap::default(),
            next_seq: 0,
        }
    }

    /// Number of live timers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.armed.len()
    }

    /// Whether no timers are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }

    /// Arms (or re-arms) the timer under `key` to fire at `at`. Returns
    /// the previous deadline if the key was already armed.
    pub fn insert(&mut self, key: K, at: SimTime) -> Option<SimTime> {
        let seq = self.next_seq;
        self.next_seq += 1;
        match self.armed.insert(key, (seq, at)) {
            Some((prev_seq, prev_at)) => {
                self.queue.reschedule(prev_seq, at, seq);
                Some(prev_at)
            }
            None => {
                self.queue.push(at, seq, key);
                None
            }
        }
    }

    /// Disarms the timer under `key`. Returns its deadline if it was live.
    pub fn cancel(&mut self, key: K) -> Option<SimTime> {
        let (seq, at) = self.armed.remove(&key)?;
        self.queue.cancel(seq);
        Some(at)
    }

    /// The deadline armed under `key`, if live.
    #[must_use]
    pub fn deadline_of(&self, key: K) -> Option<SimTime> {
        self.armed.get(&key).map(|&(_, at)| at)
    }

    /// The earliest live deadline.
    #[must_use]
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        self.queue.peek().map(|k| k.time)
    }

    /// Removes and returns the earliest live timer if its deadline is at
    /// or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(K, SimTime)> {
        if self.queue.peek()?.time > now {
            return None;
        }
        let (event, key) = self.queue.pop()?;
        self.armed.remove(&key);
        Some((key, event.time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(1, t(30));
        w.insert(2, t(10));
        w.insert(3, t(20));
        assert_eq!(w.next_deadline(), Some(t(10)));
        assert_eq!(w.pop_due(t(25)), Some((2, t(10))));
        assert_eq!(w.pop_due(t(25)), Some((3, t(20))));
        assert_eq!(w.pop_due(t(25)), None, "deadline 30 not due at 25");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn cancel_is_lazy_but_authoritative() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(1, t(10));
        w.insert(2, t(20));
        assert_eq!(w.cancel(1), Some(t(10)));
        assert_eq!(w.cancel(1), None);
        assert_eq!(w.next_deadline(), Some(t(20)), "stale entry skipped");
        assert_eq!(w.pop_due(t(100)), Some((2, t(20))));
        assert!(w.is_empty());
        assert_eq!(w.pop_due(t(100)), None);
    }

    #[test]
    fn rearm_supersedes_even_at_same_deadline() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(1, t(10));
        // Cancel + re-arm at the SAME deadline: the cancelled arming
        // must not fire the key a second time.
        assert_eq!(w.cancel(1), Some(t(10)));
        w.insert(1, t(10));
        assert_eq!(w.pop_due(t(10)), Some((1, t(10))));
        assert_eq!(w.pop_due(t(10)), None, "stale duplicate fired");
        assert!(w.is_empty());
    }

    #[test]
    fn rearm_to_later_deadline() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        assert_eq!(w.insert(1, t(10)), None);
        assert_eq!(w.insert(1, t(50)), Some(t(10)));
        assert_eq!(w.pop_due(t(20)), None, "superseded deadline fired");
        assert_eq!(w.pop_due(t(50)), Some((1, t(50))));
    }

    #[test]
    fn equal_deadlines_fire_in_arming_order() {
        let mut w: TimerWheel<u32> = TimerWheel::new();
        w.insert(1, t(10));
        w.insert(2, t(10));
        w.insert(3, t(10));
        // Re-arming moves a key behind everything armed before it.
        w.insert(1, t(10));
        let order: Vec<u32> = std::iter::from_fn(|| w.pop_due(t(10)).map(|(k, _)| k)).collect();
        assert_eq!(order, [2, 3, 1]);
    }

    #[test]
    fn model_check_against_btreemap() {
        // Drive wheel and a reference BTreeMap through a deterministic
        // pseudo-random op sequence; drain order must match.
        use std::collections::BTreeMap;
        let mut w: TimerWheel<u32> = TimerWheel::new();
        let mut reference: BTreeMap<u32, SimTime> = BTreeMap::new();
        let mut x: u64 = 0x243f_6a88_85a3_08d3;
        for step in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (x >> 33) as u32 % 16;
            let op = (x >> 60) % 4;
            match op {
                0 | 1 => {
                    let at = t(step % 97);
                    assert_eq!(w.insert(key, at), reference.insert(key, at));
                }
                2 => assert_eq!(w.cancel(key), reference.remove(&key)),
                _ => {
                    assert_eq!(w.deadline_of(key), reference.get(&key).copied());
                    assert_eq!(
                        w.next_deadline(),
                        reference.values().min().copied(),
                        "min deadline diverged at step {step}"
                    );
                }
            }
            assert_eq!(w.len(), reference.len());
        }
        // Drain everything due; order must be deadline-sorted and the set
        // must equal the reference's.
        let mut drained = Vec::new();
        while let Some((k, at)) = w.pop_due(SimTime::MAX) {
            drained.push((at, k));
        }
        assert!(drained.windows(2).all(|p| p[0].0 <= p[1].0), "unsorted");
        let mut expect: Vec<(SimTime, u32)> =
            reference.into_iter().map(|(k, at)| (at, k)).collect();
        expect.sort();
        let mut got = drained.clone();
        got.sort();
        assert_eq!(got, expect);
    }
}
