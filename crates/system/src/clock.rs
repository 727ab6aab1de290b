//! The discrete-event system clock: one merged, deterministic event
//! stream of mission traffic, scrub reads and checkpoint boundaries.
//!
//! Every system cycle carries exactly one memory operation. A
//! [`ScrubSchedule`] claims every `period`-th cycle for a background scrub
//! read (so scrubbing *competes with* — never rides alongside — workload
//! bandwidth: the overhead is exactly `1/period`); all other cycles drain
//! the mission traffic stream through the address interleaver. A
//! [`CheckpointSchedule`] marks every `interval`-th cycle boundary as a
//! recovery point; it consumes no bandwidth but anchors the lost-work
//! accounting of the campaign engine (Aupy-style: work since the last
//! checkpoint *preceding error onset* is lost when a silent error is
//! finally detected).
//!
//! The clock is a pure function of `(schedules, traffic stream)`: two
//! clocks over equal-seeded streams replay the identical event sequence,
//! which is what lets the system campaign stay bit-identical at any
//! thread count.

use crate::interleave::Interleaver;
use scm_memory::sim::TrialScore;
use scm_memory::workload::{Op, OpSource};

/// Background scrub schedule: one scrub read every `period` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubSchedule {
    /// Cycles between scrub reads (`0` = scrubbing off).
    pub period: u64,
}

impl ScrubSchedule {
    /// No scrubbing.
    pub const OFF: ScrubSchedule = ScrubSchedule { period: 0 };

    /// Is the given cycle a scrub slot? Slots sit at the *end* of each
    /// period (`period - 1`, `2·period - 1`, …) so a 1-cycle horizon never
    /// consists solely of scrub traffic.
    pub fn is_scrub_slot(&self, cycle: u64) -> bool {
        self.period > 0 && (cycle + 1).is_multiple_of(self.period)
    }

    /// Scrub slots within a horizon of `cycles` system cycles.
    pub fn slots_within(&self, cycles: u64) -> u64 {
        cycles.checked_div(self.period).unwrap_or(0)
    }

    /// Fraction of system bandwidth spent scrubbing (`0.0` when off).
    pub fn bandwidth_overhead(&self) -> f64 {
        if self.period == 0 {
            0.0
        } else {
            1.0 / self.period as f64
        }
    }
}

/// Checkpoint schedule: a recovery point every `interval` cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointSchedule {
    /// Cycles between checkpoints (`0` = only the initial state, cycle 0,
    /// is ever recoverable).
    pub interval: u64,
}

impl CheckpointSchedule {
    /// No periodic checkpoints.
    pub const OFF: CheckpointSchedule = CheckpointSchedule { interval: 0 };

    /// The latest checkpointed cycle at or before `cycle` — the rollback
    /// target once an error whose onset was at `cycle` is detected.
    pub fn last_checkpoint_at_or_before(&self, cycle: u64) -> u64 {
        if self.interval == 0 {
            0
        } else {
            cycle - cycle % self.interval
        }
    }

    /// Aupy-style lost work of one scored trial: the cycles from the last
    /// checkpoint at or before the error onset through detection, or the
    /// whole `horizon` when nothing was detected (censored).
    pub(crate) fn lost_work(&self, score: &TrialScore, horizon: u64) -> u64 {
        score.detection.map_or(horizon, |d| {
            d.cycle - self.last_checkpoint_at_or_before(d.onset) + 1
        })
    }
}

/// One system cycle's event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemEvent {
    /// A mission operation routed to a bank (bank-local address).
    Traffic {
        /// Target bank.
        bank: usize,
        /// The routed operation, address already bank-local.
        op: Op,
    },
    /// A background scrub read issued to a bank (bank-local address).
    Scrub {
        /// Target bank.
        bank: usize,
        /// The scrub read, address bank-local.
        op: Op,
    },
}

impl SystemEvent {
    /// The targeted bank and operation, whatever the event class.
    pub fn target(&self) -> (usize, Op) {
        match *self {
            SystemEvent::Traffic { bank, op } | SystemEvent::Scrub { bank, op } => (bank, op),
        }
    }

    /// Is this a scrub event?
    pub fn is_scrub(&self) -> bool {
        matches!(self, SystemEvent::Scrub { .. })
    }
}

/// The merged event stream: traffic + scrubs, one event per cycle.
///
/// Scrub slots are dealt to banks by **word-weighted round-robin**
/// (smooth/stride scheduling): every slot, each bank earns credit equal
/// to its word count, the richest bank (lowest index on ties) takes the
/// slot and pays back the fleet total. Bank `b` therefore receives
/// exactly `W_b` of every `ΣW` consecutive slots, evenly interleaved,
/// and — since each bank sweeps its own rows sequentially — *every*
/// bank completes a full sweep of its address space in the same
/// `ΣW · period` cycles. That uniform per-bank sweep period is the
/// structure the `scm_memory::scrub` hard bound assumes; equal slot
/// shares (the old `k mod N` deal) stretched a large bank's sweep
/// proportionally to its size on heterogeneous configs. On homogeneous
/// banks the weighted deal degenerates to the exact `k mod N` order.
#[derive(Debug)]
pub struct SystemClock<S> {
    interleaver: Interleaver,
    scrub: ScrubSchedule,
    traffic: S,
    cycle: u64,
    scrub_credit: Vec<i64>,
    scrub_next: Vec<u64>,
    bank_words: Vec<u64>,
    total_words: i64,
}

impl<S: OpSource> SystemClock<S> {
    /// A clock over the given routing table and schedules, draining
    /// `traffic` (a stream of *global* addresses) on non-scrub cycles.
    pub fn new(interleaver: Interleaver, scrub: ScrubSchedule, traffic: S) -> Self {
        let bank_words = interleaver.bank_words().to_vec();
        let total_words = bank_words.iter().map(|&w| w as i64).sum();
        SystemClock {
            scrub_next: vec![0; bank_words.len()],
            scrub_credit: vec![0; bank_words.len()],
            interleaver,
            scrub,
            traffic,
            cycle: 0,
            bank_words,
            total_words,
        }
    }

    /// Cycles elapsed (= events emitted).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Emit the next cycle's event.
    pub fn next_event(&mut self) -> SystemEvent {
        let event = if self.scrub.is_scrub_slot(self.cycle) {
            // Smooth weighted round-robin: earn word-count credit, pick
            // the richest bank (ties → lowest index), pay back the total.
            for (credit, &words) in self.scrub_credit.iter_mut().zip(&self.bank_words) {
                *credit += words as i64;
            }
            let bank = (0..self.scrub_credit.len())
                .max_by_key(|&b| (self.scrub_credit[b], std::cmp::Reverse(b)))
                .expect("interleaver has at least one bank");
            self.scrub_credit[bank] -= self.total_words;
            let addr = self.scrub_next[bank];
            self.scrub_next[bank] = (addr + 1) % self.bank_words[bank];
            SystemEvent::Scrub {
                bank,
                op: Op::Read(addr),
            }
        } else {
            let op = self.traffic.next_op();
            let (bank, local) = self.interleaver.route(op.addr());
            let op = match op {
                Op::Read(_) => Op::Read(local),
                Op::Write(_, v) => Op::Write(local, v),
            };
            SystemEvent::Traffic { bank, op }
        };
        self.cycle += 1;
        event
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::Interleaving;
    use scm_memory::workload::Workload;

    fn clock(period: u64) -> SystemClock<Workload> {
        let il = Interleaver::new(Interleaving::LowOrder, &[8, 4]);
        let traffic = Workload::uniform(12, 8, 7);
        SystemClock::new(il, ScrubSchedule { period }, traffic)
    }

    #[test]
    fn scrub_slots_fire_every_period() {
        let mut c = clock(4);
        let scrubs: Vec<bool> = (0..16).map(|_| c.next_event().is_scrub()).collect();
        let expected: Vec<bool> = (0..16u64).map(|k| (k + 1) % 4 == 0).collect();
        assert_eq!(scrubs, expected);
        assert_eq!(ScrubSchedule { period: 4 }.slots_within(16), 4);
    }

    #[test]
    fn scrubs_deal_word_weighted_slots_and_sweep_locally() {
        let mut c = clock(1); // every cycle scrubs: pure sweep
        let events: Vec<(usize, u64)> = (0..8)
            .map(|_| {
                let (bank, op) = c.next_event().target();
                (bank, op.addr())
            })
            .collect();
        // Banks [8, 4]: bank 0 takes two of every three slots (its word
        // share), bank 1 one; each bank's addresses advance 0,1,2…
        assert_eq!(
            events,
            vec![
                (0, 0),
                (1, 0),
                (0, 1),
                (0, 2),
                (1, 1),
                (0, 3),
                (0, 4),
                (1, 2)
            ]
        );
    }

    #[test]
    fn scrub_sweep_wraps_each_bank_independently() {
        let mut c = clock(1);
        // Bank 1 holds 4 words and takes every third slot: its 5th
        // scrub (cycle 13) wraps to 0.
        let mut bank1 = Vec::new();
        for _ in 0..18 {
            let (bank, op) = c.next_event().target();
            if bank == 1 {
                bank1.push(op.addr());
            }
        }
        assert_eq!(bank1, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn homogeneous_banks_keep_the_plain_round_robin_order() {
        // Equal weights degenerate to the historical `slot mod N` deal —
        // the order every homogeneous fixture was pinned against.
        let il = Interleaver::new(Interleaving::LowOrder, &[4, 4, 4]);
        let traffic = Workload::uniform(12, 12, 7);
        let mut c = SystemClock::new(il, ScrubSchedule { period: 1 }, traffic);
        let banks: Vec<usize> = (0..12).map(|_| c.next_event().target().0).collect();
        assert_eq!(banks, vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn weighted_slots_give_every_bank_a_uniform_sweep_period() {
        // Heterogeneous banks: each bank must complete a full sweep of
        // its own words in the same ΣW · period cycles — the uniform
        // per-bank sweep period the scrub hard bound assumes.
        let words = [8u64, 4, 2];
        let total: u64 = words.iter().sum();
        for period in [1u64, 3] {
            let il = Interleaver::new(Interleaving::LowOrder, &words);
            let traffic = Workload::uniform(total, 8, 7);
            let mut c = SystemClock::new(il, ScrubSchedule { period }, traffic);
            let mut seen: std::collections::HashMap<(usize, u64), Vec<u64>> =
                std::collections::HashMap::new();
            let horizon = 3 * total * period;
            for cycle in 0..horizon {
                let ev = c.next_event();
                if ev.is_scrub() {
                    let (bank, op) = ev.target();
                    seen.entry((bank, op.addr())).or_default().push(cycle);
                }
            }
            for (bank, &w) in words.iter().enumerate() {
                for addr in 0..w {
                    let visits = &seen[&(bank, addr)];
                    // Every word visited once per sweep, three sweeps in.
                    assert_eq!(visits.len(), 3, "bank {bank} addr {addr}: {visits:?}");
                    for pair in visits.windows(2) {
                        assert_eq!(
                            pair[1] - pair[0],
                            total * period,
                            "bank {bank} addr {addr} revisit interval at period {period}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn no_scrub_means_pure_traffic() {
        let mut c = clock(0);
        for _ in 0..50 {
            assert!(!c.next_event().is_scrub());
        }
        assert!((ScrubSchedule::OFF.bandwidth_overhead() - 0.0).abs() < f64::EPSILON);
    }

    #[test]
    fn equal_seeds_replay_identical_event_sequences() {
        let mut a = clock(3);
        let mut b = clock(3);
        for _ in 0..200 {
            assert_eq!(a.next_event(), b.next_event());
        }
    }

    #[test]
    fn checkpoint_rollback_targets() {
        let ck = CheckpointSchedule { interval: 16 };
        assert_eq!(ck.last_checkpoint_at_or_before(0), 0);
        assert_eq!(ck.last_checkpoint_at_or_before(15), 0);
        assert_eq!(ck.last_checkpoint_at_or_before(16), 16);
        assert_eq!(ck.last_checkpoint_at_or_before(47), 32);
        assert_eq!(CheckpointSchedule::OFF.last_checkpoint_at_or_before(99), 0);
    }
}
