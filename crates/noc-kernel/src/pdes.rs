//! Conservative parallel-simulation primitives: the lookahead window
//! and the epoch barrier.
//!
//! A sharded simulation partitions the system into *regions* that only
//! interact through multi-cycle channels. Each region then owns a slice
//! of the global timeline per *epoch*: if the earliest cycle at which
//! any region can possibly act is `X`, and every cross-region channel
//! imposes at least `lookahead` cycles between a send and its effect,
//! then no region can observe another region's behaviour before
//! `X + lookahead` — so all regions may execute cycles strictly below
//! that bound in parallel without exchanging messages (the classic
//! null-message/YAWNS window argument). [`EpochPlanner`] computes the
//! window; [`SpinBarrier`] synchronises the epoch edges; [`ParityCell`]
//! and [`MinStamp`] double-buffer the mailboxes and published values an
//! *overlapped* runner exchanges between barriers.
//!
//! Determinism does not depend on thread scheduling: every message
//! carries an absolute arrival stamp at or beyond the window bound, so
//! it may be published the instant it is produced and integrated at any
//! point before its destination advances past the stamp — early
//! integration is harmless, and the epoch protocol makes late
//! integration impossible. Each region's intra-epoch execution is the
//! ordinary sequential engine.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Plans safe execution windows from a cross-region lookahead.
///
/// # Examples
///
/// ```
/// use noc_kernel::EpochPlanner;
/// let planner = EpochPlanner::new(4);
/// // Earliest global activity at cycle 10: everyone may run to 14.
/// assert_eq!(planner.window(Some(10), u64::MAX), 14);
/// // The run horizon caps the window.
/// assert_eq!(planner.window(Some(10), 12), 12);
/// // No region will ever self-act again: only the horizon bounds the window.
/// assert_eq!(planner.window(None, 100), 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochPlanner {
    lookahead: u64,
}

impl EpochPlanner {
    /// Creates a planner for channels with at least `lookahead` cycles
    /// between a cross-region send and its earliest observable effect.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero: a zero-latency cross-region
    /// channel admits no safe window.
    pub fn new(lookahead: u64) -> Self {
        assert!(lookahead > 0, "cross-region lookahead must be non-zero");
        EpochPlanner { lookahead }
    }

    /// The cross-region lookahead in base cycles.
    pub fn lookahead(&self) -> u64 {
        self.lookahead
    }

    /// The exclusive end of the next safe window: every region may
    /// execute cycles strictly below the returned bound.
    ///
    /// `global_next` is the earliest cycle at which *any* region can
    /// possibly act (`None` when every region is quiescent absent
    /// external input); `horizon` is the run's exclusive end. Since no
    /// region acts before `global_next`, no cross-region message can
    /// take effect before `global_next + lookahead`; quiescent systems
    /// are bounded by the horizon alone.
    pub fn window(&self, global_next: Option<u64>, horizon: u64) -> u64 {
        match global_next {
            Some(x) => x.saturating_add(self.lookahead).min(horizon),
            None => horizon,
        }
    }
}

/// A reusable sense-reversing spin barrier for epoch synchronisation.
///
/// Epoch edges are latency-critical — regions cross two barriers per
/// epoch, and an epoch can be as short as the lookahead — so the
/// barrier spins briefly before yielding to the scheduler rather than
/// parking on a mutex. It is generation-counted and therefore safe to
/// reuse across an unbounded number of epochs.
///
/// # Examples
///
/// ```
/// use noc_kernel::SpinBarrier;
/// use std::sync::Arc;
/// let barrier = Arc::new(SpinBarrier::new(2));
/// let b = Arc::clone(&barrier);
/// let t = std::thread::spawn(move || {
///     b.wait();
/// });
/// barrier.wait();
/// t.join().unwrap();
/// ```
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicU64,
}

/// Spins this many iterations before starting to yield the CPU; tuned
/// for "the other workers are mid-epoch on their own cores" on the fast
/// path while degrading gracefully on oversubscribed machines.
const SPINS_BEFORE_YIELD: u32 = 128;

impl SpinBarrier {
    /// Creates a barrier for `parties` participants.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// The number of participants per crossing.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Blocks until all `parties` threads have called `wait` for the
    /// current generation; returns `true` on exactly one of them (the
    /// last arriver), mirroring `std`'s leader election.
    pub fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last arriver: reset the count, then open the gate. The
            // count must be zeroed before the generation bump publishes
            // it, or an early next-epoch arrival could race the reset.
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        false
    }
}

/// A double-buffered shared cell for overlapped epochs, indexed by epoch
/// parity.
///
/// An overlapped conservative runner separates its epochs with a single
/// barrier: while epoch `N` executes, values published during epoch
/// `N-1` are still being read (for the window min-reduction and for
/// late mailbox integration). Giving each epoch parity its own buffer
/// makes that safe — the barrier guarantees no worker is ever more than
/// one epoch ahead, so writes for parity `p` can never race reads of
/// parity `p ^ 1`, and the buffer for parity `p` has always been fully
/// consumed (one epoch ago) by the time it is written again.
///
/// The cell is deliberately a plain mutex pair, not a lock-free
/// structure: it is locked a bounded number of times per epoch and the
/// sections are short appends/drains, so contention is negligible next
/// to the per-epoch simulation work.
///
/// # Examples
///
/// ```
/// use noc_kernel::ParityCell;
/// let cell: ParityCell<Vec<u64>> = ParityCell::default();
/// cell.lock(0).push(7); // published during an even epoch
/// assert_eq!(cell.lock(0).as_slice(), [7]);
/// assert!(cell.lock(1).is_empty());
/// ```
#[derive(Debug, Default)]
pub struct ParityCell<T> {
    slots: [Mutex<T>; 2],
}

impl<T> ParityCell<T> {
    /// Creates a cell from the two parity buffers.
    pub fn new(even: T, odd: T) -> Self {
        ParityCell {
            slots: [Mutex::new(even), Mutex::new(odd)],
        }
    }

    /// Locks the buffer for epoch parity `parity & 1`.
    pub fn lock(&self, parity: usize) -> MutexGuard<'_, T> {
        self.slots[parity & 1]
            .lock()
            .expect("epoch workers do not panic holding parity buffers")
    }
}

/// A monotone-min cycle stamp shared between epoch workers.
///
/// Senders fold the absolute arrival stamps of messages they publish
/// into the tracker; the next epoch's window min-reduction reads the
/// accumulated minimum so traffic that has been *published but not yet
/// integrated* still bounds the global next-activity estimate. Unlike
/// the two-slot [`ParityCell`], trackers rotate through *three* slots
/// keyed by epoch index: workers write slot `e % 3`, read the fully
/// quiesced slot `(e + 2) % 3`, and reset slot `(e + 1) % 3` for
/// reuse — with only two slots a fast worker could start writing a
/// slot a slow neighbour was still reading.
///
/// `u64::MAX` is the identity ("no stamps recorded").
#[derive(Debug)]
pub struct MinStamp(AtomicU64);

impl Default for MinStamp {
    fn default() -> Self {
        MinStamp(AtomicU64::new(u64::MAX))
    }
}

impl MinStamp {
    /// Folds `stamp` into the running minimum.
    pub fn record(&self, stamp: u64) {
        self.0.fetch_min(stamp, Ordering::AcqRel);
    }

    /// The minimum recorded since the last [`MinStamp::reset`], or
    /// `u64::MAX` when nothing was recorded.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Clears the tracker back to the identity.
    pub fn reset(&self) {
        self.0.store(u64::MAX, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn window_is_next_plus_lookahead() {
        let p = EpochPlanner::new(3);
        assert_eq!(p.lookahead(), 3);
        assert_eq!(p.window(Some(7), u64::MAX), 10);
    }

    #[test]
    fn window_caps_apply() {
        let p = EpochPlanner::new(3);
        assert_eq!(p.window(Some(7), 9), 9);
        assert_eq!(p.window(None, 5), 5);
    }

    #[test]
    fn window_saturates_near_sentinel() {
        let p = EpochPlanner::new(10);
        assert_eq!(p.window(Some(u64::MAX - 3), u64::MAX), u64::MAX);
        assert_eq!(p.window(None, u64::MAX), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "lookahead must be non-zero")]
    fn zero_lookahead_panics() {
        EpochPlanner::new(0);
    }

    #[test]
    fn single_party_barrier_never_blocks() {
        let b = SpinBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    fn barrier_synchronises_epochs() {
        const EPOCHS: u64 = 200;
        const WORKERS: usize = 3;
        let barrier = Arc::new(SpinBarrier::new(WORKERS + 1));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..WORKERS {
            let barrier = Arc::clone(&barrier);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..EPOCHS {
                    counter.fetch_add(1, Ordering::Relaxed);
                    barrier.wait(); // work published
                    barrier.wait(); // coordinator done
                }
            }));
        }
        for epoch in 1..=EPOCHS {
            barrier.wait();
            // Between the two barriers every worker has contributed
            // exactly once for this epoch and none has started the next.
            assert_eq!(counter.load(Ordering::Relaxed), epoch * WORKERS as u64);
            barrier.wait();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn parity_buffers_are_independent() {
        let cell: ParityCell<Vec<u32>> = ParityCell::new(Vec::new(), Vec::new());
        cell.lock(0).push(1);
        cell.lock(1).push(2);
        cell.lock(2).push(3); // parity wraps: 2 & 1 == 0
        assert_eq!(*cell.lock(0), vec![1, 3]);
        assert_eq!(*cell.lock(1), vec![2]);
    }

    #[test]
    fn min_stamp_accumulates_and_resets() {
        let m = MinStamp::default();
        assert_eq!(m.get(), u64::MAX);
        m.record(40);
        m.record(25);
        m.record(90);
        assert_eq!(m.get(), 25);
        m.reset();
        assert_eq!(m.get(), u64::MAX);
    }

    #[test]
    fn min_stamp_is_shared_across_threads() {
        let m = Arc::new(MinStamp::default());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    m.record(1000 + t * 100 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.get(), 1000);
    }

    #[test]
    fn exactly_one_leader_per_crossing() {
        const PARTIES: usize = 4;
        let barrier = Arc::new(SpinBarrier::new(PARTIES));
        let leaders = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..PARTIES {
            let barrier = Arc::clone(&barrier);
            let leaders = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    if barrier.wait() {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::Relaxed), 50);
    }
}
