//! Per-thread throughput ledgers.
//!
//! `vns-bench` reports packets/s and units/s per experiment by sampling two
//! process-wide counters around each run. Earlier revisions backed those
//! with global `AtomicU64`s that every `PathChannel` drop and every
//! `par_map` call hit — a shared cache line bouncing between workers. The
//! ledger keeps the hot-path counts in plain thread-local [`Cell`]s
//! instead:
//!
//! * campaign code calls [`add_packets`]/[`add_units`] — a thread-local
//!   increment, no atomics, no contention;
//! * a `par_map` worker drains its cells with [`take_local`] when its unit
//!   loop ends and hands the delta back to the join point, which folds the
//!   deltas into the process totals in canonical worker order via
//!   [`merge`];
//! * readers ([`packets_sent`], [`units_processed`]) see the merged totals
//!   plus their own thread's still-local tally, so single-threaded flows
//!   (tests, the bench runner between experiments) observe their own
//!   counts immediately and exactly — concurrent tests on other threads
//!   can no longer skew a delta measured on this one.
//!
//! Counts recorded on a plain `std::thread` that never merges are visible
//! only to that thread; inside this workspace every worker thread is
//! spawned by `par_map`, which always merges.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Merged totals: the process-wide pair behind [`merge`], [`packets_sent`]
/// and [`units_processed`]. Tests build private ones, so their deltas do
/// not move when a concurrently running test's `par_map` joins.
#[derive(Debug)]
struct Totals {
    packets: AtomicU64,
    units: AtomicU64,
}

/// Process totals, fed only by [`merge`] at `par_map` join points (and by
/// nothing else — workers never touch these directly).
static MERGED: Totals = Totals::new();

thread_local! {
    static LOCAL_PACKETS: Cell<u64> = const { Cell::new(0) };
    static LOCAL_UNITS: Cell<u64> = const { Cell::new(0) };
}

/// A drained per-thread tally, produced by [`take_local`] and consumed by
/// [`merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerDelta {
    /// Packets pushed through `PathChannel`s on the drained thread.
    pub packets: u64,
    /// Work units completed on the drained thread.
    pub units: u64,
}

/// Records `n` packets sent on the current thread.
pub fn add_packets(n: u64) {
    LOCAL_PACKETS.with(|c| c.set(c.get() + n));
}

/// Records `n` work units processed on the current thread.
pub fn add_units(n: u64) {
    LOCAL_UNITS.with(|c| c.set(c.get() + n));
}

/// Drains the current thread's cells to zero and returns the delta. Called
/// by `par_map` workers at the end of their claim loop; the join point
/// passes the deltas to [`merge`] in worker spawn order.
pub fn take_local() -> LedgerDelta {
    LedgerDelta {
        packets: LOCAL_PACKETS.with(|c| c.replace(0)),
        units: LOCAL_UNITS.with(|c| c.replace(0)),
    }
}

impl Totals {
    const fn new() -> Self {
        Totals {
            packets: AtomicU64::new(0),
            units: AtomicU64::new(0),
        }
    }

    fn merge(&self, delta: LedgerDelta) {
        if delta.packets > 0 {
            self.packets.fetch_add(delta.packets, Ordering::Relaxed);
        }
        if delta.units > 0 {
            self.units.fetch_add(delta.units, Ordering::Relaxed);
        }
    }

    fn packets_sent(&self) -> u64 {
        self.packets.load(Ordering::Relaxed) + LOCAL_PACKETS.with(Cell::get)
    }

    fn units_processed(&self) -> u64 {
        self.units.load(Ordering::Relaxed) + LOCAL_UNITS.with(Cell::get)
    }
}

/// Folds a drained worker delta into the process totals.
pub fn merge(delta: LedgerDelta) {
    MERGED.merge(delta);
}

/// Packets sent through `PathChannel`s, as visible to this thread: the
/// merged process total plus this thread's still-local tally.
pub fn packets_sent() -> u64 {
    MERGED.packets_sent()
}

/// Work units processed by `par_map`, as visible to this thread (merged
/// total plus this thread's local tally).
pub fn units_processed() -> u64 {
    MERGED.units_processed()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test reads a private `Totals`: the process-wide one moves
    // whenever a concurrently running test merges (every `par_map` join
    // does).

    #[test]
    fn local_counts_are_immediately_visible() {
        let totals = Totals::new();
        let p0 = totals.packets_sent();
        let u0 = totals.units_processed();
        add_packets(5);
        add_units(2);
        assert_eq!(totals.packets_sent() - p0, 5);
        assert_eq!(totals.units_processed() - u0, 2);
    }

    #[test]
    fn take_local_drains_and_merge_restores_visibility() {
        let totals = Totals::new();
        take_local();
        add_packets(7);
        let d = take_local();
        assert_eq!(d.packets, 7);
        assert_eq!(totals.packets_sent(), 0);
        totals.merge(d);
        assert_eq!(totals.packets_sent(), 7);
    }

    #[test]
    fn other_threads_do_not_skew_a_local_delta() {
        let totals = Totals::new();
        let before = totals.packets_sent();
        let handle = std::thread::spawn(|| {
            // A foreign thread's unmerged tally must not be visible here.
            add_packets(1_000_000);
        });
        add_packets(3);
        handle.join().expect("thread");
        assert_eq!(totals.packets_sent() - before, 3);
    }
}
