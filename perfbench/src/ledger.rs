//! The traced run's cost ledger: a [`TmSys`] wrapper that times the
//! calls into an engine from the outside.
//!
//! [`Traced`] forwards every operation to the wrapped engine and adds
//! timers around `execute`, `read` and `write`. Nothing inside the
//! engine changes, so the ledger splits each `execute` call into four
//! spans that add up to it by construction:
//!
//! * **begin** — from the `execute` call to the first closure entry;
//! * **retry** — from the first to the last closure entry (aborted
//!   attempts, contention-manager waits, restarts);
//! * **body** — from the last closure entry to its return (the reads
//!   and writes of the committing attempt, plus user code);
//! * **commit** — from the last closure return to the `execute` return.
//!
//! Counters live in thread-local cells, so workers never share a line;
//! [`take`] drains the calling thread's ledger. Spans are kept in clock
//! ticks (see [`crate::clock`]), so they add up exactly.

use crate::clock::ticks;
use nztm_core::adt::AdtOpDesc;
use nztm_core::data::TmData;
use nztm_core::txn::Abort;
use nztm_core::{TmStats, TmSys};
use std::cell::Cell;
use std::sync::Arc;

/// Per-thread span sums (clock ticks) and call counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ledger {
    pub txns: u64,
    pub exec_ticks: u64,
    pub begin_ticks: u64,
    pub retry_ticks: u64,
    pub body_ticks: u64,
    pub commit_ticks: u64,
    /// Transactions whose four spans did not add up to `exec_ticks`.
    pub unreconciled: u64,
    pub reads: u64,
    pub read_ticks: u64,
    pub writes: u64,
    pub write_ticks: u64,
    /// Calls into `ShardedKv::*_tx` (every attempt's call counts).
    pub tds_calls: u64,
    pub tds_ticks: u64,
    pub tds_reads: u64,
    /// Sampled `nztm_epoch::pin()` + drop timings.
    pub pins: u64,
    pub pin_ticks: u64,
}

impl Ledger {
    pub fn add(&mut self, o: &Ledger) {
        macro_rules! add {
            ($($f:ident),*) => { $( self.$f += o.$f; )* };
        }
        add!(
            txns,
            exec_ticks,
            begin_ticks,
            retry_ticks,
            body_ticks,
            commit_ticks,
            unreconciled,
            reads,
            read_ticks,
            writes,
            write_ticks,
            tds_calls,
            tds_ticks,
            tds_reads,
            pins,
            pin_ticks
        );
    }
}

macro_rules! cells {
    ($($f:ident),*) => {
        struct Cells { $( $f: Cell<u64>, )* }
        impl Cells {
            const fn new() -> Self {
                Cells { $( $f: Cell::new(0), )* }
            }
            fn take(&self) -> Ledger {
                Ledger { $( $f: self.$f.take(), )* }
            }
        }
    };
}
cells!(
    txns,
    exec_ticks,
    begin_ticks,
    retry_ticks,
    body_ticks,
    commit_ticks,
    unreconciled,
    reads,
    read_ticks,
    writes,
    write_ticks,
    tds_calls,
    tds_ticks,
    tds_reads,
    pins,
    pin_ticks
);

thread_local! {
    static LEDGER: Cells = const { Cells::new() };
}

fn bump(c: &Cell<u64>, n: u64) {
    c.set(c.get() + n);
}

fn span(from: u64, to: u64) -> u64 {
    to.wrapping_sub(from)
}

/// Drain the calling thread's ledger.
pub fn take() -> Ledger {
    LEDGER.with(Cells::take)
}

/// Time `f`, a call into a `ShardedKv::*_tx` body, and count the engine
/// reads it made.
pub fn time_tds<R>(f: impl FnOnce() -> R) -> R {
    let reads0 = LEDGER.with(|l| l.reads.get());
    let t0 = ticks();
    let r = f();
    let t1 = ticks();
    LEDGER.with(|l| {
        bump(&l.tds_calls, 1);
        bump(&l.tds_ticks, span(t0, t1));
        bump(&l.tds_reads, l.reads.get() - reads0);
    });
    r
}

/// Time one `nztm_epoch::pin()` and the drop of its guard.
pub fn time_pin() {
    let t0 = ticks();
    drop(nztm_epoch::pin());
    let t1 = ticks();
    LEDGER.with(|l| {
        bump(&l.pins, 1);
        bump(&l.pin_ticks, span(t0, t1));
    });
}

/// An engine whose `execute`, `read` and `write` calls are timed.
pub struct Traced<S: TmSys> {
    inner: Arc<S>,
}

impl<S: TmSys> Traced<S> {
    pub fn new(inner: Arc<S>) -> Arc<Self> {
        Arc::new(Traced { inner })
    }
}

impl<S: TmSys> TmSys for Traced<S> {
    type Obj<T: TmData> = S::Obj<T>;
    type Tx<'t> = S::Tx<'t>;

    fn alloc<T: TmData>(&self, init: T) -> Self::Obj<T> {
        self.inner.alloc(init)
    }

    fn peek<T: TmData>(obj: &Self::Obj<T>) -> T {
        S::peek(obj)
    }

    fn execute<R>(&self, mut f: impl FnMut(&mut Self::Tx<'_>) -> Result<R, Abort>) -> R {
        let call = ticks();
        let mut first_entry = None;
        let mut last_entry = call;
        let mut last_return = call;
        let r = self.inner.execute(|tx| {
            let t = ticks();
            first_entry.get_or_insert(t);
            last_entry = t;
            let res = f(tx);
            last_return = ticks();
            res
        });
        let ret = ticks();
        LEDGER.with(|l| {
            let exec = span(call, ret);
            bump(&l.txns, 1);
            bump(&l.exec_ticks, exec);
            match first_entry {
                Some(first) if last_entry <= last_return => {
                    let spans = [
                        span(call, first),
                        span(first, last_entry),
                        span(last_entry, last_return),
                        span(last_return, ret),
                    ];
                    bump(&l.begin_ticks, spans[0]);
                    bump(&l.retry_ticks, spans[1]);
                    bump(&l.body_ticks, spans[2]);
                    bump(&l.commit_ticks, spans[3]);
                    if spans.iter().fold(0u64, |a, &b| a.wrapping_add(b)) != exec {
                        bump(&l.unreconciled, 1);
                    }
                }
                // The closure never ran, or its last entry never returned.
                _ => bump(&l.unreconciled, 1),
            }
        });
        r
    }

    fn read<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>) -> Result<T, Abort> {
        let t0 = ticks();
        let r = S::read(tx, obj);
        let t1 = ticks();
        LEDGER.with(|l| {
            bump(&l.reads, 1);
            bump(&l.read_ticks, span(t0, t1));
        });
        r
    }

    fn write<T: TmData>(tx: &mut Self::Tx<'_>, obj: &Self::Obj<T>, v: &T) -> Result<(), Abort> {
        let t0 = ticks();
        let r = S::write(tx, obj, v);
        let t1 = ticks();
        LEDGER.with(|l| {
            bump(&l.writes, 1);
            bump(&l.write_ticks, span(t0, t1));
        });
        r
    }

    fn note_adt_op(tx: &mut Self::Tx<'_>, desc: AdtOpDesc) {
        S::note_adt_op(tx, desc)
    }

    fn stats_snapshot(&self) -> TmStats {
        self.inner.stats_snapshot()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
