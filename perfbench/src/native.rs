//! Native engines on real threads, run in timed slices.
//!
//! A slice releases [`THREADS`] closed-loop workers on one engine: each
//! worker takes the next operation of its own stream (wrapping at the
//! end), runs it as one transaction, and records the transaction's
//! latency from the `execute` call to its return, retries included. The
//! coordinating thread sleeps for the slice, raises the stop flag and
//! joins the workers; throughput is commits over that wall time.

use crate::clock;
use crate::ledger::{self, Ledger, Traced};
use crate::traffic::{KvSizing, Op, Store, Streams, Traffic, CLASSES, THREADS};
use nztm_core::{NzBuilder, TmStats, TmSys};
use nztm_dstm::GlobalLockTm;
use nztm_sim::Native;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// In a traced slice, one transaction in this many is followed by a
/// timed `nztm_epoch::pin()`.
const PIN_EVERY: u64 = 64;

/// The engines every native workload runs, in this order.
pub const STMS: [&str; 4] = ["nzstm", "bzstm", "scss", "norec"];
pub const GLOCK: &str = "glock";

/// What one slice measured.
pub struct Slice {
    pub commits: u64,
    pub elapsed_ns: u64,
    /// Latency percentiles over every transaction of the slice (ns).
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub samples: u64,
    /// Per-class median latency (ns) of a traced slice; `None` for an
    /// absent class or an untraced slice.
    pub class_p50_ns: [Option<f64>; CLASSES],
    pub stats: TmStats,
    pub ledger: Ledger,
    /// The structure's invariant held after the slice.
    pub check: Result<(), String>,
    /// The engine's commit counter agreed with the transactions run.
    pub commits_match: bool,
}

impl Slice {
    pub fn txn_per_s(&self) -> f64 {
        self.commits as f64 / (self.elapsed_ns.max(1) as f64 / 1e9)
    }
}

/// An engine plus the structure it runs, object-safe so different
/// engine types share one round-robin.
pub trait Runner {
    fn label(&self) -> &'static str;
    fn traced(&self) -> bool;
    fn slice(&mut self, streams: &Streams, dur: Duration) -> Slice;
}

struct Engine<S: TmSys, const TRACE: bool> {
    label: &'static str,
    platform: Arc<Native>,
    sys: Arc<S>,
    store: Store<S>,
    /// Next position in each worker's stream.
    cursors: [usize; THREADS],
    committed: u64,
    /// Per-worker latency buffers (ticks), reused across slices.
    lat: Vec<[Vec<u32>; CLASSES]>,
}

struct WorkerOut {
    commits: u64,
    cursor: usize,
    lat: [Vec<u32>; CLASSES],
    ledger: Ledger,
}

/// Nearest-rank percentile of tick latencies, in nanoseconds; 0 for no
/// samples. Reorders `v`.
fn percentile(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1 as f64 * clock::ns_per_tick()
}

/// `a - b`, field by field.
pub fn stats_delta(a: &TmStats, b: &TmStats) -> TmStats {
    let mut d = TmStats::default();
    macro_rules! sub {
        ($($f:ident),* $(,)?) => { $( d.$f = a.$f - b.$f; )* };
    }
    sub!(
        commits,
        aborts_requested,
        aborts_self,
        aborts_validation,
        aborts_explicit,
        aborts_htm,
        aborts_value_validation,
        norec_validations,
        norec_extensions,
        abort_requests_sent,
        wait_steps,
        conflicts,
        inflations,
        deflations,
        reads,
        acquires,
        backup_reused,
        backup_alloc,
        descriptor_reused,
        descriptor_alloc,
        scss_stores,
        scss_failures,
        htm_commits,
        htm_aborts,
        htm_conflict_aborts,
        htm_capacity_aborts,
        htm_explicit_aborts,
        htm_other_aborts,
        fallbacks,
        cm_escalations,
        cm_deescalations,
        txns_with_aborts,
        adt_ops,
    );
    d
}

impl<S: TmSys, const TRACE: bool> Engine<S, TRACE> {
    fn new(
        label: &'static str,
        platform: Arc<Native>,
        sys: Arc<S>,
        traffic: Traffic,
        sizing: Option<KvSizing>,
    ) -> Self {
        let store = Store::build(&*sys, traffic, sizing);
        Engine {
            label,
            platform,
            sys,
            store,
            cursors: [0; THREADS],
            committed: 0,
            lat: (0..THREADS).map(|_| Default::default()).collect(),
        }
    }

    fn worker(
        &self,
        tid: usize,
        stream: &[Op],
        mut cursor: usize,
        mut lat: [Vec<u32>; CLASSES],
        ready: &Barrier,
        stop: &AtomicBool,
    ) -> WorkerOut {
        self.platform.register_thread_as(tid);
        lat.iter_mut().for_each(Vec::clear);
        ledger::take();
        let mut commits = 0u64;
        ready.wait();
        while !stop.load(Ordering::Relaxed) {
            let op = &stream[cursor];
            cursor = if cursor + 1 == stream.len() {
                0
            } else {
                cursor + 1
            };
            let t0 = clock::ticks();
            let class = self.store.apply::<TRACE>(&*self.sys, op);
            let dt = clock::ticks().wrapping_sub(t0);
            lat[class].push(dt.min(u32::MAX as u64) as u32);
            commits += 1;
            if TRACE && commits.is_multiple_of(PIN_EVERY) {
                ledger::time_pin();
            }
        }
        WorkerOut {
            commits,
            cursor,
            lat,
            ledger: ledger::take(),
        }
    }
}

impl<S: TmSys, const TRACE: bool> Runner for Engine<S, TRACE> {
    fn label(&self) -> &'static str {
        self.label
    }

    fn traced(&self) -> bool {
        TRACE
    }

    fn slice(&mut self, streams: &Streams, dur: Duration) -> Slice {
        let before = self.sys.stats_snapshot();
        let ready = Barrier::new(THREADS + 1);
        let stop = AtomicBool::new(false);
        let lat = std::mem::take(&mut self.lat);
        let this = &*self;
        let (elapsed, outs) = std::thread::scope(|scope| {
            let handles: Vec<_> = lat
                .into_iter()
                .enumerate()
                .map(|(tid, lat)| {
                    let (stream, cursor) = (&streams[tid], this.cursors[tid]);
                    let (ready, stop) = (&ready, &stop);
                    scope.spawn(move || this.worker(tid, stream, cursor, lat, ready, stop))
                })
                .collect();
            ready.wait();
            let t0 = Instant::now();
            std::thread::sleep(dur);
            stop.store(true, Ordering::Relaxed);
            let outs: Vec<WorkerOut> = handles
                .into_iter()
                .map(|h| h.join().expect("benchmark worker panicked"))
                .collect();
            (t0.elapsed(), outs)
        });
        let stats = stats_delta(&self.sys.stats_snapshot(), &before);

        let commits: u64 = outs.iter().map(|o| o.commits).sum();
        self.committed += commits;
        let mut ledger = Ledger::default();
        let mut all = Vec::with_capacity(commits as usize);
        let mut class_p50_ns = [None; CLASSES];
        let mut class = Vec::new();
        for (c, p50) in class_p50_ns.iter_mut().enumerate() {
            class.clear();
            for o in &outs {
                class.extend_from_slice(&o.lat[c]);
            }
            all.extend_from_slice(&class);
            if TRACE && !class.is_empty() {
                *p50 = Some(percentile(&mut class, 0.50));
            }
        }
        for (tid, o) in outs.into_iter().enumerate() {
            ledger.add(&o.ledger);
            self.cursors[tid] = o.cursor;
            self.lat.push(o.lat);
        }
        Slice {
            commits,
            elapsed_ns: elapsed.as_nanos() as u64,
            p50_ns: percentile(&mut all, 0.50),
            p99_ns: percentile(&mut all, 0.99),
            samples: all.len() as u64,
            class_p50_ns,
            stats,
            ledger,
            check: self.store.check(self.committed),
            commits_match: stats.commits == commits,
        }
    }
}

fn engine<S: TmSys>(
    label: &'static str,
    platform: Arc<Native>,
    sys: Arc<S>,
    traced: bool,
    traffic: Traffic,
    sizing: Option<KvSizing>,
) -> Box<dyn Runner> {
    if traced {
        Box::new(Engine::<_, true>::new(
            label,
            platform,
            Traced::new(sys),
            traffic,
            sizing,
        ))
    } else {
        Box::new(Engine::<_, false>::new(
            label, platform, sys, traffic, sizing,
        ))
    }
}

/// Build the four STMs, each over its own platform and structure.
pub fn build_stms(
    traffic: Traffic,
    sizing: Option<KvSizing>,
    traced: bool,
) -> Vec<Box<dyn Runner>> {
    STMS.into_iter()
        .map(|label| {
            let p = Native::new(THREADS);
            // Structures allocate from the building thread.
            p.register_thread_as(0);
            let b = NzBuilder::new(Arc::clone(&p));
            match label {
                "nzstm" => engine(label, p, b.build_nzstm(), traced, traffic, sizing),
                "bzstm" => engine(label, p, b.build_bzstm(), traced, traffic, sizing),
                "scss" => engine(label, p, b.build_scss(), traced, traffic, sizing),
                "norec" => engine(label, p, b.build_norec(), traced, traffic, sizing),
                _ => unreachable!(),
            }
        })
        .collect()
}

/// Build the untraced global-lock reference.
pub fn build_glock(traffic: Traffic, sizing: Option<KvSizing>) -> Box<dyn Runner> {
    let p = Native::new(THREADS);
    p.register_thread_as(0);
    let sys = GlobalLockTm::new(Arc::clone(&p));
    engine(GLOCK, p, sys, false, traffic, sizing)
}
