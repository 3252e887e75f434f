//! Hot-path throughput benchmark and regression gate (`BENCH_PR2.json`).
//!
//! Three microbench workloads stress the transactional fast path —
//! exactly the costs the zero-allocation work targets:
//!
//! * `read-heavy` — 15/16 of transactions read 8 of 256 objects (with
//!   repeats, so re-read lookups fire); 1/16 update a single object.
//! * `write-heavy` — every transaction reads and increments 4 objects.
//! * `transfer` — the workloads crate's transfer bank (2-account
//!   transfers, 1-in-8 full audits): mixed read/write with conflicts.
//!
//! Each workload runs at 1/4/8 threads for BZSTM, NZSTM, SCSS, and
//! NOREC on native threads, and for the NZTM hybrid on the deterministic
//! simulator (the hybrid's HTM is simulator-only, so its cells measure
//! host wall-clock *of the simulation* — comparable run-to-run on one
//! machine, not against the native cells).
//!
//! Output is a flat JSON report. Because absolute ops/s varies across
//! machines, each cell also records `norm`: ops/s divided by a
//! single-thread SplitMix64 calibration rate measured in the same
//! process. The `check` gate compares per-workload geometric means of
//! `norm` ratios, so a uniformly slower CI runner does not fail the
//! gate while a real hot-path regression does.

use crate::suite::paper_machine;
use nztm_core::cm::{AdaptiveConfig, KarmaDeadlock};
use nztm_core::{Bzstm, NzBuilder, NzConfig, Nzstm, NzstmScss, TmStats, TmSys};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, NztmHybrid};
use nztm_sim::{DetRng, Native};
use nztm_workloads::kv::{KvTraceCfg, KvTraceGen, ShardedKv};
use nztm_workloads::Host;
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

pub const WORKLOADS: &[&str] = &["read-heavy", "write-heavy", "transfer"];
pub const SYSTEMS: &[&str] = &["BZSTM", "NZSTM", "SCSS", "NOREC", "HYBRID"];
pub const THREADS: &[usize] = &[1, 4, 8];

/// The hybrid over the arch-native x86_64 RTM backend, on real threads
/// (`htm-native` builds only). Deliberately *not* in [`SYSTEMS`]: its
/// numbers depend on whether the host has RTM, so the regression gate
/// never matches these cells against a baseline — they are reported for
/// the abort-reason histogram and hw-commit ratio, with the backend
/// decision recorded in the report's `htm_native` field.
pub const NATIVE_HTM_SYSTEM: &str = "NZTM-RTM";

/// Scaling-sweep dimension (`bench_pr2 run --scaling`): NZSTM on native
/// threads across thread counts that cross the 64-thread flat reader-
/// bitmap boundary. `scale-read-mostly` reuses the read-heavy op mix
/// (visible-reader registration dominates); `scale-mixed` reuses the
/// transfer bank (conflicting read/write).
pub const SCALING_WORKLOADS: &[&str] = &["scale-read-mostly", "scale-mixed"];
pub const SCALING_SYSTEM: &str = "NZSTM";
pub const SCALING_THREADS: &[usize] = &[1, 4, 16, 64, 128];
/// Scaling cells past this thread count are reported but never gated:
/// 128 threads oversubscribe every CI runner, so their wall-clock is
/// dominated by the host scheduler, not the STM hot path.
pub const SCALING_GATE_MAX_THREADS: usize = 64;

/// Sharded KV service sweep (PR 8, runs with `--scaling`): the
/// `nztm-workloads` sharded session/wallet store — [`ShardedKv`] over
/// `nztm-tds` hash-map shards — driven by the deterministic
/// million-user zipfian trace generator ([`KvTraceGen`]), NZSTM on
/// native threads across the same thread counts as the scaling sweep.
/// Read-mostly with write bursts and cross-shard transfers; every cell
/// re-checks the wallet-conservation invariant after the run. Cells up
/// to [`SCALING_GATE_MAX_THREADS`] ride the regression gate.
pub const KV_WORKLOAD: &str = "sharded-kv";
const KV_SHARDS: usize = 8;
const KV_BUCKETS_PER_SHARD: usize = 1_024;
/// Distinct-users-per-shard headroom. Gets never allocate and puts /
/// transfers allocate only on a user's first touch, so the worst case
/// is ~0.3 allocations per trace op; this bounds even a maximally
/// unskewed full-scale run (3 samples x 54k ops) with >2x slack.
const KV_CAPACITY_PER_SHARD: usize = 16_384;

/// Contention-management sweep (runs with `--scaling`): the write-heavy
/// op mix at the abort-storm thread counts from the PR-5 sweep, NZSTM
/// with the static Karma default vs `NZSTM-ACM` (the same engine under
/// `cm::Adaptive`). These cells are gated on *abort rate*, not
/// throughput: wall-clock at 68+ threads is host-scheduler noise on CI,
/// but aborts-per-commit is a property of the protocol + policy and is
/// comparable across hosts.
pub const CM_WORKLOAD: &str = "cm-write-heavy";
pub const CM_BASE_SYSTEM: &str = "NZSTM";
pub const CM_ADAPTIVE_SYSTEM: &str = "NZSTM-ACM";
pub const CM_THREADS: &[usize] = &[68, 96, 128];
/// Thread counts whose abort-rate comparison gates the build (68 is
/// reported for trend-watching only — at the low end of the storm the
/// two policies legitimately track each other).
pub const CM_GATE_THREADS: &[usize] = &[96, 128];
/// The adaptive policy's abort rate may exceed Karma's by at most this
/// relative slack before the gate fails. The acceptance target is a
/// *reduction*; the slack only absorbs sampling noise on shared
/// runners.
pub const CM_ABORT_RATE_SLACK: f64 = 0.10;
/// Absolute slack on top of the relative one. On an oversubscribed
/// runner conflicts arrive as preemption-driven bursts: a 48k-op cell
/// often measures *zero* aborts for one policy and a ~0.02-0.03
/// aborts/commit burst for the other, in either direction — relative
/// slack is useless against a zero baseline. 0.05 sits ~3x above the
/// worst pooled burst observed while still failing a real
/// waiting-policy collapse (the mistuned escalation measured +0.23
/// over Karma).
pub const CM_ABORT_RATE_EPSILON: f64 = 0.05;
/// Ops per cm cell, independent of `--quick`: an abort *rate* needs a
/// large op count to be stable (a single preemption-driven conflict
/// cascade dominates a 4k-op quick cell), and the six cm cells are
/// cheap enough to always run at full size.
pub const CM_OPS: u64 = 48_000;

/// Ops per hybrid (simulator) cell, independent of `--quick`'s
/// native scale — the same pinning the cm cells get via [`CM_OPS`].
/// The old per-scale budget left full-mode hybrid cells at 384 total
/// ops (48 per thread at 8 threads): wall-clock granularity and warmup
/// edges dominated, so the cells' `norm` values were meaningless. The
/// simulator is deterministic, so unlike the native cells it needs op
/// volume only for timing granularity, not noise rejection; 3072 ops
/// keeps the slowest cell (write-heavy at 8 simulated cores, ~7K
/// simulated ops/s of host wall) under a second.
pub const HYBRID_OPS: u64 = 3_072;

const N_OBJECTS: usize = 256;
const N_ACCOUNTS: usize = 64;
/// Object-pool size for the cm sweep: small enough that concurrent
/// write transactions conflict by construction, so the measured abort
/// rate reflects the CM policy rather than scheduling luck (over 256
/// objects, an oversubscribed host only conflicts when a thread is
/// preempted mid-transaction — run-to-run noise swamps the policy).
const CM_N_OBJECTS: usize = 16;

/// Hardware-transaction accounting for one hybrid cell: how many
/// transactions committed on the HTM path and why the rest aborted,
/// in the CPS taxonomy the retry policy consults. Populated for the
/// simulated `HYBRID` cells and the native [`NATIVE_HTM_SYSTEM`] cells;
/// `None` on pure-software systems.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HtmCellStats {
    /// Transactions that committed on the hardware path.
    pub hw_commits: u64,
    /// Hardware aborts classified as coherence conflicts (retried).
    pub conflict_aborts: u64,
    /// Hardware aborts from overflowing hardware resources (straight to
    /// software — retrying cannot help).
    pub capacity_aborts: u64,
    /// Explicit self-aborts: the §2.4 software-conflict check fired
    /// inside a hardware transaction (`xabort` on the native path).
    pub explicit_aborts: u64,
    /// Environmental aborts (TLB miss, interrupt, spurious).
    pub other_aborts: u64,
    /// Transactions that exhausted the hardware budget and completed on
    /// the software path.
    pub fallbacks: u64,
}

impl HtmCellStats {
    fn from_tm(st: &TmStats) -> HtmCellStats {
        HtmCellStats {
            hw_commits: st.htm_commits,
            conflict_aborts: st.htm_conflict_aborts,
            capacity_aborts: st.htm_capacity_aborts,
            explicit_aborts: st.htm_explicit_aborts,
            other_aborts: st.htm_other_aborts,
            fallbacks: st.fallbacks,
        }
    }

    fn add(&mut self, o: &HtmCellStats) {
        self.hw_commits += o.hw_commits;
        self.conflict_aborts += o.conflict_aborts;
        self.capacity_aborts += o.capacity_aborts;
        self.explicit_aborts += o.explicit_aborts;
        self.other_aborts += o.other_aborts;
        self.fallbacks += o.fallbacks;
    }

    /// Fraction of the cell's commits that landed on the hardware path.
    pub fn hw_ratio(&self, commits: u64) -> f64 {
        self.hw_commits as f64 / commits.max(1) as f64
    }

    pub fn total_aborts(&self) -> u64 {
        self.conflict_aborts + self.capacity_aborts + self.explicit_aborts + self.other_aborts
    }
}

/// One measured (workload, system, threads) cell.
///
/// The headline numbers (`ops_per_sec`, `norm`, `commits`, `aborts`)
/// come from the *best* timed sample — right for a throughput gate on a
/// noisy shared host, but biased for anything conflict-related: picking
/// the fastest sample also picks the least-conflicted one, skewing
/// abort rates toward zero. The sample-distribution fields
/// (`samples`, `ops_per_sec_mean`, `ops_per_sec_p95`,
/// `abort_rate_mean`) report the whole pool so readers can see the
/// spread and an unbiased abort rate next to the best-of value.
#[derive(Clone, Debug)]
pub struct HotCell {
    pub workload: String,
    pub system: String,
    pub threads: usize,
    pub ops: u64,
    pub elapsed_ns: u64,
    pub ops_per_sec: f64,
    /// ops/s ÷ calibration ops/s — the machine-independent gate metric.
    pub norm: f64,
    pub commits: u64,
    pub aborts: u64,
    /// Timed samples behind this cell (across `--repeat` rounds too).
    pub samples: u64,
    /// Mean ops/s over all samples (best-of-unbiased central value).
    pub ops_per_sec_mean: f64,
    /// 95th-percentile ops/s over all samples (nearest-rank).
    pub ops_per_sec_p95: f64,
    /// Mean per-sample aborts/commit — the unbiased abort rate.
    pub abort_rate_mean: f64,
    /// Raw per-sample `(ops/s, aborts/commit)` pool; carried so
    /// best-of merging recomputes exact summaries, never serialized
    /// (empty on a parsed report).
    pub sample_stats: Vec<(f64, f64)>,
    /// Hardware-path accounting (hybrid cells only).
    pub htm: Option<HtmCellStats>,
}

impl HotCell {
    /// Aborts per committed transaction — the contention-sweep gate
    /// metric. Unlike ops/s it is a property of the protocol + CM
    /// policy, not the host, so it compares across machines.
    pub fn abort_rate(&self) -> f64 {
        self.aborts as f64 / self.commits.max(1) as f64
    }

    /// Recompute the sample-summary fields from the raw pool (no-op on
    /// parsed cells, whose pool is empty and whose summaries came from
    /// the JSON).
    fn refresh_sample_summary(&mut self) {
        if self.sample_stats.is_empty() {
            return;
        }
        let n = self.sample_stats.len();
        self.samples = n as u64;
        self.ops_per_sec_mean =
            self.sample_stats.iter().map(|(o, _)| o).sum::<f64>() / n as f64;
        self.abort_rate_mean =
            self.sample_stats.iter().map(|(_, r)| r).sum::<f64>() / n as f64;
        let mut ops: Vec<f64> = self.sample_stats.iter().map(|(o, _)| *o).collect();
        ops.sort_by(|a, b| a.total_cmp(b));
        let rank = ((n as f64 * 0.95).ceil() as usize).clamp(1, n) - 1;
        self.ops_per_sec_p95 = ops[rank];
    }
}

#[derive(Clone, Debug)]
pub struct HotReport {
    pub mode: String,
    pub calibration_mops: f64,
    /// One-line record of the native-HTM backend decision for this run
    /// ("not built" / "native RTM" / the fallback reason) — so a report
    /// always says which path its hybrid cells exercised, never
    /// silently. Kept comma-free for the flat JSON reader.
    pub htm_native: String,
    pub cells: Vec<HotCell>,
}

/// Iteration budget for one full run.
#[derive(Clone, Copy, Debug)]
pub struct HotScale {
    /// Total transactional ops per native cell (split across threads).
    pub native_ops: u64,
    /// Total ops per simulated (hybrid) cell — the simulator is ~1000x
    /// slower per op than native threads.
    pub sim_ops: u64,
    /// Timed samples per cell; the best is reported (best-of-N rejects
    /// scheduler noise, which on CI runners is one-sided).
    pub samples: usize,
    pub seed: u64,
}

impl HotScale {
    pub fn quick() -> Self {
        HotScale { native_ops: 4_000, sim_ops: 96, samples: 1, seed: 0xB24C }
    }

    pub fn full() -> Self {
        HotScale { native_ops: 48_000, sim_ops: 384, samples: 3, seed: 0xB24C }
    }
}

/// Measure the calibration rate: single-threaded SplitMix64 mixing, in
/// million ops per second. Everything the gate compares is divided by
/// this, so a CI runner half as fast as the committed-baseline machine
/// still produces comparable `norm` values.
pub fn calibrate() -> f64 {
    fn run(iters: u64) -> f64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let t = Instant::now();
        for _ in 0..iters {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            black_box(z ^ (z >> 31));
        }
        iters as f64 / t.elapsed().as_secs_f64() / 1e6
    }
    run(1 << 20); // warmup
    run(1 << 23).max(run(1 << 23))
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum HotWorkload {
    ReadHeavy,
    WriteHeavy,
    /// The write-heavy op mix over [`CM_N_OBJECTS`] objects: a
    /// conflict-by-construction storm for the contention sweep.
    CmWriteHeavy,
    Transfer,
    /// The sharded KV/session store under the million-user zipfian
    /// trace (PR 8). Ops come from a stateful per-thread [`KvTraceGen`]
    /// rather than the plain RNG — see [`OpSource`].
    ShardedKv,
}

impl HotWorkload {
    pub(crate) fn from_name(s: &str) -> HotWorkload {
        match s {
            "read-heavy" | "scale-read-mostly" => HotWorkload::ReadHeavy,
            "write-heavy" => HotWorkload::WriteHeavy,
            "cm-write-heavy" => HotWorkload::CmWriteHeavy,
            "transfer" | "scale-mixed" => HotWorkload::Transfer,
            "sharded-kv" => HotWorkload::ShardedKv,
            other => panic!("unknown workload {other:?}"),
        }
    }
}

/// The per-thread op driver shared by the native and simulated runners
/// (and the attribution cross-check in [`crate::attrib`]).
pub(crate) struct OpDriver<S: TmSys> {
    workload: HotWorkload,
    objects: Vec<S::Obj<u64>>,
    bank: Option<nztm_workloads::harness::TransferBank<S>>,
    kv: Option<ShardedKv<S>>,
}

/// Per-thread op stream: the classic workloads draw from a plain RNG;
/// the sharded KV workload replays the stateful trace generator (write
/// bursts and transfer cadence live in the generator, not the RNG).
pub(crate) enum OpSource {
    Rng(DetRng),
    Kv(KvTraceGen),
}

impl<S: TmSys> OpDriver<S> {
    pub(crate) fn new(sys: &S, workload: HotWorkload) -> Self {
        let mut kv = None;
        let (objects, bank) = match workload {
            HotWorkload::Transfer => {
                (Vec::new(), Some(nztm_workloads::harness::TransferBank::new(sys, N_ACCOUNTS, 1_000)))
            }
            HotWorkload::CmWriteHeavy => {
                ((0..CM_N_OBJECTS).map(|i| sys.alloc(i as u64)).collect(), None)
            }
            HotWorkload::ShardedKv => {
                kv = Some(ShardedKv::new(
                    sys,
                    KV_SHARDS,
                    KV_BUCKETS_PER_SHARD,
                    KV_CAPACITY_PER_SHARD,
                    100,
                ));
                (Vec::new(), None)
            }
            _ => ((0..N_OBJECTS).map(|i| sys.alloc(i as u64)).collect(), None),
        };
        OpDriver { workload, objects, bank, kv }
    }

    /// Build the op stream for one worker thread. Constructing the KV
    /// generator pays the zipfian zeta sum (one pass over the user
    /// population) — callers do this outside the timed phase.
    pub(crate) fn source(&self, seed: u64, stream: u64) -> OpSource {
        match self.workload {
            HotWorkload::ShardedKv => {
                OpSource::Kv(KvTraceGen::new(KvTraceCfg::million_users(), seed, stream))
            }
            _ => OpSource::Rng(DetRng::new(seed).split(stream)),
        }
    }

    pub(crate) fn step(&self, sys: &S, src: &mut OpSource) {
        match src {
            OpSource::Rng(rng) => self.one_op(sys, rng),
            OpSource::Kv(gen) => {
                let op = gen.next();
                black_box(self.kv.as_ref().unwrap().apply(sys, &op));
            }
        }
    }

    pub(crate) fn one_op(&self, sys: &S, rng: &mut DetRng) {
        match self.workload {
            HotWorkload::Transfer => self.bank.as_ref().unwrap().one_op(sys, rng),
            HotWorkload::ReadHeavy => {
                let n = self.objects.len() as u64;
                if rng.chance(1, 16) {
                    let obj = &self.objects[rng.next_below(n) as usize];
                    sys.execute(|tx| {
                        let v = S::read(tx, obj)?;
                        S::write(tx, obj, &v.wrapping_add(1))
                    });
                } else {
                    let mut idx = [0u64; 8];
                    for i in &mut idx {
                        *i = rng.next_below(n);
                    }
                    let sum = sys.execute(|tx| {
                        let mut acc = 0u64;
                        for &i in &idx {
                            acc = acc.wrapping_add(S::read(tx, &self.objects[i as usize])?);
                        }
                        Ok(acc)
                    });
                    black_box(sum);
                }
            }
            HotWorkload::ShardedKv => {
                unreachable!("sharded-kv ops come from the trace generator — use step()")
            }
            HotWorkload::WriteHeavy | HotWorkload::CmWriteHeavy => {
                let n = self.objects.len() as u64;
                let mut idx = [0u64; 4];
                for i in &mut idx {
                    *i = rng.next_below(n);
                }
                sys.execute(|tx| {
                    for &i in &idx {
                        let obj = &self.objects[i as usize];
                        let v = S::read(tx, obj)?;
                        S::write(tx, obj, &v.wrapping_add(1))?;
                    }
                    Ok(())
                });
            }
        }
    }
}

struct CellTiming {
    ops: u64,
    elapsed_ns: u64,
    commits: u64,
    aborts: u64,
    /// Per-sample `(ops/s, aborts/commit)` — every timed sample taken
    /// for this cell, not just the kept one.
    sample_stats: Vec<(f64, f64)>,
    htm: Option<HtmCellStats>,
}

impl CellTiming {
    fn own_sample(&self) -> (f64, f64) {
        (
            self.ops as f64 / (self.elapsed_ns.max(1) as f64 / 1e9),
            self.aborts as f64 / self.commits.max(1) as f64,
        )
    }
}

/// One timed native sample: warmup phase, stats reset while the workers
/// are parked at a barrier, then the measured phase timed between the
/// release barrier and a completion barrier. Warmup exists so the
/// measured phase sees populated descriptor/buffer free lists — the
/// steady state the zero-allocation claim is about.
fn native_sample_timed<S: TmSys>(
    platform: &Arc<Native>,
    sys: &Arc<S>,
    driver: &Arc<OpDriver<S>>,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> CellTiming {
    platform.register_thread_as(0);
    let warmup_ops = (ops_per_thread / 8).max(16);
    let start = Arc::new(Barrier::new(threads + 1));
    let done = Arc::new(Barrier::new(threads + 1));
    let mut elapsed_ns = 0u64;
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let platform = Arc::clone(platform);
            let driver = Arc::clone(driver);
            let sys = Arc::clone(sys);
            let (start, done) = (Arc::clone(&start), Arc::clone(&done));
            scope.spawn(move || {
                platform.register_thread_as(tid);
                let mut src = driver.source(seed, tid as u64 + 1);
                for _ in 0..warmup_ops {
                    driver.step(&*sys, &mut src);
                }
                start.wait(); // workers parked; main resets stats
                start.wait(); // released together; measured phase
                for _ in 0..ops_per_thread {
                    driver.step(&*sys, &mut src);
                }
                done.wait();
            });
        }
        start.wait();
        sys.reset_stats();
        let t0 = Instant::now();
        start.wait();
        done.wait();
        elapsed_ns = t0.elapsed().as_nanos() as u64;
    });
    platform.register_thread_as(0);
    if let Some(bank) = &driver.bank {
        bank.assert_conserved();
    }
    if let Some(kv) = &driver.kv {
        kv.assert_conserved();
    }
    let st = sys.stats_snapshot();
    CellTiming {
        ops: ops_per_thread * threads as u64,
        elapsed_ns: elapsed_ns.max(1),
        commits: st.commits,
        aborts: st.aborts(),
        sample_stats: Vec::new(),
        htm: Some(HtmCellStats::from_tm(&st)),
    }
}

fn run_native_cell<S: TmSys>(
    sys_of: impl Fn(&Arc<Native>) -> Arc<S>,
    workload: HotWorkload,
    threads: usize,
    scale: &HotScale,
) -> CellTiming {
    let platform = Native::new(threads.max(1));
    platform.register_thread_as(0);
    let sys = sys_of(&platform);
    if crate::suite::trace_requested() {
        sys.set_tracing(true);
    }
    let driver = Arc::new(OpDriver::new(&*sys, workload));
    let ops_per_thread = (scale.native_ops / threads as u64).max(1);
    // Throughput cells keep the best-timed sample (one-sided scheduler
    // noise); cm cells *sum* all samples instead — picking the fastest
    // sample also picks the least-conflicted one, which biases an
    // abort-rate metric toward zero.
    let aggregate = workload == HotWorkload::CmWriteHeavy;
    let mut pool = Vec::new();
    let mut best: Option<CellTiming> = None;
    for s in 0..scale.samples.max(1) {
        let t = native_sample_timed(
            &platform,
            &sys,
            &driver,
            threads,
            ops_per_thread,
            scale.seed.wrapping_add(s as u64),
        );
        pool.push(t.own_sample());
        best = Some(match best.take() {
            None => t,
            Some(b) if aggregate => CellTiming {
                ops: b.ops + t.ops,
                elapsed_ns: b.elapsed_ns + t.elapsed_ns,
                commits: b.commits + t.commits,
                aborts: b.aborts + t.aborts,
                sample_stats: Vec::new(),
                htm: match (b.htm, t.htm) {
                    (Some(mut x), Some(y)) => {
                        x.add(&y);
                        Some(x)
                    }
                    (x, y) => x.or(y),
                },
            },
            Some(b) => {
                if t.elapsed_ns < b.elapsed_ns {
                    t
                } else {
                    b
                }
            }
        });
    }
    let mut best = best.unwrap();
    best.sample_stats = pool;
    best
}

/// One hybrid (simulator) cell. Wall-clock is host time spent simulating
/// the measured phase — self-consistent across runs on one machine.
fn run_hybrid_cell(workload: HotWorkload, threads: usize, scale: &HotScale) -> CellTiming {
    let (machine, platform) = paper_machine(threads);
    let stm = Nzstm::new(
        Arc::clone(&platform),
        Arc::new(KarmaDeadlock::default()),
        NzConfig::default(),
    );
    let htm = BestEffortHtm::new(Arc::clone(&platform), AtmtpConfig::default());
    htm.install();
    let sys = NztmHybrid::new(stm, htm, HybridConfig::default());
    if crate::suite::trace_requested() {
        sys.set_tracing(true);
    }

    // Setup on core 0 (allocation charges the simulated cache model).
    let host = Host::Sim(machine);
    let sys2 = Arc::clone(&sys);
    let driver = Arc::new(host.serial(move || OpDriver::new(&*sys2, workload)).0);

    let ops_per_thread = (scale.sim_ops / threads as u64).max(1);
    let run_phase = |ops: u64, seed: u64| {
        let (sys, driver) = (Arc::clone(&sys), Arc::clone(&driver));
        host.parallel(move |tid| {
            let mut src = driver.source(seed, tid as u64 + 1);
            for _ in 0..ops {
                driver.step(&*sys, &mut src);
            }
        });
    };

    run_phase((ops_per_thread / 4).max(4), scale.seed ^ 0x5EED);
    sys.reset_stats();
    let t0 = Instant::now();
    run_phase(ops_per_thread, scale.seed);
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    if let Some(bank) = &driver.bank {
        bank.assert_conserved();
    }
    if let Some(kv) = &driver.kv {
        kv.assert_conserved();
    }
    let st = sys.stats_snapshot();
    sys.htm().uninstall();
    let mut t = CellTiming {
        ops: ops_per_thread * threads as u64,
        elapsed_ns: elapsed_ns.max(1),
        commits: st.commits,
        aborts: st.aborts(),
        sample_stats: Vec::new(),
        htm: Some(HtmCellStats::from_tm(&st)),
    };
    t.sample_stats = vec![t.own_sample()];
    t
}

/// Native-HTM policy for the NZTM-RTM cells: `NZTM_HTM_NATIVE=0` forces
/// the transparent software fallback (an A/B lever for the conformance
/// lane); anything else — including unset — probes the CPU (`Auto`).
#[cfg(feature = "htm-native")]
fn native_htm_policy_from_env() -> nztm_core::NativeHtmPolicy {
    match std::env::var("NZTM_HTM_NATIVE").as_deref() {
        Ok("0") => nztm_core::NativeHtmPolicy::ForceOff,
        _ => nztm_core::NativeHtmPolicy::Auto,
    }
}

/// One NZTM-RTM cell: the same hybrid engine as the simulated `HYBRID`
/// cells, but on native threads with the arch-native RTM backend. On a
/// host without RTM the cells still run (through the transparent
/// software fallback) so the report shape is host-independent; the
/// decision lands in [`HotReport::htm_native`].
#[cfg(feature = "htm-native")]
fn run_native_htm_cell(workload: HotWorkload, threads: usize, scale: &HotScale) -> CellTiming {
    use nztm_htm::native::NativeHtm;
    let policy = native_htm_policy_from_env();
    run_native_cell(
        |p| -> Arc<NztmHybrid<Native, NativeHtm>> {
            let stm = NzBuilder::new(Arc::clone(p)).native_htm(policy).build_nzstm();
            let htm = NativeHtm::new(stm.native_htm_policy());
            NztmHybrid::new(stm, htm, HybridConfig::default())
        },
        workload,
        threads,
        scale,
    )
}

fn run_cell(workload: &str, system: &str, threads: usize, scale: &HotScale) -> CellTiming {
    let w = HotWorkload::from_name(workload);
    // Abort rates need op volume to be stable; pin cm cells to full
    // size (and at least two summed samples) even under --quick — see
    // CM_OPS and the sample aggregation in run_native_cell.
    let cm_scale;
    let mut scale = if w == HotWorkload::CmWriteHeavy && scale.native_ops < CM_OPS {
        cm_scale = HotScale { native_ops: CM_OPS, samples: scale.samples.max(2), ..*scale };
        &cm_scale
    } else {
        scale
    };
    // Hybrid cells are likewise pinned: per-scale sim budgets left them
    // with op counts too small to time (see HYBRID_OPS).
    let hybrid_scale;
    if system == "HYBRID" && scale.sim_ops < HYBRID_OPS {
        hybrid_scale = HotScale { sim_ops: HYBRID_OPS, ..*scale };
        scale = &hybrid_scale;
    }
    let mut t = match system {
        "BZSTM" => run_native_cell(
            |p| -> Arc<Bzstm<Native>> { NzBuilder::new(Arc::clone(p)).build_bzstm() },
            w,
            threads,
            scale,
        ),
        "NZSTM" => run_native_cell(
            |p| -> Arc<Nzstm<Native>> { NzBuilder::new(Arc::clone(p)).build_nzstm() },
            w,
            threads,
            scale,
        ),
        // Same engine, adaptive contention manager (ISSUE 6): the only
        // delta vs the "NZSTM" cells is the CM policy, so the abort-rate
        // comparison isolates what adaptation buys.
        "NZSTM-ACM" => run_native_cell(
            |p| -> Arc<Nzstm<Native>> {
                NzBuilder::new(Arc::clone(p))
                    .adaptive_cm(AdaptiveConfig::default())
                    .build_nzstm()
            },
            w,
            threads,
            scale,
        ),
        "SCSS" => run_native_cell(
            |p| -> Arc<NzstmScss<Native>> { NzBuilder::new(Arc::clone(p)).build_scss() },
            w,
            threads,
            scale,
        ),
        "NOREC" => run_native_cell(
            |p| -> Arc<nztm_core::Norec<Native>> { NzBuilder::new(Arc::clone(p)).build_norec() },
            w,
            threads,
            scale,
        ),
        "HYBRID" => run_hybrid_cell(w, threads, scale),
        #[cfg(feature = "htm-native")]
        s if s == NATIVE_HTM_SYSTEM => run_native_htm_cell(w, threads, scale),
        other => panic!("unknown system {other:?}"),
    };
    // Only hybrid cells carry a hardware-path breakdown; pure-software
    // systems share the stats struct but their HTM counters are
    // structurally zero — suppress them instead of reporting noise.
    if !(system == "HYBRID" || system == NATIVE_HTM_SYSTEM) {
        t.htm = None;
    }
    t
}

/// Run the full matrix and assemble the report. With `scaling`, the
/// NZSTM scaling sweep (see [`SCALING_WORKLOADS`]) is appended.
pub fn run_matrix(mode: &str, scale: &HotScale, progress: bool, scaling: bool) -> HotReport {
    let calibration_mops = calibrate();
    let mut cells = Vec::new();
    let mut measure = |w: &str, s: &str, t: usize| {
        let timing = run_cell(w, s, t, scale);
        let secs = timing.elapsed_ns as f64 / 1e9;
        let ops_per_sec = timing.ops as f64 / secs;
        let norm = ops_per_sec / (calibration_mops * 1e6);
        if progress {
            eprintln!(
                "{w:<16} {s:<7} t={t}  {:>12.0} ops/s  norm={norm:.6}  \
                 commits={} aborts={}",
                ops_per_sec, timing.commits, timing.aborts
            );
        }
        let mut cell = HotCell {
            workload: w.to_string(),
            system: s.to_string(),
            threads: t,
            ops: timing.ops,
            elapsed_ns: timing.elapsed_ns,
            ops_per_sec,
            norm,
            commits: timing.commits,
            aborts: timing.aborts,
            samples: 1,
            ops_per_sec_mean: ops_per_sec,
            ops_per_sec_p95: ops_per_sec,
            abort_rate_mean: timing.aborts as f64 / timing.commits.max(1) as f64,
            sample_stats: timing.sample_stats,
            htm: timing.htm,
        };
        cell.refresh_sample_summary();
        cells.push(cell);
    };
    for &w in WORKLOADS {
        for &s in SYSTEMS {
            for &t in THREADS {
                measure(w, s, t);
            }
        }
    }
    // Native-HTM cells ride every run of an `htm-native` build — on a
    // host without RTM they exercise (and thereby prove) the
    // transparent fallback, and the report records which.
    #[cfg(feature = "htm-native")]
    {
        if progress {
            eprintln!("native HTM: {}", crate::registry::native_htm_status());
        }
        for &w in WORKLOADS {
            for &t in THREADS {
                measure(w, NATIVE_HTM_SYSTEM, t);
            }
        }
    }
    if scaling {
        for &w in SCALING_WORKLOADS {
            for &t in SCALING_THREADS {
                measure(w, SCALING_SYSTEM, t);
            }
        }
        for &t in SCALING_THREADS {
            measure(KV_WORKLOAD, SCALING_SYSTEM, t);
        }
        for &s in &[CM_BASE_SYSTEM, CM_ADAPTIVE_SYSTEM] {
            for &t in CM_THREADS {
                measure(CM_WORKLOAD, s, t);
            }
        }
    }
    HotReport {
        mode: mode.to_string(),
        calibration_mops,
        htm_native: crate::registry::native_htm_status(),
        cells,
    }
}

/// Run the matrix `repeat` times and keep each cell's best run (and the
/// best calibration rate). Best-of-N filters transient load spikes on a
/// shared machine, which single runs can't — use it when the comparison
/// tolerance is tighter than the run-to-run noise (e.g. the trace-
/// feature overhead gate).
pub fn run_matrix_best_of(
    mode: &str,
    scale: &HotScale,
    progress: bool,
    repeat: usize,
    scaling: bool,
) -> HotReport {
    let mut best = run_matrix(mode, scale, progress, scaling);
    for round in 1..repeat.max(1) {
        if progress {
            eprintln!("-- best-of round {} --", round + 1);
        }
        let next = run_matrix(mode, scale, progress, scaling);
        best.calibration_mops = best.calibration_mops.max(next.calibration_mops);
        for (b, n) in best.cells.iter_mut().zip(next.cells) {
            debug_assert_eq!((&b.workload, &b.system, b.threads), (&n.workload, &n.system, n.threads));
            // The sample pool spans rounds even though the headline
            // numbers keep only the best round's cell.
            let mut pool = std::mem::take(&mut b.sample_stats);
            let mut n = n;
            pool.append(&mut n.sample_stats);
            if n.ops_per_sec > b.ops_per_sec {
                *b = n;
            }
            b.sample_stats = pool;
            b.refresh_sample_summary();
        }
        // Normalize every kept cell against the single best calibration
        // so `norm` stays one consistent machine-speed reference.
        let cal = best.calibration_mops * 1e6;
        for b in best.cells.iter_mut() {
            b.norm = b.ops_per_sec / cal;
        }
    }
    best
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

impl HotReport {
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"bench\": \"BENCH_PR2\",").unwrap();
        // Schema 2 added the per-cell sample distribution (samples,
        // ops_per_sec_mean, ops_per_sec_p95, abort_rate_mean); schema 3
        // adds the header `htm_native` decision string and, on hybrid
        // cells only, the flat `htm_*` hardware-path breakdown. The
        // gate reads the same fields it always did, and older reports
        // still parse (missing fields default — distribution to the
        // best-of values, htm to absent).
        writeln!(out, "  \"schema\": 3,").unwrap();
        writeln!(out, "  \"mode\": \"{}\",", self.mode).unwrap();
        writeln!(out, "  \"hybrid_platform\": \"sim\",").unwrap();
        writeln!(out, "  \"calibration_mops\": {},", json_f64(self.calibration_mops)).unwrap();
        // Comma-free by construction (the flat reader stops a field at
        // the first comma) and before "cells" so it parses as a header
        // field; sanitize defensively in case a fallback reason grows
        // punctuation.
        writeln!(out, "  \"htm_native\": \"{}\",", self.htm_native.replace(',', ";")).unwrap();
        writeln!(out, "  \"cells\": [").unwrap();
        for (i, c) in self.cells.iter().enumerate() {
            write!(
                out,
                "    {{ \"workload\": \"{}\", \"system\": \"{}\", \"threads\": {}, \
                 \"ops\": {}, \"elapsed_ns\": {}, \"ops_per_sec\": {}, \"norm\": {}, \
                 \"commits\": {}, \"aborts\": {}, \"samples\": {}, \
                 \"ops_per_sec_mean\": {}, \"ops_per_sec_p95\": {}, \
                 \"abort_rate_mean\": {}",
                c.workload,
                c.system,
                c.threads,
                c.ops,
                c.elapsed_ns,
                json_f64(c.ops_per_sec),
                json_f64(c.norm),
                c.commits,
                c.aborts,
                c.samples,
                json_f64(c.ops_per_sec_mean),
                json_f64(c.ops_per_sec_p95),
                json_f64(c.abort_rate_mean)
            )
            .unwrap();
            // Hybrid cells append the hardware-path breakdown as flat
            // fields (the reader splits cells on braces, so no nesting).
            if let Some(h) = &c.htm {
                write!(
                    out,
                    ", \"htm_hw_commits\": {}, \"htm_hw_ratio\": {}, \
                     \"htm_ab_conflict\": {}, \"htm_ab_capacity\": {}, \
                     \"htm_ab_explicit\": {}, \"htm_ab_other\": {}, \"htm_fallbacks\": {}",
                    h.hw_commits,
                    json_f64(h.hw_ratio(c.commits)),
                    h.conflict_aborts,
                    h.capacity_aborts,
                    h.explicit_aborts,
                    h.other_aborts,
                    h.fallbacks
                )
                .unwrap();
            }
            write!(out, " }}").unwrap();
            writeln!(out, "{}", if i + 1 < self.cells.len() { "," } else { "" }).unwrap();
        }
        writeln!(out, "  ]").unwrap();
        write!(out, "}}").unwrap();
        out
    }

    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "==== BENCH_PR2 ({}; calibration {:.1} Mops) ====", self.mode, self.calibration_mops)
            .unwrap();
        for &w in WORKLOADS {
            writeln!(out, "\n--- {w} (ops/s) ---").unwrap();
            write!(out, "{:<8}", "system").unwrap();
            for t in THREADS {
                write!(out, "{t:>14}").unwrap();
            }
            writeln!(out).unwrap();
            for &s in SYSTEMS {
                write!(out, "{s:<8}").unwrap();
                for &t in THREADS {
                    match self.cell(w, s, t) {
                        Some(c) => write!(out, "{:>14.0}", c.ops_per_sec).unwrap(),
                        None => write!(out, "{:>14}", "-").unwrap(),
                    }
                }
                writeln!(out).unwrap();
            }
        }
        let sweep_workloads = || SCALING_WORKLOADS.iter().chain(std::iter::once(&KV_WORKLOAD));
        if self.cells.iter().any(|c| {
            SCALING_WORKLOADS.contains(&c.workload.as_str()) || c.workload == KV_WORKLOAD
        }) {
            writeln!(out, "\n--- scaling sweep, {SCALING_SYSTEM} (ops/s) ---").unwrap();
            write!(out, "{:<18}", "workload").unwrap();
            for t in SCALING_THREADS {
                write!(out, "{t:>14}").unwrap();
            }
            writeln!(out).unwrap();
            for &w in sweep_workloads() {
                write!(out, "{w:<18}").unwrap();
                for &t in SCALING_THREADS {
                    match self.cell(w, SCALING_SYSTEM, t) {
                        Some(c) => write!(out, "{:>14.0}", c.ops_per_sec).unwrap(),
                        None => write!(out, "{:>14}", "-").unwrap(),
                    }
                }
                writeln!(out).unwrap();
            }
        }
        if self.cells.iter().any(|c| c.workload == CM_WORKLOAD) {
            writeln!(out, "\n--- {CM_WORKLOAD} (aborts/commit; ops/s in parens) ---").unwrap();
            write!(out, "{:<10}", "system").unwrap();
            for t in CM_THREADS {
                write!(out, "{t:>22}").unwrap();
            }
            writeln!(out).unwrap();
            for &s in &[CM_BASE_SYSTEM, CM_ADAPTIVE_SYSTEM] {
                write!(out, "{s:<10}").unwrap();
                for &t in CM_THREADS {
                    match self.cell(CM_WORKLOAD, s, t) {
                        Some(c) => write!(
                            out,
                            "{:>22}",
                            format!("{:.4} ({:.0})", c.abort_rate(), c.ops_per_sec)
                        )
                        .unwrap(),
                        None => write!(out, "{:>22}", "-").unwrap(),
                    }
                }
                writeln!(out).unwrap();
            }
        }
        let htm_cells: Vec<&HotCell> = self.cells.iter().filter(|c| c.htm.is_some()).collect();
        if !htm_cells.is_empty() {
            writeln!(
                out,
                "\n--- HTM hardware path (hw-commit ratio; abort reasons; fallbacks) ---"
            )
            .unwrap();
            writeln!(out, "native backend: {}", self.htm_native).unwrap();
            for c in htm_cells {
                let h = c.htm.as_ref().unwrap();
                writeln!(
                    out,
                    "{:<16} {:<9} t={:<3} hw {:>5.1}%  conflict={} capacity={} explicit={} \
                     other={} fallbacks={}",
                    c.workload,
                    c.system,
                    c.threads,
                    h.hw_ratio(c.commits) * 100.0,
                    h.conflict_aborts,
                    h.capacity_aborts,
                    h.explicit_aborts,
                    h.other_aborts,
                    h.fallbacks
                )
                .unwrap();
            }
        }
        out
    }

    /// Standalone abort-reason histogram over every hybrid cell, for
    /// the `bench_pr2 run --htm-hist` artifact: one JSON object per
    /// cell plus a pooled total, same flat style as the main report.
    pub fn htm_histogram_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "{{").unwrap();
        writeln!(out, "  \"bench\": \"BENCH_PR2_HTM_HIST\",").unwrap();
        writeln!(out, "  \"schema\": 1,").unwrap();
        writeln!(out, "  \"mode\": \"{}\",", self.mode).unwrap();
        writeln!(out, "  \"htm_native\": \"{}\",", self.htm_native.replace(',', ";")).unwrap();
        let cells: Vec<&HotCell> = self.cells.iter().filter(|c| c.htm.is_some()).collect();
        let mut pooled = HtmCellStats::default();
        let mut pooled_commits = 0u64;
        writeln!(out, "  \"cells\": [").unwrap();
        for (i, c) in cells.iter().enumerate() {
            let h = c.htm.as_ref().unwrap();
            pooled.add(h);
            pooled_commits += c.commits;
            write!(
                out,
                "    {{ \"workload\": \"{}\", \"system\": \"{}\", \"threads\": {}, \
                 \"commits\": {}, \"hw_commits\": {}, \"hw_ratio\": {}, \"conflict\": {}, \
                 \"capacity\": {}, \"explicit\": {}, \"other\": {}, \"fallbacks\": {} }}",
                c.workload,
                c.system,
                c.threads,
                c.commits,
                h.hw_commits,
                json_f64(h.hw_ratio(c.commits)),
                h.conflict_aborts,
                h.capacity_aborts,
                h.explicit_aborts,
                h.other_aborts,
                h.fallbacks
            )
            .unwrap();
            writeln!(out, "{}", if i + 1 < cells.len() { "," } else { "" }).unwrap();
        }
        writeln!(out, "  ],").unwrap();
        writeln!(
            out,
            "  \"pooled\": {{ \"commits\": {}, \"hw_commits\": {}, \"hw_ratio\": {}, \
             \"conflict\": {}, \"capacity\": {}, \"explicit\": {}, \"other\": {}, \
             \"fallbacks\": {} }}",
            pooled_commits,
            pooled.hw_commits,
            json_f64(pooled.hw_ratio(pooled_commits)),
            pooled.conflict_aborts,
            pooled.capacity_aborts,
            pooled.explicit_aborts,
            pooled.other_aborts,
            pooled.fallbacks
        )
        .unwrap();
        write!(out, "}}").unwrap();
        out
    }

    pub fn cell(&self, workload: &str, system: &str, threads: usize) -> Option<&HotCell> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.system == system && c.threads == threads)
    }
}

// ---------------------------------------------------------------------
// Minimal JSON reader for the emitter's own output (the workspace has no
// serialization dependency by design). It only understands the flat
// shape `to_json` writes — which is all the gate needs.
// ---------------------------------------------------------------------

fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat)? + pat.len();
    let rest = obj[at..].trim_start();
    let end = rest
        .find([',', '}', '\n'])
        .unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn str_field(obj: &str, key: &str) -> Option<String> {
    let raw = field(obj, key)?;
    Some(raw.trim_matches('"').to_string())
}

fn f64_field(obj: &str, key: &str) -> Option<f64> {
    field(obj, key)?.parse().ok()
}

fn u64_field(obj: &str, key: &str) -> Option<u64> {
    field(obj, key)?.parse().ok()
}

pub fn parse_report(s: &str) -> Result<HotReport, String> {
    let head_end = s.find("\"cells\"").ok_or("missing cells array")?;
    let head = &s[..head_end];
    let mode = str_field(head, "mode").unwrap_or_else(|| "unknown".into());
    let calibration_mops =
        f64_field(head, "calibration_mops").ok_or("missing calibration_mops")?;
    // Pre-schema-3 reports have no decision string.
    let htm_native =
        str_field(head, "htm_native").unwrap_or_else(|| "unknown (schema < 3)".into());
    let body = &s[head_end..];
    let open = body.find('[').ok_or("missing cells [")?;
    let close = body.rfind(']').ok_or("missing cells ]")?;
    let mut cells = Vec::new();
    for obj in body[open + 1..close].split('{').skip(1) {
        let obj = obj.split('}').next().unwrap_or("");
        if obj.trim().is_empty() {
            continue;
        }
        let ops_per_sec = f64_field(obj, "ops_per_sec").ok_or("cell missing ops_per_sec")?;
        let commits = u64_field(obj, "commits").unwrap_or(0);
        let aborts = u64_field(obj, "aborts").unwrap_or(0);
        // Schema-1 back-compat: distribution fields default to the
        // best-of values (a single-sample report is its own mean).
        let cell = HotCell {
            workload: str_field(obj, "workload").ok_or("cell missing workload")?,
            system: str_field(obj, "system").ok_or("cell missing system")?,
            threads: u64_field(obj, "threads").ok_or("cell missing threads")? as usize,
            ops: u64_field(obj, "ops").ok_or("cell missing ops")?,
            elapsed_ns: u64_field(obj, "elapsed_ns").ok_or("cell missing elapsed_ns")?,
            ops_per_sec,
            norm: f64_field(obj, "norm").ok_or("cell missing norm")?,
            commits,
            aborts,
            samples: u64_field(obj, "samples").unwrap_or(1),
            ops_per_sec_mean: f64_field(obj, "ops_per_sec_mean").unwrap_or(ops_per_sec),
            ops_per_sec_p95: f64_field(obj, "ops_per_sec_p95").unwrap_or(ops_per_sec),
            abort_rate_mean: f64_field(obj, "abort_rate_mean")
                .unwrap_or(aborts as f64 / commits.max(1) as f64),
            sample_stats: Vec::new(),
            // Hybrid cells carry the flat htm_* fields; their presence
            // is keyed on hw_commits (always written together).
            htm: u64_field(obj, "htm_hw_commits").map(|hw_commits| HtmCellStats {
                hw_commits,
                conflict_aborts: u64_field(obj, "htm_ab_conflict").unwrap_or(0),
                capacity_aborts: u64_field(obj, "htm_ab_capacity").unwrap_or(0),
                explicit_aborts: u64_field(obj, "htm_ab_explicit").unwrap_or(0),
                other_aborts: u64_field(obj, "htm_ab_other").unwrap_or(0),
                fallbacks: u64_field(obj, "htm_fallbacks").unwrap_or(0),
            }),
        };
        cells.push(cell);
    }
    if cells.is_empty() {
        return Err("no cells parsed".into());
    }
    Ok(HotReport { mode, calibration_mops, htm_native, cells })
}

// ---------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------

pub struct CheckOutcome {
    pub report: String,
    /// Per-workload geometric-mean speedup of calibration-normalized
    /// throughput (current / baseline).
    pub workload_speedup: Vec<(String, f64)>,
    pub ok: bool,
}

/// Compare `current` against `baseline`: for every workload, take the
/// geometric mean over matched (system, threads) cells of the ratio of
/// calibration-normalized throughput. A workload whose geomean falls
/// below `1 - tolerance` is a regression. The geomean (rather than a
/// per-cell gate) keeps one noisy cell on a shared CI runner from
/// failing the build, while a real hot-path regression — which shows up
/// across cells — still does.
pub fn check_reports(baseline: &HotReport, current: &HotReport, tolerance: f64) -> CheckOutcome {
    check_reports_with(baseline, current, tolerance, false)
}

/// Like [`check_reports`], but with a choice of gate metric: `raw`
/// compares plain ops/s instead of calibration-normalized throughput.
/// Use raw for back-to-back A/B runs on the *same* machine (e.g. the
/// trace-feature overhead gate), where a load spike during one run's
/// calibration loop would otherwise dominate the comparison; keep the
/// normalized metric when the baseline comes from a different machine.
pub fn check_reports_with(
    baseline: &HotReport,
    current: &HotReport,
    tolerance: f64,
    raw: bool,
) -> CheckOutcome {
    use std::fmt::Write;
    let mut out = String::new();
    let mut workload_speedup = Vec::new();
    let mut ok = true;
    writeln!(
        out,
        "baseline calibration {:.1} Mops, current {:.1} Mops (gate on {} throughput)",
        baseline.calibration_mops,
        current.calibration_mops,
        if raw { "raw" } else { "normalized" }
    )
    .unwrap();
    for &w in WORKLOADS {
        let mut log_sum = 0.0f64;
        let mut n = 0u32;
        writeln!(out, "\n--- {w} ---").unwrap();
        for &s in SYSTEMS {
            for &t in THREADS {
                let (Some(b), Some(c)) = (baseline.cell(w, s, t), current.cell(w, s, t)) else {
                    continue;
                };
                let (bv, cv) =
                    if raw { (b.ops_per_sec, c.ops_per_sec) } else { (b.norm, c.norm) };
                if !(bv > 0.0 && cv > 0.0) {
                    continue;
                }
                let ratio = cv / bv;
                log_sum += ratio.ln();
                n += 1;
                writeln!(
                    out,
                    "  {s:<7} t={t}  {:>12.0} -> {:>12.0} ops/s   x{ratio:.2}",
                    b.ops_per_sec, c.ops_per_sec
                )
                .unwrap();
            }
        }
        if n == 0 {
            writeln!(out, "  (no matched cells)").unwrap();
            continue;
        }
        let geomean = (log_sum / n as f64).exp();
        let pass = geomean >= 1.0 - tolerance;
        ok &= pass;
        writeln!(
            out,
            "  geomean x{geomean:.3}  {}",
            if pass { "OK" } else { "REGRESSION (below tolerance)" }
        )
        .unwrap();
        workload_speedup.push((w.to_string(), geomean));
    }
    // Scaling sweep: the ≤64-thread read-mostly cells ride the same
    // gate — they run in the flat reader-indicator mode, whose traffic
    // is bit-identical to the pre-striping bitmap, so a regression here
    // means the striping refactor leaked cost into the common case.
    // Cells past SCALING_GATE_MAX_THREADS and the mixed sweep are
    // reported for trend-watching only. An old baseline without scaling
    // cells simply has no matched cells and gates nothing. The sharded
    // KV sweep (PR 8) rides the same gate at the same thread cutoff —
    // its hot path is the tds hash map through the full engine, so a
    // regression there is a real ADT-path regression even when the word
    // workloads hold steady.
    for &w in SCALING_WORKLOADS.iter().chain(std::iter::once(&KV_WORKLOAD)) {
        let gated = w == "scale-read-mostly" || w == KV_WORKLOAD;
        let mut log_sum = 0.0f64;
        let mut n = 0u32;
        let mut any = false;
        for &t in SCALING_THREADS {
            let (Some(b), Some(c)) =
                (baseline.cell(w, SCALING_SYSTEM, t), current.cell(w, SCALING_SYSTEM, t))
            else {
                continue;
            };
            let (bv, cv) = if raw { (b.ops_per_sec, c.ops_per_sec) } else { (b.norm, c.norm) };
            if !(bv > 0.0 && cv > 0.0) {
                continue;
            }
            if !any {
                writeln!(out, "\n--- {w} ---").unwrap();
                any = true;
            }
            let ratio = cv / bv;
            let in_gate = gated && t <= SCALING_GATE_MAX_THREADS;
            if in_gate {
                log_sum += ratio.ln();
                n += 1;
            }
            writeln!(
                out,
                "  {SCALING_SYSTEM:<7} t={t:<3}  {:>12.0} -> {:>12.0} ops/s   x{ratio:.2}{}",
                b.ops_per_sec,
                c.ops_per_sec,
                if in_gate { "" } else { "   (not gated)" }
            )
            .unwrap();
        }
        if n == 0 {
            continue;
        }
        let geomean = (log_sum / n as f64).exp();
        let pass = geomean >= 1.0 - tolerance;
        ok &= pass;
        writeln!(
            out,
            "  geomean x{geomean:.3} (t<={SCALING_GATE_MAX_THREADS})  {}",
            if pass { "OK" } else { "REGRESSION (below tolerance)" }
        )
        .unwrap();
        workload_speedup.push((w.to_string(), geomean));
    }
    // Contention-management sweep: gated on abort rate *within the
    // current report* — NZSTM-ACM (adaptive CM) vs NZSTM (static Karma)
    // measured back-to-back in the same run, so host speed, load, and
    // oversubscription noise cancel out of the comparison. The adaptive
    // policy exists to cut the abort storm, so it fails the gate if its
    // abort rate exceeds the Karma baseline's by more than
    // CM_ABORT_RATE_SLACK (relative) + CM_ABORT_RATE_EPSILON (absolute,
    // for burst noise against a zero baseline — see the constants).
    // Abort and commit counts are pooled across the
    // CM_GATE_THREADS cells before comparing — one pooled verdict, not
    // per-cell verdicts, so a single unlucky schedule cannot fail the
    // build. Wall-clock at these thread counts is never gated, and a
    // report without cm cells (a run without --scaling) gates nothing.
    {
        let mut any = false;
        let (mut gk, mut ga) = ((0u64, 0u64), (0u64, 0u64)); // (aborts, commits)
        for &t in CM_THREADS {
            let (Some(k), Some(a)) = (
                current.cell(CM_WORKLOAD, CM_BASE_SYSTEM, t),
                current.cell(CM_WORKLOAD, CM_ADAPTIVE_SYSTEM, t),
            ) else {
                continue;
            };
            if !any {
                writeln!(out, "\n--- {CM_WORKLOAD} (abort rate, current run) ---").unwrap();
                any = true;
            }
            let in_gate = CM_GATE_THREADS.contains(&t);
            if in_gate {
                gk = (gk.0 + k.aborts, gk.1 + k.commits);
                ga = (ga.0 + a.aborts, ga.1 + a.commits);
            }
            writeln!(
                out,
                "  t={t:<3}  karma {:.4} -> adaptive {:.4} aborts/commit{}",
                k.abort_rate(),
                a.abort_rate(),
                if in_gate { "" } else { "   (not gated)" }
            )
            .unwrap();
        }
        if ga.1 > 0 {
            let kr = gk.0 as f64 / gk.1.max(1) as f64;
            let ar = ga.0 as f64 / ga.1.max(1) as f64;
            let pass = ar <= kr * (1.0 + CM_ABORT_RATE_SLACK) + CM_ABORT_RATE_EPSILON;
            ok &= pass;
            writeln!(
                out,
                "  pooled (t in {CM_GATE_THREADS:?})  karma {kr:.4} -> adaptive {ar:.4}   {}",
                if pass { "OK" } else { "REGRESSION (adaptive aborts more than karma)" }
            )
            .unwrap();
        }
    }
    CheckOutcome { report: out, workload_speedup, ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_cell(w: &str, s: &str, t: usize, ops_per_sec: f64, aborts: u64) -> HotCell {
        let mut c = HotCell {
            workload: w.into(),
            system: s.into(),
            threads: t,
            ops: 1000,
            elapsed_ns: 1_000_000,
            ops_per_sec,
            norm: ops_per_sec / 100e6,
            commits: 1000,
            aborts,
            samples: 1,
            ops_per_sec_mean: ops_per_sec,
            ops_per_sec_p95: ops_per_sec,
            abort_rate_mean: aborts as f64 / 1000.0,
            sample_stats: vec![(ops_per_sec, aborts as f64 / 1000.0)],
            htm: None,
        };
        c.refresh_sample_summary();
        c
    }

    fn demo_report(scale: f64) -> HotReport {
        let mut cells = Vec::new();
        for &w in WORKLOADS {
            for &s in SYSTEMS {
                for &t in THREADS {
                    cells.push(demo_cell(w, s, t, 1e6 * scale * (t as f64), 7));
                }
            }
        }
        HotReport {
            mode: "test".into(),
            calibration_mops: 100.0,
            htm_native: "test fixture".into(),
            cells,
        }
    }

    #[test]
    fn json_round_trips() {
        let r = demo_report(1.0);
        let parsed = parse_report(&r.to_json()).unwrap();
        assert_eq!(parsed.cells.len(), r.cells.len());
        assert_eq!(parsed.calibration_mops, r.calibration_mops);
        let a = parsed.cell("transfer", "SCSS", 4).unwrap();
        let b = r.cell("transfer", "SCSS", 4).unwrap();
        assert_eq!(a.ops, b.ops);
        assert!((a.norm - b.norm).abs() < 1e-12);
        assert_eq!(a.commits, 1000);
        // Schema-2 sample-distribution fields survive the round trip.
        assert_eq!(a.samples, b.samples);
        assert!((a.ops_per_sec_mean - b.ops_per_sec_mean).abs() < 1e-9);
        assert!((a.ops_per_sec_p95 - b.ops_per_sec_p95).abs() < 1e-9);
        assert!((a.abort_rate_mean - b.abort_rate_mean).abs() < 1e-12);
        assert!(r.to_json().contains("\"schema\": 3"));
        assert_eq!(parsed.htm_native, r.htm_native);
    }

    #[test]
    fn htm_breakdown_round_trips_and_renders() {
        let mut r = demo_report(1.0);
        let h = HtmCellStats {
            hw_commits: 900,
            conflict_aborts: 40,
            capacity_aborts: 3,
            explicit_aborts: 7,
            other_aborts: 2,
            fallbacks: 100,
        };
        // Attach the breakdown to every HYBRID cell, the way a real run
        // does; software cells stay bare.
        for c in r.cells.iter_mut().filter(|c| c.system == "HYBRID") {
            c.htm = Some(h);
        }
        let parsed = parse_report(&r.to_json()).unwrap();
        let c = parsed.cell("transfer", "HYBRID", 4).unwrap();
        assert_eq!(c.htm, Some(h));
        assert!((c.htm.unwrap().hw_ratio(c.commits) - 0.9).abs() < 1e-12);
        assert_eq!(parsed.cell("transfer", "NZSTM", 4).unwrap().htm, None);
        // The flat reader requires one-line cells: no nested objects.
        for line in r.to_json().lines().filter(|l| l.contains("\"workload\"")) {
            assert_eq!(line.matches('{').count(), 1, "{line}");
            assert_eq!(line.matches('}').count(), 1, "{line}");
        }
        let text = r.render_text();
        assert!(text.contains("HTM hardware path"), "{text}");
        assert!(text.contains("explicit=7"), "{text}");
        // Histogram artifact: per-cell rows plus a pooled total.
        let hist = r.htm_histogram_json();
        assert!(hist.contains("BENCH_PR2_HTM_HIST"), "{hist}");
        assert!(hist.contains("\"pooled\""), "{hist}");
        let n_hybrid = r.cells.iter().filter(|c| c.htm.is_some()).count();
        assert_eq!(hist.matches("\"workload\"").count(), n_hybrid);
        assert!(hist.contains(&format!("\"hw_commits\": {}", 900 * n_hybrid as u64)), "{hist}");
    }

    #[test]
    fn reports_without_htm_fields_parse_as_software_only() {
        // A pre-schema-3 report (no htm_native header, no htm_* cell
        // fields) parses with the breakdown absent, not zeroed.
        let r = demo_report(1.0);
        let mut json = r.to_json();
        json = json.lines().filter(|l| !l.contains("htm_native")).collect::<Vec<_>>().join("\n");
        let parsed = parse_report(&json).unwrap();
        assert!(parsed.htm_native.contains("schema < 3"));
        assert!(parsed.cells.iter().all(|c| c.htm.is_none()));
    }

    #[test]
    fn schema1_reports_parse_with_bestof_defaults() {
        // A committed schema-1 baseline has no distribution fields; they
        // default to the best-of values so mixed-schema gating works.
        let legacy = r#"{
  "bench": "BENCH_PR2",
  "schema": 1,
  "mode": "full",
  "calibration_mops": 100.0,
  "cells": [
    { "workload": "read-heavy", "system": "NZSTM", "threads": 8, "ops": 1000, "elapsed_ns": 1000000, "ops_per_sec": 500000, "norm": 0.005, "commits": 900, "aborts": 9 }
  ]
}"#;
        let r = parse_report(legacy).unwrap();
        let c = r.cell("read-heavy", "NZSTM", 8).unwrap();
        assert_eq!(c.samples, 1);
        assert_eq!(c.ops_per_sec_mean, c.ops_per_sec);
        assert_eq!(c.ops_per_sec_p95, c.ops_per_sec);
        assert!((c.abort_rate_mean - 0.01).abs() < 1e-12);
    }

    #[test]
    fn sample_summary_is_unbiased_by_best_of() {
        // Three samples: the best-of fields keep the fastest, but the
        // distribution fields see all three — including the abort rate
        // of the slow, conflicted samples best-of discards.
        let mut c = demo_cell("read-heavy", "NZSTM", 8, 9e5, 0);
        c.sample_stats = vec![(9e5, 0.0), (5e5, 0.3), (4e5, 0.6)];
        c.refresh_sample_summary();
        assert_eq!(c.samples, 3);
        assert!((c.ops_per_sec_mean - 6e5).abs() < 1.0);
        assert!((c.abort_rate_mean - 0.3).abs() < 1e-12);
        assert_eq!(c.ops_per_sec_p95, 9e5, "nearest-rank p95 of 3 is the max");
        // Best-of headline is untouched.
        assert_eq!(c.ops_per_sec, 9e5);
    }

    #[test]
    fn check_passes_identical_and_fails_regression() {
        let base = demo_report(1.0);
        let same = check_reports(&base, &demo_report(1.0), 0.15);
        assert!(same.ok, "{}", same.report);
        let slow = check_reports(&base, &demo_report(0.5), 0.15);
        assert!(!slow.ok, "a 2x slowdown must trip the gate");
        let fast = check_reports(&base, &demo_report(2.0), 0.15);
        assert!(fast.ok);
        assert!(fast.workload_speedup.iter().all(|(_, g)| (*g - 2.0).abs() < 1e-9));
    }

    #[test]
    fn check_normalizes_by_calibration() {
        // Same norm values, different absolute ops/s: a uniformly slower
        // machine (half calibration, half throughput) must pass.
        let base = demo_report(1.0);
        let mut cur = demo_report(0.5);
        cur.calibration_mops = 50.0;
        for c in &mut cur.cells {
            c.norm = c.ops_per_sec / 50e6;
        }
        let out = check_reports(&base, &cur, 0.15);
        assert!(out.ok, "{}", out.report);
    }

    fn demo_scaling_cells(scale: f64) -> Vec<HotCell> {
        let mut cells = Vec::new();
        for &w in SCALING_WORKLOADS {
            for &t in SCALING_THREADS {
                let ops_per_sec = 1e6 * scale * (t as f64).min(8.0);
                cells.push(demo_cell(w, SCALING_SYSTEM, t, ops_per_sec, 3));
            }
        }
        cells
    }

    #[test]
    fn scaling_gate_covers_read_mostly_up_to_64_threads() {
        let mut base = demo_report(1.0);
        base.cells.extend(demo_scaling_cells(1.0));
        // A slowdown confined to the ungated cells (128 threads, or the
        // mixed sweep) must pass.
        let mut cur = demo_report(1.0);
        cur.cells.extend(demo_scaling_cells(1.0).into_iter().map(|mut c| {
            if c.threads > SCALING_GATE_MAX_THREADS || c.workload == "scale-mixed" {
                c.ops_per_sec *= 0.4;
                c.norm *= 0.4;
            }
            c
        }));
        let out = check_reports(&base, &cur, 0.15);
        assert!(out.ok, "{}", out.report);
        // A slowdown in the gated scale-read-mostly cells must fail.
        let mut cur2 = demo_report(1.0);
        cur2.cells.extend(demo_scaling_cells(0.5));
        let out2 = check_reports(&base, &cur2, 0.15);
        assert!(!out2.ok, "{}", out2.report);
        assert!(out2.report.contains("scale-read-mostly"));
        // A baseline from before the sweep existed has no matched
        // scaling cells and gates nothing there.
        let old = demo_report(1.0);
        let out3 = check_reports(&old, &cur2, 0.15);
        assert!(out3.ok, "{}", out3.report);
    }

    fn demo_kv_cells(scale: f64) -> Vec<HotCell> {
        SCALING_THREADS
            .iter()
            .map(|&t| {
                demo_cell(KV_WORKLOAD, SCALING_SYSTEM, t, 1e6 * scale * (t as f64).min(8.0), 3)
            })
            .collect()
    }

    #[test]
    fn kv_sweep_rides_the_scaling_gate_below_the_thread_cutoff() {
        let mut base = demo_report(1.0);
        base.cells.extend(demo_kv_cells(1.0));
        // A slowdown confined to the oversubscribed 128-thread cell is
        // reported but not gated.
        let mut cur = demo_report(1.0);
        cur.cells.extend(demo_kv_cells(1.0).into_iter().map(|mut c| {
            if c.threads > SCALING_GATE_MAX_THREADS {
                c.ops_per_sec *= 0.4;
                c.norm *= 0.4;
            }
            c
        }));
        let out = check_reports(&base, &cur, 0.15);
        assert!(out.ok, "{}", out.report);
        // An across-the-board KV slowdown fails even with every word
        // workload unchanged: the ADT path is gated in its own right.
        let mut cur2 = demo_report(1.0);
        cur2.cells.extend(demo_kv_cells(0.5));
        let out2 = check_reports(&base, &cur2, 0.15);
        assert!(!out2.ok, "{}", out2.report);
        assert!(out2.report.contains(KV_WORKLOAD));
    }

    fn demo_cm_cells(karma_aborts: u64, adaptive_aborts: u64) -> Vec<HotCell> {
        let mut cells = Vec::new();
        for &(s, aborts) in
            &[(CM_BASE_SYSTEM, karma_aborts), (CM_ADAPTIVE_SYSTEM, adaptive_aborts)]
        {
            for &t in CM_THREADS {
                cells.push(demo_cell(CM_WORKLOAD, s, t, 1e6, aborts));
            }
        }
        cells
    }

    #[test]
    fn cm_gate_compares_adaptive_to_karma_within_the_current_run() {
        let base = demo_report(1.0);
        // Adaptive cutting the abort rate passes.
        let mut cur = demo_report(1.0);
        cur.cells.extend(demo_cm_cells(400, 150));
        let out = check_reports(&base, &cur, 0.15);
        assert!(out.ok, "{}", out.report);
        assert!(out.report.contains(CM_WORKLOAD));
        // Adaptive aborting materially more than Karma fails, even
        // though every throughput cell is unchanged — and it fails
        // against a baseline with no cm cells at all, because the gate
        // is intra-run.
        let mut cur2 = demo_report(1.0);
        cur2.cells.extend(demo_cm_cells(150, 400));
        let out2 = check_reports(&base, &cur2, 0.15);
        assert!(!out2.ok, "{}", out2.report);
        assert!(out2.report.contains("adaptive aborts more than karma"));
        // A report without cm cells (run without --scaling) gates
        // nothing here.
        let out3 = check_reports(&base, &demo_report(1.0), 0.15);
        assert!(out3.ok, "{}", out3.report);
        assert!(!out3.report.contains(CM_WORKLOAD));
    }

    #[test]
    fn cm_gate_skips_the_ungated_68_thread_cell() {
        // A regression confined to the 68-thread cell (trend-watching
        // only) must pass; the same regression at a gated count fails.
        let base = demo_report(1.0);
        let bump = |cells: Vec<HotCell>, at: usize| {
            cells
                .into_iter()
                .map(|mut c| {
                    if c.system == CM_ADAPTIVE_SYSTEM && c.threads == at {
                        c.aborts = 900;
                    }
                    c
                })
                .collect::<Vec<_>>()
        };
        let mut cur = demo_report(1.0);
        cur.cells.extend(bump(demo_cm_cells(200, 100), 68));
        assert!(check_reports(&base, &cur, 0.15).ok);
        let mut cur2 = demo_report(1.0);
        cur2.cells.extend(bump(demo_cm_cells(200, 100), 96));
        assert!(!check_reports(&base, &cur2, 0.15).ok);
    }

    #[test]
    fn cm_cells_round_trip_and_render() {
        let mut r = demo_report(1.0);
        r.cells.extend(demo_cm_cells(300, 120));
        let parsed = parse_report(&r.to_json()).unwrap();
        let c = parsed.cell(CM_WORKLOAD, CM_ADAPTIVE_SYSTEM, 96).unwrap();
        assert_eq!(c.aborts, 120);
        assert!((c.abort_rate() - 0.12).abs() < 1e-12);
        let text = r.render_text();
        assert!(text.contains(CM_WORKLOAD), "{text}");
        assert!(text.contains(CM_ADAPTIVE_SYSTEM), "{text}");
    }

    #[test]
    fn quick_matrix_smoke_single_cell() {
        // One tiny native cell end-to-end (not the full matrix — that is
        // the bench binary's job, not a unit test's).
        let scale = HotScale { native_ops: 64, sim_ops: 8, samples: 1, seed: 1 };
        let t = run_cell("transfer", "NZSTM", 1, &scale);
        assert!(t.commits >= t.ops, "every op commits at least once");
    }
}
