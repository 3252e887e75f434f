//! Benchmark drivers: run a workload across the cores of a [`Host`] —
//! native threads (wall-clock, Figure 4) or simulated cores (cycles,
//! Figure 3). Each workload has one driver for both platforms.
//!
//! Protocol, as in §4.3: initialize the data structure first, then begin
//! taking measurements; each thread executes a fixed number of
//! operations; the figure of merit is completed transactions per unit
//! time (normalized later by the harness).

use crate::hashtable::HashTableSet;
use crate::linkedlist::LinkedListSet;
use crate::redblack::RedBlackSet;
use crate::set::{populate, Contention, SetOp, TmSet};
use crate::Host;
use nztm_core::{ObjectHeat, TmStats, TmSys};
use nztm_sim::DetRng;
use std::sync::Arc;

/// Which microbenchmark structure to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetKind {
    LinkedList,
    RedBlack,
    HashTable,
}

impl SetKind {
    pub fn name(self) -> &'static str {
        match self {
            SetKind::LinkedList => "linkedlist",
            SetKind::RedBlack => "redblack",
            SetKind::HashTable => "hashtable",
        }
    }
}

/// Configuration of one microbenchmark run.
#[derive(Clone, Debug)]
pub struct SetBenchConfig {
    pub kind: SetKind,
    pub contention: Contention,
    pub threads: usize,
    pub ops_per_thread: u64,
    pub seed: u64,
}

impl SetBenchConfig {
    /// Pool capacity covering initial population plus the worst-case
    /// allocation rate (every attempt of every insert allocates).
    fn pool_capacity(&self) -> usize {
        (crate::set::KEY_RANGE as usize)
            + (self.threads * self.ops_per_thread as usize * 2)
            + 1024
    }
}

/// Result of one benchmark run.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Committed top-level operations.
    pub ops: u64,
    /// Elapsed time: nanoseconds (native) or simulated cycles (sim).
    pub elapsed: u64,
    /// Merged TM statistics over the measured phase.
    pub stats: TmStats,
    /// The hottest objects by contention (empty unless the system was
    /// built with the `trace` feature and tracing armed before the run).
    pub hotspots: Vec<ObjectHeat>,
}

/// Hotspots retained per run report.
pub const MAX_HOTSPOTS: usize = 8;

/// Close a run: merged statistics plus the flight recorder (quiescent
/// at the end of a measured phase) drained into a per-object contention
/// ranking.
fn finish<S: TmSys>(sys: &S, ops: u64, elapsed: u64) -> BenchResult {
    let stats = sys.stats_snapshot();
    BenchResult { ops, elapsed, stats, hotspots: sys.take_trace().hottest_objects(MAX_HOTSPOTS) }
}

impl BenchResult {
    /// Operations per unit time (ns⁻¹ or cycle⁻¹); the harness scales it.
    pub fn throughput(&self) -> f64 {
        if self.elapsed == 0 {
            0.0
        } else {
            self.ops as f64 / self.elapsed as f64
        }
    }
}

fn build_set<S: TmSys>(sys: &S, cfg: &SetBenchConfig) -> Arc<dyn TmSet<S>> {
    let cap = cfg.pool_capacity();
    match cfg.kind {
        SetKind::LinkedList => Arc::new(LinkedListSet::new(sys, cap)),
        SetKind::RedBlack => Arc::new(RedBlackSet::new(sys, cap)),
        SetKind::HashTable => Arc::new(HashTableSet::new(sys, cap)),
    }
}

/// One thread's share of the measured phase.
fn thread_phase<S: TmSys>(set: &dyn TmSet<S>, sys: &S, cfg: &SetBenchConfig, tid: usize) {
    let mut rng = DetRng::new(cfg.seed).split(tid as u64 + 1);
    for _ in 0..cfg.ops_per_thread {
        let op = SetOp::draw(&mut rng, cfg.contention);
        set.apply(sys, op);
    }
}

/// Run a set microbenchmark: core 0 populates the set (unmeasured), then
/// every core runs its share of the operation mix (measured).
/// `cfg.threads` must equal the host's core count.
pub fn run_set<S: TmSys>(host: &Host, sys: &Arc<S>, cfg: &SetBenchConfig) -> BenchResult {
    assert_eq!(host.threads(), cfg.threads, "host cores must equal cfg.threads");
    let set = build_set(&**sys, cfg);
    let (set2, sys2, seed) = (Arc::clone(&set), Arc::clone(sys), cfg.seed ^ 0x9E37);
    host.serial(move || populate(&*set2, &*sys2, seed));
    sys.reset_stats();

    let (sys2, cfg2) = (Arc::clone(sys), cfg.clone());
    let elapsed = host.parallel(move |tid| thread_phase(&*set, &*sys2, &cfg2, tid));
    finish(&**sys, cfg.threads as u64 * cfg.ops_per_thread, elapsed)
}

// ---------------------------------------------------------------------------
// STAMP drivers
// ---------------------------------------------------------------------------

use crate::stamp::genome::{Genome, GenomeConfig};
use crate::stamp::kmeans::{Kmeans, KmeansConfig};
use crate::stamp::vacation::{Vacation, VacationConfig};

/// Run kmeans: per iteration, one parallel assignment phase (all cores)
/// and one serial recompute phase (core 0); the reported elapsed time is
/// the summed phase time, as the paper measures whole-benchmark
/// completion.
pub fn run_kmeans<S: TmSys>(host: &Host, sys: &Arc<S>, cfg: KmeansConfig) -> BenchResult {
    let threads = host.threads();
    let km = Arc::new(Kmeans::new(&**sys, cfg.clone()));
    sys.reset_stats();
    let points = cfg.points as u64;
    let mut elapsed = 0;
    for _ in 0..cfg.iterations {
        let (km2, sys2, h) = (Arc::clone(&km), Arc::clone(sys), host.clone());
        elapsed += host.parallel(move |tid| km2.assign_phase(&*sys2, tid, threads, |c| h.work(c)));
        let (km2, sys2) = (Arc::clone(&km), Arc::clone(sys));
        elapsed += host
            .serial(move || {
                assert_eq!(km2.recompute_centers(&*sys2), points, "points conserved");
            })
            .1;
    }
    finish(&**sys, points * cfg.iterations as u64, elapsed)
}

/// Run genome: parallel dedup, serial entry build (host side, untimed —
/// STAMP builds its phase-2 table between phases), parallel linking,
/// serial verification (untimed).
pub fn run_genome<S: TmSys>(host: &Host, sys: &Arc<S>, cfg: GenomeConfig) -> BenchResult {
    let threads = host.threads();
    let ga = Arc::new(Genome::new(&**sys, cfg));
    sys.reset_stats();

    let (g2, sys2) = (Arc::clone(&ga), Arc::clone(sys));
    let mut elapsed = host.parallel(move |tid| {
        g2.dedup_phase(&*sys2, tid, threads);
    });
    let mut g = Arc::try_unwrap(ga).unwrap_or_else(|_| panic!("phase-1 bodies done"));
    assert_eq!(g.dedup.elements(&**sys).len(), g.expected_unique());
    g.build_entries(&**sys);
    let n_entries = g.entries.len() as u64;

    let ga = Arc::new(g);
    let (g2, sys2) = (Arc::clone(&ga), Arc::clone(sys));
    elapsed += host.parallel(move |tid| {
        g2.link_phase(&*sys2, tid, threads);
    });
    ga.reconstruct(&**sys); // asserts acyclic chains
    finish(&**sys, ga.segments.len() as u64 + n_entries, elapsed)
}

/// Run vacation: core 0 builds the database (unmeasured; setup runs
/// transactions, so on the simulator it must execute on a simulated
/// core), then `txns_per_thread` client transactions per core, then a
/// conservation check.
pub fn run_vacation<S: TmSys>(
    host: &Host,
    sys: &Arc<S>,
    cfg: VacationConfig,
    txns_per_thread: u64,
) -> BenchResult {
    let threads = host.threads();
    let (sys2, seed) = (Arc::clone(sys), cfg.seed);
    let v = Arc::new(host.serial(move || Vacation::new(&*sys2, cfg)).0);
    sys.reset_stats();

    let (v2, sys2) = (Arc::clone(&v), Arc::clone(sys));
    let elapsed = host.parallel(move |tid| {
        let mut rng = DetRng::new(seed ^ 0xBEEF).split(tid as u64);
        for _ in 0..txns_per_thread {
            v2.one_transaction(&*sys2, &mut rng);
        }
    });
    v.check_conservation(&**sys);
    finish(&**sys, threads as u64 * txns_per_thread, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_core::cm::KarmaDeadlock;
    use nztm_core::{NzConfig, Nzstm};
    use nztm_sim::{CacheConfig, CostModel, Machine, MachineConfig, Native, SimPlatform};

    fn sim(cores: usize) -> (Host, Arc<SimPlatform>) {
        let m = Machine::new(MachineConfig {
            n_cores: cores,
            hw_cores: 0,
            costs: CostModel::default(),
            l1: CacheConfig::tiny(2048, 4),
            l2: CacheConfig::tiny(16384, 8),
            max_cycles: 4_000_000_000,
        });
        let p = SimPlatform::new(Arc::clone(&m));
        (Host::Sim(m), p)
    }

    #[test]
    fn native_hashtable_benchmark_runs() {
        let p = Native::new(2);
        let s = nztm_core::NzBuilder::new(Arc::clone(&p)).build_nzstm();
        let cfg = SetBenchConfig {
            kind: SetKind::HashTable,
            contention: Contention::Low,
            threads: 2,
            ops_per_thread: 300,
            seed: 11,
        };
        let r = run_set(&Host::Native(p), &s, &cfg);
        assert_eq!(r.ops, 600);
        assert!(r.stats.commits >= 600, "each op commits at least one txn");
        assert!(r.elapsed > 0);
    }

    #[test]
    fn sim_linkedlist_benchmark_is_deterministic() {
        let run = || {
            let (m, p) = sim(3);
            let s = Nzstm::new(
                Arc::clone(&p),
                Arc::new(KarmaDeadlock::default()),
                NzConfig::default(),
            );
            let cfg = SetBenchConfig {
                kind: SetKind::LinkedList,
                contention: Contention::High,
                threads: 3,
                ops_per_thread: 40,
                seed: 5,
            };
            let r = run_set(&m, &s, &cfg);
            (r.ops, r.elapsed, r.stats.commits, r.stats.aborts())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "simulated benchmark must be deterministic");
        assert_eq!(a.0, 120);
    }

    #[test]
    fn sim_redblack_benchmark_runs() {
        let (m, p) = sim(2);
        let s = Nzstm::new(
            Arc::clone(&p),
            Arc::new(KarmaDeadlock::default()),
            NzConfig::default(),
        );
        let cfg = SetBenchConfig {
            kind: SetKind::RedBlack,
            contention: Contention::Low,
            threads: 2,
            ops_per_thread: 50,
            seed: 3,
        };
        let r = run_set(&m, &s, &cfg);
        assert_eq!(r.ops, 100);
        assert!(r.elapsed > 0);
        assert!(r.throughput() > 0.0);
    }
}
