//! The NZTM hybrid on the simulated paper machine.
//!
//! A replay builds a fresh two-core [`Machine`], an NZSTM-backed
//! [`NztmHybrid`] over ATMTP-style best-effort HTM and a fresh store,
//! then runs the first `ops` operations of each worker stream on the
//! simulated cores. Everything it reports except `host_ns` is simulated
//! and must repeat exactly for the same seed.

use crate::native::stats_delta;
use crate::traffic::{KvSizing, Store, Streams, Traffic, THREADS};
use nztm_core::{NzBuilder, TmStats, TmSys};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, NztmHybrid};
use nztm_sim::sync::Mutex;
use nztm_sim::{Machine, MachineConfig, RunReport, SimPlatform};
use std::sync::Arc;
use std::time::Instant;

/// A built, not yet run, simulated system.
pub struct SimSystem {
    machine: Arc<Machine>,
    htm: Arc<BestEffortHtm>,
    sys: Arc<NztmHybrid>,
    store: Arc<Store<NztmHybrid>>,
    /// The setup run's report (cache and yield counters are cumulative).
    setup: RunReport,
}

/// The simulated outcome of one replay; equal across replays of one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    pub commits: u64,
    pub makespan: u64,
    /// Per-transaction latency in simulated cycles, `Machine::now()`
    /// around `execute`.
    pub p50_cycles: u64,
    pub p99_cycles: u64,
    pub stats: TmStats,
    pub yields: u64,
    pub l1_hits: u64,
    pub accesses: u64,
    pub remote_transfers: u64,
}

pub struct Replay {
    pub sim: SimResult,
    /// Host time spent simulating the replay.
    pub host_ns: u64,
    pub check: Result<(), String>,
}

impl SimSystem {
    pub fn build(traffic: Traffic, sizing: Option<KvSizing>) -> SimSystem {
        let machine = Machine::new(MachineConfig::paper(THREADS));
        let platform = SimPlatform::new(Arc::clone(&machine));
        let stm = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
        let htm = BestEffortHtm::new(platform, AtmtpConfig::default());
        htm.install();
        let sys = NztmHybrid::new(stm, Arc::clone(&htm), HybridConfig::default());
        // Allocation charges the cache model, so the store is built on
        // simulated core 0.
        let slot: Arc<Mutex<Option<Store<NztmHybrid>>>> = Arc::new(Mutex::new(None));
        let mut bodies: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        {
            let (slot, sys) = (Arc::clone(&slot), Arc::clone(&sys));
            bodies.push(Box::new(move || {
                *slot.lock() = Some(Store::build(&*sys, traffic, sizing))
            }));
        }
        bodies.extend((1..THREADS).map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>));
        let setup = machine.run(bodies);
        let store = Arc::new(slot.lock().take().expect("setup run built the store"));
        SimSystem {
            machine,
            htm,
            sys,
            store,
            setup,
        }
    }

    /// Run `ops` operations of each stream, one simulated core per stream.
    pub fn replay(self, streams: &Streams, ops: usize) -> Replay {
        let before = self.sys.stats_snapshot();
        let lats: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let bodies: Vec<Box<dyn FnOnce() + Send>> = streams
            .iter()
            .map(|stream| {
                let (stream, lats) = (Arc::clone(stream), Arc::clone(&lats));
                let (machine, sys, store) = (
                    Arc::clone(&self.machine),
                    Arc::clone(&self.sys),
                    Arc::clone(&self.store),
                );
                Box::new(move || {
                    let mut mine = Vec::with_capacity(ops);
                    for op in &stream[..ops] {
                        let t0 = machine.now();
                        store.apply::<false>(&*sys, op);
                        mine.push(machine.now() - t0);
                    }
                    lats.lock().extend(mine);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let t0 = Instant::now();
        let report = self.machine.run(bodies);
        let host_ns = t0.elapsed().as_nanos() as u64;
        self.htm.uninstall();

        let stats = stats_delta(&self.sys.stats_snapshot(), &before);
        let mut lats = std::mem::take(&mut *lats.lock());
        lats.sort_unstable();
        let rank =
            |q: f64| lats[((q * lats.len() as f64).ceil() as usize).clamp(1, lats.len()) - 1];
        let cache = |f: fn(&nztm_sim::cache::CacheStats) -> u64, r: &RunReport| -> u64 {
            r.cache.iter().map(f).sum()
        };
        let delta =
            |f: fn(&nztm_sim::cache::CacheStats) -> u64| cache(f, &report) - cache(f, &self.setup);
        let l1_hits = delta(|c| c.l1_hits);
        let sim = SimResult {
            commits: stats.commits,
            makespan: report.makespan,
            p50_cycles: rank(0.50),
            p99_cycles: rank(0.99),
            stats,
            yields: report.yields - self.setup.yields,
            l1_hits,
            accesses: l1_hits + delta(|c| c.l2_hits) + delta(|c| c.mem_accesses),
            remote_transfers: delta(|c| c.remote_transfers),
        };
        let expected = (ops * streams.len()) as u64;
        let check = if sim.commits != expected {
            Err(format!(
                "hybrid committed {} of {expected} transactions",
                sim.commits
            ))
        } else {
            self.store.check(sim.commits)
        };
        Replay {
            sim,
            host_ns,
            check,
        }
    }
}
