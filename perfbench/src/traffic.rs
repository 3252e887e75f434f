//! Workload inputs and the structures they drive.
//!
//! Every worker's operation stream is generated from the seed before
//! anything is timed. A [`Store`] is the shared structure one engine
//! runs the streams against; [`Store::apply`] runs one operation as one
//! transaction, and [`Store::check`] verifies the structure's invariant
//! while the workers are stopped.

use crate::ledger;
use nztm_core::TmSys;
use nztm_dstm::GlobalLockTm;
use nztm_sim::{DetRng, Native};
use nztm_workloads::kv::{KvOp, KvTraceCfg, KvTraceGen, ShardedKv};
use std::collections::HashSet;
use std::hint::black_box;
use std::sync::Arc;

/// Closed-loop worker threads per native engine (the host has two
/// cores; the simulated machine has two cores too).
pub const THREADS: usize = 2;

pub const KV_SHARDS: usize = 8;
pub const KV_INITIAL_BALANCE: u64 = 100;

/// `rmw-hot`: each transaction reads and increments this many objects...
pub const RMW_WIDTH: usize = 4;
/// ...drawn from a pool this small (32 words fit in L1).
pub const RMW_OBJECTS: usize = 32;

/// Operation classes, for per-class latency.
pub const GET: usize = 0;
pub const PUT: usize = 1;
pub const TRANSFER: usize = 2;
pub const RMW: usize = 3;
pub const CLASSES: usize = 4;

#[derive(Clone, Copy)]
pub enum Traffic {
    Kv,
    Rmw,
}

#[derive(Clone, Copy)]
pub enum Op {
    Kv(KvOp),
    Rmw([u8; RMW_WIDTH]),
}

/// How big the KV structures must be for a set of streams.
#[derive(Clone, Copy)]
pub struct KvSizing {
    pub capacity_per_shard: usize,
    pub buckets_per_shard: usize,
}

/// One worker stream per thread.
pub type Streams = Vec<Arc<[Op]>>;

/// Generate `ops_per_thread` operations for each worker.
pub fn generate(traffic: Traffic, seed: u64, ops_per_thread: usize) -> Streams {
    (0..THREADS as u64)
        .map(|tid| -> Arc<[Op]> {
            match traffic {
                Traffic::Kv => {
                    let mut gen = KvTraceGen::new(KvTraceCfg::million_users(), seed, tid + 1);
                    (0..ops_per_thread).map(|_| Op::Kv(gen.next())).collect()
                }
                Traffic::Rmw => {
                    let mut rng = DetRng::new(seed).split(tid + 1);
                    (0..ops_per_thread)
                        .map(|_| {
                            Op::Rmw(std::array::from_fn(|_| {
                                rng.next_below(RMW_OBJECTS as u64) as u8
                            }))
                        })
                        .collect()
                }
            }
        })
        .collect()
}

/// Size the KV pools from the users the streams' first `prefix` ops per
/// thread insert. Gets never allocate; a put or a transfer allocates on a
/// user's first touch, plus garbage when an attempt that allocated
/// aborts — hence the headroom.
pub fn kv_sizing(streams: &Streams, prefix: usize) -> KvSizing {
    // Route users with the store's own shard function.
    let platform = Native::new(1);
    let lock = GlobalLockTm::new(platform);
    let router = ShardedKv::new(&*lock, KV_SHARDS, 1, 0, 0);
    let mut per_shard = vec![HashSet::new(); KV_SHARDS];
    let mut touch = |u: u64| {
        per_shard[router.shard_of(u)].insert(u);
    };
    for s in streams {
        for op in &s[..prefix.min(s.len())] {
            match *op {
                Op::Kv(KvOp::Put(u, _)) => touch(u),
                Op::Kv(KvOp::Transfer { from, to, .. }) => {
                    touch(from);
                    touch(to);
                }
                _ => {}
            }
        }
    }
    let most = per_shard.iter().map(HashSet::len).max().unwrap_or(0);
    let capacity_per_shard = most + most / 2 + 1024;
    // Two entries per user at about four entries per bucket.
    let buckets_per_shard = (capacity_per_shard / 2).next_power_of_two().max(64);
    KvSizing {
        capacity_per_shard,
        buckets_per_shard,
    }
}

/// The structure one engine runs a workload against.
pub enum Store<S: TmSys> {
    Kv(ShardedKv<S>),
    Rmw {
        objs: Vec<S::Obj<u64>>,
        initial_sum: u64,
    },
}

impl<S: TmSys> Store<S> {
    pub fn build(sys: &S, traffic: Traffic, sizing: Option<KvSizing>) -> Self {
        match traffic {
            Traffic::Kv => {
                let z = sizing.expect("KV traffic needs a sizing");
                Store::Kv(ShardedKv::new(
                    sys,
                    KV_SHARDS,
                    z.buckets_per_shard,
                    z.capacity_per_shard,
                    KV_INITIAL_BALANCE,
                ))
            }
            Traffic::Rmw => {
                let objs = (0..RMW_OBJECTS as u64).map(|i| sys.alloc(i)).collect();
                Store::Rmw {
                    objs,
                    initial_sum: (0..RMW_OBJECTS as u64).sum(),
                }
            }
        }
    }

    /// Run `op` as one transaction; returns its class. With `TRACE`,
    /// calls into `ShardedKv` are timed into the thread's ledger.
    #[inline]
    pub fn apply<const TRACE: bool>(&self, sys: &S, op: &Op) -> usize {
        fn tds<const TRACE: bool, R>(f: impl FnOnce() -> R) -> R {
            if TRACE {
                ledger::time_tds(f)
            } else {
                f()
            }
        }
        match (self, op) {
            (Store::Kv(kv), Op::Kv(KvOp::Get(u))) => {
                black_box(sys.execute(|tx| tds::<TRACE, _>(|| kv.get_session_tx(tx, *u))));
                GET
            }
            (Store::Kv(kv), Op::Kv(KvOp::Put(u, v))) => {
                black_box(sys.execute(|tx| tds::<TRACE, _>(|| kv.put_session_tx(sys, tx, *u, *v))));
                PUT
            }
            (Store::Kv(kv), Op::Kv(KvOp::Transfer { from, to, amt })) => {
                black_box(
                    sys.execute(|tx| tds::<TRACE, _>(|| kv.transfer_tx(sys, tx, *from, *to, *amt))),
                );
                TRANSFER
            }
            (Store::Rmw { objs, .. }, Op::Rmw(idx)) => {
                sys.execute(|tx| {
                    for &i in idx {
                        let obj = &objs[i as usize];
                        let v = S::read(tx, obj)?;
                        S::write(tx, obj, &(v + 1))?;
                    }
                    Ok(())
                });
                RMW
            }
            _ => unreachable!("operation does not match the store's traffic"),
        }
    }

    /// Check the invariant while no transaction runs. `commits` is the
    /// number of transactions this store has committed so far.
    pub fn check(&self, commits: u64) -> Result<(), String> {
        match self {
            Store::Kv(kv) => {
                let wallets = kv.wallet_snapshot();
                let total: u64 = wallets.iter().map(|(_, b)| b).sum();
                let expect = kv.initial_balance() * wallets.len() as u64;
                if total == expect {
                    Ok(())
                } else {
                    Err(format!(
                        "wallet conservation: {} wallets hold {total}, expected {expect}",
                        wallets.len()
                    ))
                }
            }
            Store::Rmw { objs, initial_sum } => {
                let total: u64 = objs.iter().map(|o| S::peek(o)).sum();
                let expect = initial_sum + RMW_WIDTH as u64 * commits;
                if total == expect {
                    Ok(())
                } else {
                    Err(format!(
                        "counter sum {total}, expected {expect} after {commits} commits"
                    ))
                }
            }
        }
    }
}
