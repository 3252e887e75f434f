//! Stress harnesses for protocol testing.
//!
//! The benchmark drivers in [`crate::driver`] measure throughput; the
//! harnesses here exist to *provoke protocol races* and make them
//! checkable. The core workload is a bank of accounts with random
//! transfers — every transaction reads and writes two objects, so
//! write-write conflicts, abort handshakes, lazy restores, and (for
//! NZSTM under low patience) inflation/deflation all fire constantly —
//! plus periodic all-accounts audits that exercise the read path and
//! reader-bitmap aborts. Money conservation gives an end-to-end
//! serializability check independent of the sanitizer's per-step
//! invariants.
//!
//! Used by the `sanitizer_stress` suite (run with
//! `cargo test --features sanitize`) across BZSTM, NZSTM, NZSTM+SCSS,
//! and the NZTM hybrid, on both native threads and the deterministic
//! simulated machine.

use crate::Host;
use nztm_core::{TmStats, TmSys};
use nztm_sim::DetRng;
use std::sync::Arc;

/// A bank of transactional accounts; the sum is invariant under
/// transfers.
pub struct TransferBank<S: TmSys> {
    accounts: Vec<S::Obj<u64>>,
    expected_total: u64,
}

impl<S: TmSys> TransferBank<S> {
    pub fn new(sys: &S, n_accounts: usize, initial: u64) -> Self {
        assert!(n_accounts >= 2, "transfers need two distinct accounts");
        TransferBank {
            accounts: (0..n_accounts).map(|_| sys.alloc(initial)).collect(),
            expected_total: n_accounts as u64 * initial,
        }
    }

    pub fn n_accounts(&self) -> usize {
        self.accounts.len()
    }

    /// One transactional step: usually a two-account transfer, sometimes
    /// (1 in 8) a read-only audit of every account.
    pub fn one_op(&self, sys: &S, rng: &mut DetRng) {
        if rng.chance(1, 8) {
            let total = sys.execute(|tx| {
                let mut sum = 0u64;
                for a in &self.accounts {
                    sum += S::read(tx, a)?;
                }
                Ok(sum)
            });
            assert_eq!(total, self.expected_total, "audit read an unserializable state");
            return;
        }
        let n = self.accounts.len() as u64;
        let from = rng.next_u64() % n;
        let mut to = rng.next_u64() % (n - 1);
        if to >= from {
            to += 1;
        }
        let amount = rng.next_u64() % 5;
        let (from, to) = (&self.accounts[from as usize], &self.accounts[to as usize]);
        sys.execute(|tx| {
            let f = S::read(tx, from)?;
            let t = S::read(tx, to)?;
            let moved = amount.min(f);
            S::write(tx, from, &(f - moved))?;
            S::write(tx, to, &(t + moved))?;
            Ok(())
        });
    }

    /// Non-transactional sum (quiescent verification only).
    pub fn total_quiescent(&self) -> u64 {
        self.accounts.iter().map(|a| S::peek(a)).sum()
    }

    /// Assert money was conserved. Call only while no transactions run.
    pub fn assert_conserved(&self) {
        assert_eq!(
            self.total_quiescent(),
            self.expected_total,
            "transfer bank lost or created money — a protocol bug"
        );
    }
}

/// Configuration of one stress run.
#[derive(Clone, Debug)]
pub struct StressConfig {
    pub threads: usize,
    pub ops_per_thread: u64,
    pub seed: u64,
    pub accounts: usize,
    pub initial_balance: u64,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            threads: 4,
            ops_per_thread: 400,
            seed: 0xD00D,
            accounts: 4,
            initial_balance: 100,
        }
    }
}

/// Run the transfer-bank stress: core 0 builds the bank, then every core
/// runs `cfg.ops_per_thread` operations (`cfg.threads` must equal the
/// host's core count). Conservation is asserted before returning the
/// merged statistics of the measured phase and its time. On the
/// simulator the run is fully deterministic, and the machine's schedule
/// trace, when enabled, is the replay artifact.
pub fn stress<S: TmSys>(host: &Host, sys: &Arc<S>, cfg: &StressConfig) -> (TmStats, u64) {
    assert_eq!(host.threads(), cfg.threads, "host cores must equal cfg.threads");
    let (sys2, n, init) = (Arc::clone(sys), cfg.accounts, cfg.initial_balance);
    let bank = Arc::new(host.serial(move || TransferBank::new(&*sys2, n, init)).0);
    sys.reset_stats();

    let (sys2, bank2, cfg2) = (Arc::clone(sys), Arc::clone(&bank), cfg.clone());
    let elapsed = host.parallel(move |tid| {
        let mut rng = DetRng::new(cfg2.seed).split(tid as u64 + 1);
        for _ in 0..cfg2.ops_per_thread {
            bank2.one_op(&*sys2, &mut rng);
        }
    });
    bank.assert_conserved();
    (sys.stats_snapshot(), elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_sim::{CacheConfig, CostModel, Machine, MachineConfig, Native, SimPlatform};

    #[test]
    fn native_stress_conserves_money() {
        let p = Native::new(3);
        let s = nztm_core::NzBuilder::new(Arc::clone(&p)).build_nzstm();
        let cfg = StressConfig { threads: 3, ops_per_thread: 200, ..StressConfig::default() };
        let (st, _) = stress(&Host::Native(p), &s, &cfg);
        assert!(st.commits >= 600, "each op commits at least once");
    }

    #[test]
    fn sim_stress_is_deterministic() {
        let run = || {
            let m = Machine::new(MachineConfig {
                n_cores: 3,
                hw_cores: 0,
                costs: CostModel::default(),
                l1: CacheConfig::tiny(2048, 4),
                l2: CacheConfig::tiny(16384, 8),
                max_cycles: 4_000_000_000,
            });
            let p = SimPlatform::new(Arc::clone(&m));
            let s = nztm_core::NzBuilder::new(Arc::clone(&p)).build_bzstm();
            let cfg = StressConfig { threads: 3, ops_per_thread: 60, ..StressConfig::default() };
            let (st, makespan) = stress(&Host::Sim(m), &s, &cfg);
            (st.commits, st.aborts(), makespan)
        };
        assert_eq!(run(), run());
    }
}
