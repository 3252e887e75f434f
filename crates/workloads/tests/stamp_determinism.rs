//! STAMP smoke + determinism: on the simulated machine, the same seed
//! must produce the same result — run to run — at every thread count.
//!
//! Genome's result (the unique-segment set and the reconstruction) is a
//! pure function of the input, so it must also agree *across* thread
//! counts. Kmeans accumulates `f64` sums whose order depends on the
//! schedule, so only run-to-run (same thread count) equality is
//! asserted there.

use nztm_core::NzBuilder;
use nztm_sim::{Machine, MachineConfig, SimPlatform};
use nztm_workloads::driver::{run_genome, run_kmeans, run_vacation, BenchResult};
use nztm_workloads::set::TmSet;
use nztm_workloads::Host;
use nztm_workloads::stamp::genome::{Genome, GenomeConfig};
use nztm_workloads::stamp::kmeans::KmeansConfig;
use nztm_workloads::stamp::vacation::VacationConfig;
use std::sync::Arc;

/// FNV-1a over a word stream.
fn fnv(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    }
    h
}

/// Fingerprint of a sim run: committed ops, the cycle-exact makespan,
/// and the commit/abort counters. Any scheduling divergence between two
/// runs of "the same" configuration shows up in at least one of these.
fn fingerprint(r: &BenchResult) -> u64 {
    fnv(&[r.ops, r.elapsed, r.stats.commits, r.stats.aborts(), r.stats.conflicts])
}

fn sim(threads: usize) -> (Host, Arc<SimPlatform>) {
    let machine = Machine::new(MachineConfig::paper(threads));
    let platform = SimPlatform::new(Arc::clone(&machine));
    (Host::Sim(machine), platform)
}

fn genome_run(threads: usize) -> u64 {
    let (host, platform) = sim(threads);
    let sys = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
    fingerprint(&run_genome(&host, &sys, GenomeConfig::small()))
}

fn kmeans_run(threads: usize) -> u64 {
    let (host, platform) = sim(threads);
    let sys = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
    fingerprint(&run_kmeans(&host, &sys, KmeansConfig::high(160, 3)))
}

fn vacation_run(threads: usize) -> u64 {
    let (host, platform) = sim(threads);
    let sys = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
    // Conservation is asserted inside the driver after the client phase.
    fingerprint(&run_vacation(&host, &sys, VacationConfig::low(48, 24), 40))
}

#[test]
fn genome_is_deterministic_per_thread_count() {
    for threads in [1, 4] {
        assert_eq!(genome_run(threads), genome_run(threads), "genome @ {threads} threads");
    }
}

#[test]
fn kmeans_is_deterministic_per_thread_count() {
    // f64 accumulation order differs across thread counts, so each
    // count only has to agree with itself.
    for threads in [1, 4] {
        assert_eq!(kmeans_run(threads), kmeans_run(threads), "kmeans @ {threads} threads");
    }
}

#[test]
fn vacation_is_deterministic_per_thread_count() {
    for threads in [1, 4] {
        assert_eq!(vacation_run(threads), vacation_run(threads), "vacation @ {threads} threads");
    }
}

/// Phase 1 of genome (transactional dedup into a shared hash set) must
/// produce the *same unique-segment set* no matter how many threads
/// raced to insert — the set is a pure function of the input genome.
#[test]
fn genome_dedup_set_agrees_across_thread_counts() {
    fn dedup_elements(threads: usize) -> Vec<u64> {
        let (host, platform) = sim(threads);
        let sys = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
        let g = Arc::new(Genome::new(&*sys, GenomeConfig::small()));
        let (g2, sys2) = (Arc::clone(&g), Arc::clone(&sys));
        host.parallel(move |tid| {
            g2.dedup_phase(&*sys2, tid, threads);
        });
        let g = Arc::try_unwrap(g).unwrap_or_else(|_| panic!("dedup bodies done"));
        let mut e = g.dedup.elements(&*sys);
        e.sort_unstable();
        assert_eq!(e.len(), g.expected_unique(), "dedup count @ {threads} threads");
        e
    }

    let single = dedup_elements(1);
    assert_eq!(single, dedup_elements(2), "1 vs 2 threads");
    assert_eq!(single, dedup_elements(4), "1 vs 4 threads");
}

/// Smoke on a second backend: the SCSS variant completes all three
/// benchmarks at 4 threads (internal drivers assert conservation /
/// reconstruction invariants).
#[test]
fn stamp_smoke_on_scss() {
    let (host, platform) = sim(4);
    let sys = NzBuilder::new(Arc::clone(&platform)).build_scss();
    let g = run_genome(&host, &sys, GenomeConfig::small());
    assert!(g.ops > 0);
    let k = run_kmeans(&host, &sys, KmeansConfig::low(120, 2));
    assert_eq!(k.ops, 240, "points x iterations");
    let v = run_vacation(&host, &sys, VacationConfig::high(48, 24), 30);
    assert_eq!(v.ops, 120, "4 threads x 30 txns");
    assert!(v.stats.commits > 0);
}
