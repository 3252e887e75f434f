//! §4.4 scalar claims (S1–S7 in DESIGN.md): print paper-claim vs
//! measured, one block per claim.
//!
//! Usage: `stats [s1 s2 ... s7]` (default: all)

use nztm_bench::suite::{
    fig3_cell, fig3_hybrid_cell_with_atmtp, fig4_cell, paper_machine, SimSystem, Workload,
    WorkloadScale,
};
use nztm_htm::AtmtpConfig;
use nztm_workloads::driver::BenchResult;
use nztm_workloads::Host;

/// A Figure 4 cell on the 4-core simulated paper machine: deterministic
/// cycles with the paper cache model.
fn sim4(sys: &str, w: Workload, scale: &WorkloadScale) -> BenchResult {
    fig4_cell(&Host::Sim(paper_machine(4).0), sys, w, scale)
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn s1(scale: &WorkloadScale) {
    println!("\n== S1 (§4.4.1): hashtable @15p — <1% of NZTM transactions abort ==");
    let r = fig3_cell(SimSystem::NztmAtmtp, Workload::HashtableLow, 15, scale);
    let st = r.stats;
    println!("paper: <1% abort; most commit in hardware");
    println!(
        "measured: {} of transactions aborted ≥1x | hw-commit share {} (commits={} hw-aborts={} sw-aborts={})",
        pct(st.txn_abort_rate()),
        pct(st.htm_commit_share()),
        st.commits,
        st.htm_aborts,
        st.aborts()
    );
}

fn s2(scale: &WorkloadScale) {
    println!("\n== S2 (§4.4.1): @15p abort rates — linkedlist ~19% > redblack ~14% ==");
    for w in [Workload::LinkedlistHigh, Workload::RedblackHigh] {
        let r = fig3_cell(SimSystem::NztmAtmtp, w, 15, scale);
        let st = r.stats;
        println!(
            "measured {:<16} {} of transactions aborted ≥1x (attempt-level abort rate {})",
            w.name(),
            pct(st.txn_abort_rate()),
            pct((st.htm_aborts + st.aborts()) as f64
                / (st.commits + st.htm_aborts + st.aborts()).max(1) as f64)
        );
    }
    println!("paper: linkedlist ≈19%, redblack ≈14% (linkedlist > redblack)");
}

fn s3(scale: &WorkloadScale) {
    println!("\n== S3 (§4.4.1): vacation @15p — ~25% of hw txns abort on resources ==");
    // The paper's vacation transactions are far bigger than our scaled
    // port's; to recreate the same pressure on the write buffer we pair
    // big tables with ATMTP's *actual* default store-queue depth (32
    // entries — the paper explicitly enlarged it to 256 and still saw
    // ~25% resource aborts at its scale).
    let mut scale = *scale;
    scale.vacation_relations = 4096;
    scale.vacation_txns = scale.vacation_txns.min(40);
    let r = fig3_hybrid_cell_with_atmtp(
        Workload::VacationHigh,
        15,
        &scale,
        AtmtpConfig { store_buffer_entries: 32, ..AtmtpConfig::default() },
    );
    let st = r.stats;
    let hw_attempts = st.htm_commits + st.htm_aborts;
    println!(
        "measured: capacity-abort share of hw attempts = {} (capacity={} conflict={} explicit={} other={})",
        pct(st.htm_capacity_aborts as f64 / hw_attempts.max(1) as f64),
        st.htm_capacity_aborts,
        st.htm_conflict_aborts,
        st.htm_explicit_aborts,
        st.htm_other_aborts
    );
    println!("paper: ~25% of hardware transactions abort due to resource limitations");
}

fn s4(scale: &WorkloadScale) {
    // Simulated cells: deterministic cycles with the paper cache model.
    println!("\n== S4 (§4.4.2): NZSTM lags BZSTM by ~2–5% (inflation checks, no inflation) ==");
    for w in [Workload::HashtableLow, Workload::RedblackLow, Workload::LinkedlistLow] {
        let b = sim4("BZSTM", w, scale);
        let n = sim4("NZSTM", w, scale);
        let gap = (b.throughput() - n.throughput()) / b.throughput().max(f64::MIN_POSITIVE);
        println!(
            "measured {:<16} BZSTM/NZSTM gap {}  (inflations observed: {})",
            w.name(),
            pct(gap),
            n.stats.inflations
        );
    }
    println!("paper: NZSTM slightly lags BZSTM (≈2–5%); no actual inflation observed");
}

fn s5(scale: &WorkloadScale) {
    // Simulated cells: deterministic cycles with the paper cache model.
    println!("\n== S5 (§4.4.2): SCSS ≈ NZSTM everywhere except write-dominated kmeans ==");
    for w in [Workload::HashtableLow, Workload::RedblackLow, Workload::KmeansHigh] {
        let n = sim4("NZSTM", w, scale);
        let s = sim4("SCSS", w, scale);
        let ratio = s.throughput() / n.throughput().max(f64::MIN_POSITIVE);
        println!(
            "measured {:<16} SCSS/NZSTM throughput ratio {:.2} (scss stores={})",
            w.name(),
            ratio,
            s.stats.scss_stores
        );
    }
    println!("paper: ratio ≈1 except kmeans, where SCSS is significantly slower");
}

fn s6(scale: &WorkloadScale) {
    // Simulated cells: deterministic cycles with the paper cache model.
    println!("\n== S6 (§4.4.2): NZSTM significantly outperforms DSTM2-SF on kmeans ==");
    for w in [Workload::KmeansHigh, Workload::KmeansLow, Workload::HashtableLow] {
        let n = sim4("NZSTM", w, scale);
        let d = sim4("DSTM2-SF", w, scale);
        println!(
            "measured {:<16} NZSTM/DSTM2-SF throughput ratio {:.2}",
            w.name(),
            n.throughput() / d.throughput().max(f64::MIN_POSITIVE)
        );
    }
    println!("paper: kmeans ratio >> 1 (shadow copies double the kmeans object's cache lines);");
    println!("       other benchmarks within ~10%");
}

fn s7(scale: &WorkloadScale) {
    println!("\n== S7 (§4.4.2): NZTM hashtable-low @16p — ~75% of txns in hw, >60% over NZSTM ==");
    // The paper measured this on Rock at 16 threads; we use the simulated
    // best-effort HTM at 16 cores.
    let hy = fig3_cell(SimSystem::NztmAtmtp, Workload::HashtableLow, 16, scale);
    let sw = fig3_cell(SimSystem::Nzstm, Workload::HashtableLow, 16, scale);
    println!(
        "measured: hw-commit share {} | NZTM/NZSTM throughput ratio {:.2}",
        pct(hy.stats.htm_commit_share()),
        hy.throughput() / sw.throughput().max(f64::MIN_POSITIVE)
    );
    println!("paper: ≈75% of transactions commit in hardware; throughput >1.6× NZSTM");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { WorkloadScale::full() } else { WorkloadScale::quick() };
    let want =
        |k: &str| args.is_empty() || args.iter().all(|a| a == "--full") || args.iter().any(|a| a == k);
    if want("s1") {
        s1(&scale);
    }
    if want("s2") {
        s2(&scale);
    }
    if want("s3") {
        s3(&scale);
    }
    if want("s4") {
        s4(&scale);
    }
    if want("s5") {
        s5(&scale);
    }
    if want("s6") {
        s6(&scale);
    }
    if want("s7") {
        s7(&scale);
    }
}
