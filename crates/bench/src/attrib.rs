//! Per-structure miss attribution cross-check (`bench_pr2 attrib`).
//!
//! Validates the memory-layout work by asking the same question two
//! ways and checking the answers agree: *which structures cost the most
//! cache misses on the hot path?*
//!
//! * **Sim side** — runs NZSTM on the deterministic simulator with
//!   [`nztm_sim::Machine::enable_attribution`] armed, so every charged access is
//!   binned by the structure class of its pre-translation address
//!   (reader stripes, registry slots, object headers, object data,
//!   word buffers, descriptors, locators). Misses come straight from
//!   the simulated cache model.
//! * **Native side** — per-structure miss counters do not exist on real
//!   hardware without PEBS/IBS address sampling, and this container has
//!   no PMU access (`perf` is absent and hardware events are not
//!   exposed). Instead the native run collects engine statistics
//!   ([`TmStats`]) and feeds them through an explicit traffic model:
//!   each class is weighted by the number of *shared-line* accesses the
//!   protocol performs on it per operation — the accesses that turn
//!   into coherence misses under contention. When a working `perf`
//!   binary is present it is recorded in the report (so a PMU-equipped
//!   host can see whole-process miss counts next to the model), but the
//!   per-structure ranking always comes from the model.
//!
//! The check passes when the two sides agree on the **top-2 miss
//! contributors** per workload. Disagreements are not an error exit —
//! they are recorded in the JSON report (`agree: false`) and belong in
//! EXPERIMENTS.md with an explanation.

use crate::hotpath::{HotWorkload, OpDriver};
use crate::suite::paper_machine;
use nztm_core::{NzBuilder, Nzstm, TmStats};
use nztm_sim::attrib::{ClassStats, StructClass};
use nztm_sim::{DetRng, Native, SimPlatform};
use nztm_workloads::Host;
use std::sync::Arc;

/// Workloads the cross-check runs — the acceptance criteria name
/// read-heavy and write-heavy; transfer rides along as a mixed probe.
pub const ATTRIB_WORKLOADS: &[&str] = &["read-heavy", "write-heavy"];

/// One workload's two-sided attribution.
#[derive(Clone, Debug)]
pub struct AttribComparison {
    pub workload: String,
    pub threads: usize,
    /// Simulated per-class counters, in [`StructClass::ALL`] order.
    pub sim: Vec<(StructClass, ClassStats)>,
    /// Native model weights (estimated shared-line accesses), in
    /// [`StructClass::ALL`] order.
    pub native: Vec<(StructClass, f64)>,
    /// Top-2 classes by simulated misses (classes with zero accesses
    /// never rank).
    pub sim_top2: Vec<StructClass>,
    /// Top-2 classes by native model weight.
    pub native_top2: Vec<StructClass>,
    /// Set equality of the two top-2 lists (order-insensitive).
    pub agree: bool,
}

/// The full cross-check report.
#[derive(Clone, Debug)]
pub struct AttribReport {
    pub threads: usize,
    pub ops_per_thread: u64,
    /// Where the native ranking came from. Always `"engine-stats"`
    /// today; kept in the schema so a future PEBS-based ranking can
    /// announce itself.
    pub native_source: String,
    /// Whether a runnable `perf` binary was found (context only).
    pub perf_available: bool,
    pub comparisons: Vec<AttribComparison>,
}

impl AttribReport {
    /// True iff every workload's top-2 sets agree.
    pub fn all_agree(&self) -> bool {
        self.comparisons.iter().all(|c| c.agree)
    }

    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": 1,\n");
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"ops_per_thread\": {},\n", self.ops_per_thread));
        s.push_str(&format!("  \"native_source\": \"{}\",\n", self.native_source));
        s.push_str(&format!("  \"perf_available\": {},\n", self.perf_available));
        s.push_str(&format!("  \"all_agree\": {},\n", self.all_agree()));
        s.push_str("  \"workloads\": [\n");
        for (i, c) in self.comparisons.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"workload\": \"{}\",\n", c.workload));
            s.push_str(&format!("      \"agree\": {},\n", c.agree));
            let names = |v: &[StructClass]| {
                v.iter().map(|c| format!("\"{}\"", c.name())).collect::<Vec<_>>().join(", ")
            };
            s.push_str(&format!("      \"sim_top2\": [{}],\n", names(&c.sim_top2)));
            s.push_str(&format!("      \"native_top2\": [{}],\n", names(&c.native_top2)));
            s.push_str("      \"sim\": [\n");
            for (j, (class, st)) in c.sim.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"class\": \"{}\", \"accesses\": {}, \"writes\": {}, \
                     \"misses\": {}, \"mem_accesses\": {}, \"remote_transfers\": {}, \
                     \"invalidating_writes\": {}}}{}\n",
                    class.name(),
                    st.accesses,
                    st.writes,
                    st.misses(),
                    st.mem_accesses,
                    st.remote_transfers,
                    st.invalidating_writes,
                    if j + 1 < c.sim.len() { "," } else { "" }
                ));
            }
            s.push_str("      ],\n");
            s.push_str("      \"native\": [\n");
            for (j, (class, w)) in c.native.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"class\": \"{}\", \"weight\": {:.1}}}{}\n",
                    class.name(),
                    w,
                    if j + 1 < c.native.len() { "," } else { "" }
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.comparisons.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

/// Run NZSTM on the simulator with attribution armed and return the
/// measured-phase per-class counters.
///
/// Attribution must be enabled **before** the engine is constructed:
/// arming also turns on the process-global range registry, and only
/// structures allocated after that point get tagged. Counters are
/// cleared at the start of each [`nztm_sim::Machine::run`], so the
/// warmup phase does not pollute the measured numbers.
pub(crate) fn sim_attribution(
    workload: HotWorkload,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> Vec<(StructClass, ClassStats)> {
    let (machine, platform) = paper_machine(threads);
    machine.enable_attribution();
    let sys: Arc<Nzstm<SimPlatform>> = NzBuilder::new(Arc::clone(&platform)).build_nzstm();

    // Setup on core 0, so allocation is charged (and tagged) in-model.
    let host = Host::Sim(Arc::clone(&machine));
    let sys2 = Arc::clone(&sys);
    let driver = Arc::new(host.serial(move || OpDriver::new(&*sys2, workload)).0);

    let run_phase = |ops: u64, seed: u64| {
        let (sys, driver) = (Arc::clone(&sys), Arc::clone(&driver));
        host.parallel(move |tid| {
            let mut rng = DetRng::new(seed).split(tid as u64 + 1);
            for _ in 0..ops {
                driver.one_op(&*sys, &mut rng);
            }
        });
    };

    run_phase((ops_per_thread / 4).max(4), seed ^ 0x5EED);
    sys.reset_stats();
    run_phase(ops_per_thread, seed);
    machine.attribution().expect("attribution was enabled")
}

/// Run NZSTM on native threads and return the measured-phase engine
/// statistics that feed the traffic model.
fn native_stats(
    workload: HotWorkload,
    threads: usize,
    ops_per_thread: u64,
    seed: u64,
) -> TmStats {
    let platform = Native::new(threads.max(1));
    platform.register_thread_as(0);
    let sys: Arc<Nzstm<Native>> = NzBuilder::new(Arc::clone(&platform)).build_nzstm();
    let driver = Arc::new(OpDriver::new(&*sys, workload));
    let warmup = (ops_per_thread / 4).max(4);
    let start = std::sync::Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let platform = Arc::clone(&platform);
            let sys = Arc::clone(&sys);
            let driver = Arc::clone(&driver);
            let start = &start;
            scope.spawn(move || {
                platform.register_thread_as(tid);
                let mut rng = DetRng::new(seed).split(tid as u64 + 1);
                for _ in 0..warmup {
                    driver.one_op(&*sys, &mut rng);
                }
                start.wait(); // parked; main resets stats
                start.wait();
                for _ in 0..ops_per_thread {
                    driver.one_op(&*sys, &mut rng);
                }
            });
        }
        start.wait();
        sys.reset_stats();
        start.wait();
    });
    platform.register_thread_as(0);
    sys.stats_snapshot()
}

/// The native traffic model: estimated shared-line accesses per class,
/// derived from engine statistics.
///
/// The weights count the protocol's accesses to *cross-thread-shared*
/// cache lines — the ones that miss under contention. Per-event costs
/// (from the engine's hot path, `engine.rs`):
///
/// * `obj_headers` — every visible read RMWs the readers word twice
///   (arrive + depart) on the header line; every acquire CASes the
///   owner word, publishes the backup pointer, and bumps the version:
///   `2·reads + 3·acquires`.
/// * `obj_data` — reads load data in place (shared-read, misses only
///   when a writer invalidates); writers write in place and read the
///   old value for the backup: `reads + 2·acquires`. **Layout
///   folding:** with the zero-indirection layout, data words that fit
///   the first cache line (32-byte header + up to 4 words) share the
///   header's line, so their traffic is attributed to `obj_headers` —
///   exactly how the simulator's address-range classifier bins them.
///   The benchmark objects hold one `u64`, so the fold applies here.
/// * `word_bufs` — backup copy-out at acquire plus commit take-back.
///   Mostly core-local (pooled per thread), so it rarely *misses*, but
///   the traffic exists: `2·acquires`, discounted ×0.25 for locality.
/// * `registry_slots` — one slot publish per transaction begin/end:
///   `commits + aborts`.
/// * `txn_descs` — status publish and finalize CAS per transaction,
///   plus every remote abort request CASes the victim's descriptor:
///   `2·(commits + aborts) + abort_requests_sent`.
/// * `reader_stripes` — zero at ≤ 64 threads: flat mode keeps the
///   reader bitmap in the object header (already counted there).
/// * `locators` — one per inflation.
pub fn native_model(
    st: &TmStats,
    threads: usize,
    words_per_object: usize,
) -> Vec<(StructClass, f64)> {
    let txns = (st.commits + st.aborts()) as f64;
    // First cache line: 32-byte header + 4 data words (see the layout
    // docs in nztm-core). Objects at or under that size have no
    // off-line data at all.
    let data_on_header_line = words_per_object <= 4;
    let data_traffic = st.reads as f64 + 2.0 * st.acquires as f64;
    StructClass::ALL
        .iter()
        .map(|&class| {
            let w = match class {
                StructClass::ObjHeaders => {
                    2.0 * st.reads as f64
                        + 3.0 * st.acquires as f64
                        + if data_on_header_line { data_traffic } else { 0.0 }
                }
                StructClass::ObjData => {
                    if data_on_header_line {
                        0.0
                    } else {
                        data_traffic
                    }
                }
                StructClass::WordBufs => 2.0 * st.acquires as f64 * 0.25,
                StructClass::RegistrySlots => txns,
                StructClass::TxnDescs => 2.0 * txns + st.abort_requests_sent as f64,
                StructClass::ReaderStripes => {
                    if threads <= 64 {
                        0.0
                    } else {
                        2.0 * st.reads as f64
                    }
                }
                StructClass::Locators => st.inflations as f64,
                StructClass::Other => 0.0,
            };
            (class, w)
        })
        .collect()
}

/// Top-2 classes of a `(class, value)` table, descending, zeros
/// excluded.
fn top2<T: Copy>(table: &[(StructClass, T)], value: impl Fn(&T) -> f64) -> Vec<StructClass> {
    let mut ranked: Vec<(StructClass, f64)> =
        table.iter().map(|(c, v)| (*c, value(v))).filter(|(_, v)| *v > 0.0).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    ranked.truncate(2);
    ranked.into_iter().map(|(c, _)| c).collect()
}

/// Run the full cross-check.
pub fn run_cross_check(threads: usize, ops_per_thread: u64, seed: u64) -> AttribReport {
    let perf_available = std::process::Command::new("perf")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    let comparisons = ATTRIB_WORKLOADS
        .iter()
        .map(|&name| {
            let w = HotWorkload::from_name(name);
            let sim = sim_attribution(w, threads, ops_per_thread, seed);
            let st = native_stats(w, threads, ops_per_thread, seed);
            // All hot-path benchmark objects are single-u64.
            let native = native_model(&st, threads, 1);
            let sim_top2 = top2(&sim, |c: &ClassStats| c.misses() as f64);
            let native_top2 = top2(&native, |w: &f64| *w);
            let agree = {
                let mut a = sim_top2.clone();
                let mut b = native_top2.clone();
                a.sort_by_key(|c| c.index());
                b.sort_by_key(|c| c.index());
                a == b
            };
            AttribComparison {
                workload: name.to_string(),
                threads,
                sim,
                native,
                sim_top2,
                native_top2,
                agree,
            }
        })
        .collect();
    AttribReport {
        threads,
        ops_per_thread,
        native_source: "engine-stats".to_string(),
        perf_available,
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_attribution_sees_object_traffic() {
        let table = sim_attribution(HotWorkload::ReadHeavy, 2, 32, 0xA77B);
        let get = |c: StructClass| table.iter().find(|(k, _)| *k == c).unwrap().1;
        // A read-heavy NZSTM run must touch headers (visible-reader
        // RMWs) and descriptors; single-u64 objects keep their data
        // word on the header line (zero-indirection), so obj_data must
        // stay zero — the classifier binning the data word anywhere
        // else would mean the colocated layout regressed.
        assert!(get(StructClass::ObjHeaders).accesses > 0, "headers untouched: {table:?}");
        assert!(get(StructClass::TxnDescs).accesses > 0, "descriptors untouched: {table:?}");
        assert_eq!(
            get(StructClass::ObjData).accesses,
            0,
            "single-word data left the header line: {table:?}"
        );
        let tagged: u64 = table
            .iter()
            .filter(|(c, _)| *c != StructClass::Other)
            .map(|(_, s)| s.accesses)
            .sum();
        assert!(
            tagged > get(StructClass::Other).accesses,
            "tagged structures should dominate untagged traffic: {table:?}"
        );
    }

    #[test]
    fn native_model_ranks_headers_first_on_read_heavy() {
        // Synthetic read-heavy stats: many reads, few acquires.
        let st = TmStats { reads: 10_000, acquires: 400, commits: 1_300, ..Default::default() };
        // Single-word objects: data folds onto the header line, so the
        // runner-up is descriptor traffic, not obj_data.
        let model = native_model(&st, 8, 1);
        let ranked = top2(&model, |w| *w);
        assert_eq!(ranked, vec![StructClass::ObjHeaders, StructClass::TxnDescs], "{model:?}");
        // Wide objects: data words past the first line surface as their
        // own class and outrank descriptors.
        let wide = native_model(&st, 8, 12);
        let ranked = top2(&wide, |w| *w);
        assert_eq!(ranked, vec![StructClass::ObjHeaders, StructClass::ObjData], "{wide:?}");
    }

    #[test]
    fn top2_skips_zero_classes() {
        let table = vec![
            (StructClass::ReaderStripes, 0.0),
            (StructClass::ObjHeaders, 5.0),
            (StructClass::ObjData, 3.0),
            (StructClass::Locators, 0.0),
        ];
        let ranked = top2(&table, |w| *w);
        assert_eq!(ranked, vec![StructClass::ObjHeaders, StructClass::ObjData]);
    }

    #[test]
    fn cross_check_report_serializes() {
        let r = run_cross_check(2, 24, 0xC0DE);
        let json = r.to_json();
        assert!(json.contains("\"sim_top2\""));
        assert!(json.contains("\"native_source\": \"engine-stats\""));
        assert!(json.contains("\"workload\": \"read-heavy\""));
    }
}
