//! Figure 4: "Rock machine" throughput — DSTM2-SF vs BZSTM vs SCSS vs
//! NZSTM on native threads.
//!
//! "Figure 4 shows the completion rate of transactions (throughput) on
//! the Rock machine, normalized to the throughput of a single global
//! lock (not shown) running on a single processor." X-axis: 1, 2, 4, 8,
//! 16 threads.
//!
//! The substitution for Rock silicon is the host CPU: the four software
//! systems run on real threads; their *relative* standings — within
//! ~10% of one another except kmeans (§4.4.2) — are the reproduction
//! target. (Note: on a single-core host the scaling dimension
//! degenerates; the relative system-to-system comparison at each thread
//! count remains meaningful.)
//!
//! Usage: `fig4 [--full] [--sim] [--threads 1,2,4] [--json out.json] [workload ...]`

use nztm_bench::report::{Cell, FigureReport, Panel, Series};
use nztm_bench::suite::{fig4_cell, fig4_systems, paper_machine, FigureArgs};
use nztm_sim::Native;
use nztm_workloads::Host;
use std::io::Write;

const THREADS: &[usize] = &[1, 2, 4, 8, 16];

fn main() {
    let (args, json) = FigureArgs::from_env(
        "fig4 [--full] [--sim] [--threads 1,2,4] [--json out.json] [workload ...]",
    );
    let scale = args.scale();
    let threads = args.threads.clone().unwrap_or_else(|| THREADS.to_vec());
    // --sim: run the software systems on the deterministic simulator
    // instead of host threads (cycle-based, reproducible; the
    // configuration used for the S4–S6 shape claims).
    let host = |t: usize| {
        if args.sim {
            Host::Sim(paper_machine(t).0)
        } else {
            Host::Native(Native::new(t.max(1)))
        }
    };

    let mut panels = Vec::new();
    for &w in &args.workloads {
        eprintln!("[fig4] {} ...", w.name());
        // Normalization base: a single global lock at 1 thread.
        let base_tp = fig4_cell(&host(1), "GlobalLock", w, &scale).throughput();

        let mut series = Vec::new();
        for sys in fig4_systems() {
            let mut cells = Vec::new();
            for &t in &threads {
                let r = fig4_cell(&host(t), sys, w, &scale);
                cells.push(Cell::from_result(t, &r, base_tp));
                eprintln!(
                    "[fig4]   {:<9} t={:<2} ns={:<13} commits={} aborts={}",
                    sys,
                    t,
                    r.elapsed,
                    r.stats.commits,
                    r.stats.aborts()
                );
            }
            series.push(Series { system: sys.to_string(), cells });
        }
        panels.push(Panel { workload: w.name().to_string(), series });
    }

    let report = FigureReport {
        figure: if args.sim {
            "Figure 4 — simulated cycles (Rock substitute)".into()
        } else {
            "Figure 4 — native (Rock substitute)".into()
        },
        normalization: "1-thread single global lock".into(),
        panels,
    };
    println!("{}", report.render_text());
    if let (Some(mut f), Some(p)) = (json, args.json) {
        f.write_all(report.to_json().as_bytes()).expect("write json");
        eprintln!("[fig4] wrote {p}");
    }
}
