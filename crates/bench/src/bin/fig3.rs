//! Figure 3: simulator throughput — LogTM-SE vs NZTM/ATMTP vs NZSTM.
//!
//! "Figure 3 shows the completion rate of transactions (throughput) on
//! the simulator, normalized to the throughput of LogTM-SE running on a
//! single processor." X-axis: 1, 3, 7, 15 threads (§4.3: one processor
//! kept free for interrupts in the paper's simulator; we keep the same
//! counts for comparability).
//!
//! Usage: `fig3 [--full] [--json out.json] [workload ...]`

use nztm_bench::report::{Cell, FigureReport, Panel, Series};
use nztm_bench::suite::{fig3_cell, fig3_systems, FigureArgs, SimSystem};
use std::io::Write;

const THREADS: &[usize] = &[1, 3, 7, 15];

fn main() {
    let (args, json) = FigureArgs::from_env("fig3 [--full] [--json out.json] [workload ...]");
    let scale = args.scale();

    let mut panels = Vec::new();
    for &w in &args.workloads {
        eprintln!("[fig3] {} ...", w.name());
        // Normalization base: LogTM-SE at 1 thread.
        let base_tp = fig3_cell(SimSystem::LogTmSe, w, 1, &scale).throughput();

        let mut series = Vec::new();
        for sys in fig3_systems() {
            let mut cells = Vec::new();
            for &t in THREADS {
                let r = fig3_cell(sys, w, t, &scale);
                cells.push(Cell::from_result(t, &r, base_tp));
                eprintln!(
                    "[fig3]   {:<11} t={:<2} cycles={:<12} commits={}",
                    sys.name(),
                    t,
                    r.elapsed,
                    r.stats.commits
                );
            }
            series.push(Series { system: sys.name().to_string(), cells });
        }
        panels.push(Panel { workload: w.name().to_string(), series });
    }

    let report = FigureReport {
        figure: "Figure 3 — simulator".into(),
        normalization: "1-thread LogTM-SE".into(),
        panels,
    };
    println!("{}", report.render_text());
    if let (Some(mut f), Some(p)) = (json, args.json) {
        f.write_all(report.to_json().as_bytes()).expect("write json");
        eprintln!("[fig3] wrote {p}");
    }
}
