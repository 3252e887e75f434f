//! Turning a run into named metrics, and printing them.
//!
//! Every timing is a median over the run's measured slices (native) or
//! replays (simulated host time); every count is a sum over the phase
//! it names. Metrics of a layer the workload does not exercise (the KV
//! and tds layers on `rmw-hot`) read 0.

use crate::clock::ns_per_tick;
use crate::ledger::Ledger;
use crate::native::{Slice, GLOCK, STMS};
use crate::traffic::{GET, PUT, TRANSFER};
use crate::{Args, Run};
use nztm_core::TmStats;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value, not part of the JSON.
    pub note: String,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        note: String::new(),
    }
}

pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

const NONE: &[Slice] = &[];

fn slices<'r>(run: &'r Run, label: &str, traced: bool) -> &'r [Slice] {
    run.slices
        .iter()
        .find(|((l, t), _)| *l == label && *t == traced)
        .map_or(NONE, |(_, v)| v.as_slice())
}

fn txn_per_s(s: &[Slice]) -> f64 {
    median(s.iter().map(Slice::txn_per_s).collect())
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let mut out = vec![m("setup_s", median(run.setup_s.clone()), "s")];
    out.last_mut().expect("just pushed").note = format!("median of {} setups", run.setup_s.len());
    for e in STMS {
        let u = slices(run, e, false);
        let samples: u64 = u.iter().map(|s| s.samples).sum();
        let note = format!("{samples} transactions over {} slices", u.len());
        out.push(Metric {
            note: note.clone(),
            ..m(format!("{e}.txn_per_s"), txn_per_s(u), "txn/s")
        });
        out.push(Metric {
            note: note.clone(),
            ..m(
                format!("{e}.p50_ns"),
                median(u.iter().map(|s| s.p50_ns).collect()),
                "ns",
            )
        });
        out.push(Metric {
            note,
            ..m(
                format!("{e}.p99_ns"),
                median(u.iter().map(|s| s.p99_ns).collect()),
                "ns",
            )
        });
    }
    let sim = &run.replays[0].sim;
    out.push(Metric {
        note: format!("{} txn in {} simulated cycles", sim.commits, sim.makespan),
        ..m(
            "hybrid.txn_per_mcycle",
            ratio(sim.commits * 1_000_000, sim.makespan),
            "txn/Mcycle",
        )
    });
    out.push(Metric {
        note: format!(
            "median of {} replays, {}",
            run.replays.len(),
            if run.replays_on_one_cpu {
                "each on one host CPU"
            } else {
                "not confined to one host CPU"
            }
        ),
        ..m(
            "hybrid.host_txn_per_s",
            median(
                run.replays
                    .iter()
                    .map(|r| ratio(r.sim.commits * 1_000_000_000, r.host_ns))
                    .collect(),
            ),
            "txn/s",
        )
    });
    out
}

/// The per-layer metrics; needs the traced slices of a `--trace 1` run.
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let mut out = Vec::new();
    let (mut pins, mut pin_ticks) = (0, 0);
    let tick = ns_per_tick();
    for e in STMS {
        let (u, t) = (slices(run, e, false), slices(run, e, true));
        let mut st = TmStats::default();
        u.iter().for_each(|s| st.merge(&s.stats));
        let mut l = Ledger::default();
        t.iter().for_each(|s| l.add(&s.ledger));
        pins += l.pins;
        pin_ticks += l.pin_ticks;
        let c = st.commits;
        let class_p50 =
            |class: usize| median(t.iter().filter_map(|s| s.class_p50_ns[class]).collect());
        out.extend([
            m(
                format!("{e}.engine.begin_ns"),
                tick * ratio(l.begin_ticks, l.txns),
                "ns",
            ),
            m(
                format!("{e}.engine.commit_ns"),
                tick * ratio(l.commit_ticks, l.txns),
                "ns",
            ),
            m(
                format!("{e}.engine.retry_ns"),
                tick * ratio(l.retry_ticks, l.txns),
                "ns",
            ),
            m(
                format!("{e}.engine.read_ns"),
                tick * ratio(l.read_ticks, l.reads),
                "ns",
            ),
            m(
                format!("{e}.engine.write_ns"),
                tick * ratio(l.write_ticks, l.writes),
                "ns",
            ),
            m(
                format!("{e}.engine.reads_per_commit"),
                ratio(st.reads, c),
                "1/txn",
            ),
            m(
                format!("{e}.engine.acquires_per_commit"),
                ratio(st.acquires, c),
                "1/txn",
            ),
            m(
                format!("{e}.engine.attempts_per_commit"),
                ratio(st.attempts(), c),
                "1/txn",
            ),
            m(
                format!("{e}.engine.descriptor_alloc_per_commit"),
                ratio(st.descriptor_alloc, c),
                "1/txn",
            ),
            m(
                format!("{e}.engine.backup_alloc_per_commit"),
                ratio(st.backup_alloc, c),
                "1/txn",
            ),
            m(
                format!("{e}.engine.aborts_validation_per_commit"),
                ratio(st.aborts_validation, c),
                "1/txn",
            ),
            m(
                format!("{e}.cm.conflicts_per_commit"),
                ratio(st.conflicts, c),
                "1/txn",
            ),
            m(
                format!("{e}.cm.wait_steps_per_commit"),
                ratio(st.wait_steps, c),
                "1/txn",
            ),
            m(
                format!("{e}.cm.abort_requests_per_commit"),
                ratio(st.abort_requests_sent, c),
                "1/txn",
            ),
            m(
                format!("{e}.cm.aborts_requested_per_commit"),
                ratio(st.aborts_requested, c),
                "1/txn",
            ),
            m(
                format!("{e}.cm.aborts_self_per_commit"),
                ratio(st.aborts_self, c),
                "1/txn",
            ),
            m(format!("{e}.kv.get_p50_ns"), class_p50(GET), "ns"),
            m(format!("{e}.kv.put_p50_ns"), class_p50(PUT), "ns"),
            m(format!("{e}.kv.transfer_p50_ns"), class_p50(TRANSFER), "ns"),
            m(
                format!("{e}.tds.op_ns"),
                tick * ratio(l.tds_ticks, l.tds_calls),
                "ns",
            ),
            m(
                format!("{e}.tds.reads_per_op"),
                ratio(l.tds_reads, l.tds_calls),
                "1/op",
            ),
            m(
                format!("{e}.trace_overhead"),
                txn_per_s(t) / txn_per_s(u).max(f64::MIN_POSITIVE) - 1.0,
                "ratio",
            ),
        ]);
        match e {
            "scss" => out.push(m(
                "scss.engine.scss_failures",
                st.scss_failures as f64,
                "count",
            )),
            "norec" => out.extend([
                m(
                    "norec.engine.validations_per_commit",
                    ratio(st.norec_validations, c),
                    "1/txn",
                ),
                m(
                    "norec.engine.extensions_per_commit",
                    ratio(st.norec_extensions, c),
                    "1/txn",
                ),
                m(
                    "norec.engine.aborts_value_validation_per_commit",
                    ratio(st.aborts_value_validation, c),
                    "1/txn",
                ),
            ]),
            "nzstm" => out.extend([
                m("nzstm.cm.inflations", st.inflations as f64, "count"),
                m("nzstm.cm.deflations", st.deflations as f64, "count"),
            ]),
            _ => {}
        }
    }
    out.push(m("epoch.pin_ns", tick * ratio(pin_ticks, pins), "ns"));

    let sim = &run.replays[0].sim;
    let (st, c) = (&sim.stats, sim.commits);
    out.extend([
        m(
            "hybrid.htm.hw_commit_ratio",
            ratio(st.htm_commits, c),
            "ratio",
        ),
        m(
            "hybrid.htm.conflict_aborts_per_txn",
            ratio(st.htm_conflict_aborts, c),
            "1/txn",
        ),
        m(
            "hybrid.htm.capacity_aborts_per_txn",
            ratio(st.htm_capacity_aborts, c),
            "1/txn",
        ),
        m(
            "hybrid.htm.explicit_aborts_per_txn",
            ratio(st.htm_explicit_aborts, c),
            "1/txn",
        ),
        m(
            "hybrid.htm.other_aborts_per_txn",
            ratio(st.htm_other_aborts, c),
            "1/txn",
        ),
        m(
            "hybrid.htm.fallbacks_per_txn",
            ratio(st.fallbacks, c),
            "1/txn",
        ),
        m("hybrid.p50_cycles", sim.p50_cycles as f64, "cycles"),
        m("hybrid.p99_cycles", sim.p99_cycles as f64, "cycles"),
        m("sim.makespan_mcycles", sim.makespan as f64 / 1e6, "Mcycles"),
        m("sim.yields_per_txn", ratio(sim.yields, c), "1/txn"),
        m(
            "sim.host_ns_per_yield",
            median(
                run.replays
                    .iter()
                    .map(|r| ratio(r.host_ns, r.sim.yields))
                    .collect(),
            ),
            "ns",
        ),
        m("sim.l1_hit_rate", ratio(sim.l1_hits, sim.accesses), "ratio"),
        m(
            "sim.remote_transfers_per_txn",
            ratio(sim.remote_transfers, c),
            "1/txn",
        ),
        m(
            "glock.txn_per_s",
            txn_per_s(slices(run, GLOCK, false)),
            "txn/s",
        ),
    ]);
    out
}

/// The host speed, in [`crate::clock::host_speed`] units, that host
/// times and rates are reported at.
const REF_SPEED: f64 = 1.5;

/// Scale a host time or rate measured at `speed` to [`REF_SPEED`]. A
/// shared host's clock frequency drifts by more than half within
/// minutes, and host times scale with it; simulated cycles, counts and
/// ratios of two rates do not, and are left alone.
fn to_reference_speed(x: &mut Metric, speed: f64) {
    let factor = match x.unit {
        "txn/s" => REF_SPEED / speed,
        "ns" | "s" => speed / REF_SPEED,
        _ => return,
    };
    let raw = format!("raw {:.4}", x.value);
    x.note = if x.note.is_empty() {
        raw
    } else {
        format!("{}; {raw}", x.note)
    };
    x.value *= factor;
}

pub struct Report {
    /// The metrics of the JSON line.
    pub emitted: Vec<Metric>,
    /// Printed for reading only.
    pub context: Vec<Metric>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Report {
    pub fn new(args: &Args, run: &Run) -> Report {
        let speed = median(run.host_speed.clone());
        // Host times and rates are reported at a reference host speed.
        let mut r = if args.trace {
            Report {
                emitted: per_layer(run),
                context: end_to_end(run),
            }
        } else {
            Report {
                emitted: end_to_end(run),
                context: Vec::new(),
            }
        };
        for x in r.emitted.iter_mut().chain(r.context.iter_mut()) {
            to_reference_speed(x, speed);
        }
        r
    }

    pub fn human_lines(&self, run: &Run) -> Vec<String> {
        let line = |x: &Metric, prefix: &str| {
            let note = if x.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", x.note)
            };
            format!("{prefix}{:<48} {:>16.4} {}{note}", x.name, x.value, x.unit)
        };
        let mut out: Vec<String> = self.context.iter().map(|x| line(x, "# ")).collect();
        let rates: Vec<String> = run
            .replays
            .iter()
            .map(|r| format!("{:.0}", ratio(r.sim.commits * 1_000_000_000, r.host_ns)))
            .collect();
        out.push(format!("# replays hybrid host txn/s: {}", rates.join(" ")));
        out.push(format!(
            "# host speed: {:.3} probe passes/us (median of {} samples); metric \
             lines give host times and rates at {REF_SPEED} passes/us, the other lines raw",
            median(run.host_speed.clone()),
            run.host_speed.len()
        ));
        for ((label, traced), v) in &run.slices {
            let rates: Vec<String> = v.iter().map(|s| format!("{:.0}", s.txn_per_s())).collect();
            let p50: Vec<String> = v.iter().map(|s| format!("{:.0}", s.p50_ns)).collect();
            let kind = if *traced { "traced" } else { "untraced" };
            out.push(format!(
                "# slices {label} {kind} txn/s: {}",
                rates.join(" ")
            ));
            out.push(format!("# slices {label} {kind} p50_ns: {}", p50.join(" ")));
            if *traced {
                let mut l = Ledger::default();
                v.iter().for_each(|s| l.add(&s.ledger));
                let ns = |t: u64| ns_per_tick() * ratio(t, l.txns);
                out.push(format!(
                    "# ledger {label}: begin {:.1} + retry {:.1} + body {:.1} + commit {:.1} \
                     = execute {:.1} ns/txn over {} txns, {} unreconciled",
                    ns(l.begin_ticks),
                    ns(l.retry_ticks),
                    ns(l.body_ticks),
                    ns(l.commit_ticks),
                    ns(l.exec_ticks),
                    l.txns,
                    l.unreconciled
                ));
            }
        }
        out.extend(self.emitted.iter().map(|x| line(x, "")));
        out
    }

    pub fn json(&self, run: &Run) -> String {
        let metrics: Vec<String> = self
            .emitted
            .iter()
            .map(|x| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    x.name,
                    json_num(x.value),
                    x.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            run.failed == 0,
            run.attempted,
            run.failed,
            metrics.join(", ")
        )
    }
}
