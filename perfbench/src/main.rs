//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <kv-zipf|rmw-hot|sim-hybrid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, builds the engines,
//! measures for `--seconds`, checks every structure's invariant, and
//! prints a run header, one line per metric, and as the last line a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones. See `RATIONALE.md` beside this crate.

mod affinity;
mod clock;
mod header;
mod ledger;
mod metrics;
mod native;
mod sim;
mod traffic;

use metrics::Report;
use native::{Runner, Slice};
use sim::{Replay, SimSystem};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use traffic::{KvSizing, Streams, Traffic};

#[derive(Clone, Copy)]
pub enum Workload {
    KvZipf,
    RmwHot,
    SimHybrid,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "kv-zipf" => Some(Workload::KvZipf),
            "rmw-hot" => Some(Workload::RmwHot),
            "sim-hybrid" => Some(Workload::SimHybrid),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::KvZipf => "kv-zipf",
            Workload::RmwHot => "rmw-hot",
            Workload::SimHybrid => "sim-hybrid",
        }
    }

    fn traffic(self) -> Traffic {
        match self {
            Workload::RmwHot => Traffic::Rmw,
            Workload::KvZipf | Workload::SimHybrid => Traffic::Kv,
        }
    }

    /// Length of each native worker's stream (workers wrap around it).
    fn native_ops(self) -> usize {
        match self {
            Workload::KvZipf | Workload::RmwHot => 1 << 18,
            // The native engines replay exactly what the hybrid replays.
            Workload::SimHybrid => SIM_OPS,
        }
    }

    /// Share of the run spent replaying the hybrid (at least two replays).
    fn sim_share(self) -> f64 {
        match self {
            Workload::SimHybrid => 0.35,
            Workload::KvZipf | Workload::RmwHot => 0.2,
        }
    }
}

/// Operations per simulated core in one hybrid replay.
const SIM_OPS: usize = 10_000;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Length of one native slice.
const SLICE_S: f64 = 0.1;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key.to_string(), v.clone());
    }
    let get = |k: &str| kv.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| "--workload must be kv-zipf, rmw-hot or sim-hybrid".to_string())?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    if let Some(k) = kv
        .keys()
        .find(|k| !["workload", "seed", "seconds", "trace"].contains(&k.as_str()))
    {
        return Err(format!("unknown option --{k}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything the timed phase needs, built before it.
struct Setup {
    streams: Streams,
    sim_sizing: Option<KvSizing>,
    runners: Vec<Box<dyn Runner>>,
    sim: SimSystem,
}

fn setup(args: &Args) -> Setup {
    let w = args.workload;
    let traffic = w.traffic();
    let streams = traffic::generate(traffic, args.seed, w.native_ops());
    let (native_sizing, sim_sizing) = match traffic {
        Traffic::Kv => (
            Some(traffic::kv_sizing(&streams, usize::MAX)),
            Some(traffic::kv_sizing(&streams, SIM_OPS)),
        ),
        Traffic::Rmw => (None, None),
    };
    // The global-lock reference feeds only the per-layer report, so it
    // runs in traced runs only and leaves untraced runs to the STMs.
    let mut runners = native::build_stms(traffic, native_sizing, false);
    if args.trace {
        runners.extend(native::build_stms(traffic, native_sizing, true));
        runners.push(native::build_glock(traffic, native_sizing));
    }
    let sim = SimSystem::build(traffic, sim_sizing);
    Setup {
        streams,
        sim_sizing,
        runners,
        sim,
    }
}

/// Outcome of the timed phase.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Measured slices by `(engine, traced)`, warm-up slices excluded.
    pub slices: BTreeMap<(&'static str, bool), Vec<Slice>>,
    pub replays: Vec<Replay>,
    /// [`clock::host_speed`], sampled before the set-ups and after every
    /// round.
    pub host_speed: Vec<f64>,
    /// Every replay ran confined to one host CPU (see [`affinity`]).
    pub replays_on_one_cpu: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Run {
    fn record_replay(&mut self, r: Replay) {
        let ops = (SIM_OPS * traffic::THREADS) as u64;
        self.attempted += ops;
        if let Err(e) = &r.check {
            self.failed += ops;
            self.failures
                .push(format!("hybrid replay {}: {e}", self.replays.len()));
        } else if self.replays.first().is_some_and(|first| first.sim != r.sim) {
            self.failed += ops;
            self.failures.push(format!(
                "hybrid replay {} differs from replay 0 under the same seed",
                self.replays.len()
            ));
        }
        self.replays.push(r);
    }

    fn record_slice(&mut self, label: &'static str, traced: bool, round: usize, s: Slice) {
        self.attempted += s.commits;
        let which = format!(
            "{label}{} round {round}",
            if traced { " (traced)" } else { "" }
        );
        if let Err(e) = &s.check {
            self.failed += s.commits;
            self.failures.push(format!("{which}: {e}"));
        } else if !s.commits_match {
            self.failed += s.commits;
            self.failures.push(format!(
                "{which}: engine counted {} commits, workers ran {}",
                s.stats.commits, s.commits
            ));
        }
        if s.ledger.unreconciled > 0 {
            self.failed += s.ledger.unreconciled;
            self.failures.push(format!(
                "{which}: {} transactions whose ledger spans do not add up to execute",
                s.ledger.unreconciled
            ));
        }
        if round > 0 {
            self.slices.entry((label, traced)).or_default().push(s);
        }
    }
}

fn run(args: &Args) -> Run {
    let mut setup_s = Vec::new();
    let host_speed = vec![clock::host_speed()];
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(setup(args));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        streams,
        sim_sizing,
        mut runners,
        sim,
    } = built.expect("at least one setup");
    let mut next_sim = Some(sim);

    let mut out = Run {
        setup_s,
        slices: BTreeMap::new(),
        replays: Vec::new(),
        host_speed,
        replays_on_one_cpu: true,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let traffic = args.workload.traffic();
    let share = args.workload.sim_share();
    let labels: Vec<&'static str> = native::STMS.into_iter().chain([native::GLOCK]).collect();
    let slice = Duration::from_secs_f64(SLICE_S);
    let t_start = Instant::now();
    let mut sim_s = 0.0;
    let mut round = 0;
    // Rounds until the run's time is spent. A round runs every native
    // engine for one slice, in an order rotated each round, each traced
    // engine right after its untraced twin; round 0 warms up and is
    // checked but not reported. Hybrid replays are interleaved to keep
    // their share of the run, so host drift hits both parts alike.
    while round < 3 || out.replays.len() < 2 || t_start.elapsed().as_secs_f64() < args.seconds {
        if out.replays.len() < 2 || sim_s < share * t_start.elapsed().as_secs_f64() {
            let t0 = Instant::now();
            let one_cpu = affinity::one_cpu();
            out.replays_on_one_cpu &= one_cpu.is_some();
            let system = next_sim
                .take()
                .unwrap_or_else(|| SimSystem::build(traffic, sim_sizing));
            out.record_replay(system.replay(&streams, SIM_OPS));
            drop(one_cpu);
            sim_s += t0.elapsed().as_secs_f64();
        }
        for i in 0..labels.len() {
            let label = labels[(i + round) % labels.len()];
            for r in runners.iter_mut().filter(|r| r.label() == label) {
                let s = r.slice(&streams, slice);
                out.record_slice(label, r.traced(), round, s);
            }
        }
        out.host_speed.push(clock::host_speed());
        round += 1;
    }
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <kv-zipf|rmw-hot|sim-hybrid> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    clock::ns_per_tick();
    for line in header::lines(&args) {
        println!("# {line}");
    }
    let run = run(&args);
    for f in &run.failures {
        println!("# FAILED {f}");
    }
    let report = Report::new(&args, &run);
    for line in report.human_lines(&run) {
        println!("{line}");
    }
    println!("{}", report.json(&run));
}
