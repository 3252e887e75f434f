//! Workload × system × platform matrix used by the figure binaries.

use crate::registry::{self, BackendCaps, BackendVisitor, ReferenceKind, ReferenceVisitor};
use nztm_core::cm::KarmaDeadlock;
use nztm_core::{BackendKind, NzBuilder, NzConfig, Nzstm, TmSys};
use nztm_htm::{AtmtpConfig, BestEffortHtm, HybridConfig, LogTmSe, NztmHybrid};
use nztm_sim::{Machine, MachineConfig, Platform, SimPlatform};
use nztm_workloads::driver::{
    run_genome, run_kmeans, run_set, run_vacation, BenchResult, SetBenchConfig, SetKind,
};
use nztm_workloads::stamp::genome::GenomeConfig;
use nztm_workloads::stamp::kmeans::KmeansConfig;
use nztm_workloads::stamp::vacation::VacationConfig;
use nztm_workloads::{Contention, Host};
use std::sync::Arc;

/// The paper's eleven workloads (§4.2, Figures 3 & 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HashtableHigh,
    HashtableLow,
    RedblackHigh,
    RedblackLow,
    LinkedlistHigh,
    LinkedlistLow,
    Genome,
    KmeansHigh,
    KmeansLow,
    VacationHigh,
    VacationLow,
}

pub const ALL_WORKLOADS: &[Workload] = &[
    Workload::HashtableHigh,
    Workload::HashtableLow,
    Workload::RedblackHigh,
    Workload::RedblackLow,
    Workload::LinkedlistHigh,
    Workload::LinkedlistLow,
    Workload::Genome,
    Workload::KmeansHigh,
    Workload::KmeansLow,
    Workload::VacationHigh,
    Workload::VacationLow,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::HashtableHigh => "hashtable-high",
            Workload::HashtableLow => "hashtable-low",
            Workload::RedblackHigh => "redblack-high",
            Workload::RedblackLow => "redblack-low",
            Workload::LinkedlistHigh => "linkedlist-high",
            Workload::LinkedlistLow => "linkedlist-low",
            Workload::Genome => "genome",
            Workload::KmeansHigh => "kmeans-high",
            Workload::KmeansLow => "kmeans-low",
            Workload::VacationHigh => "vacation-high",
            Workload::VacationLow => "vacation-low",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        ALL_WORKLOADS.iter().copied().find(|w| w.name() == s)
    }
}

/// Command line shared by `fig3` and `fig4`:
/// `[--full] [--sim] [--threads 1,2,4] [--json out.json] [workload ...]`
/// (`--sim` and `--threads` are fig4's).
#[derive(Debug, Default)]
pub struct FigureArgs {
    /// `--full`: [`WorkloadScale::full`] instead of [`WorkloadScale::quick`].
    pub full: bool,
    /// `--sim`: run on the simulator instead of host threads.
    pub sim: bool,
    /// `--threads 1,2,4`: the thread counts to measure.
    pub threads: Option<Vec<usize>>,
    /// `--json PATH`: also write the report as JSON.
    pub json: Option<String>,
    /// The named workloads; every workload when none is named.
    pub workloads: Vec<Workload>,
}

impl FigureArgs {
    /// Parse the arguments after the program name. An unknown flag, a
    /// flag without its value, or any other argument that names no
    /// workload is an error.
    pub fn parse(args: &[String]) -> Result<FigureArgs, String> {
        let mut out = FigureArgs::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => out.full = true,
                "--sim" => out.sim = true,
                "--json" => out.json = Some(args.next().ok_or("--json needs a path")?.clone()),
                "--threads" => {
                    let list = args.next().ok_or("--threads needs a list such as 1,2,4")?;
                    let counts = list
                        .split(',')
                        .map(|t| t.parse().map_err(|_| format!("bad thread count {t:?}")))
                        .collect::<Result<_, _>>()?;
                    out.threads = Some(counts);
                }
                flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
                name => out.workloads.push(Workload::from_name(name).ok_or_else(|| {
                    let valid: Vec<_> = ALL_WORKLOADS.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?}; valid workloads: {}", valid.join(" "))
                })?),
            }
        }
        if out.workloads.is_empty() {
            out.workloads = ALL_WORKLOADS.to_vec();
        }
        Ok(out)
    }

    /// Parse the process arguments and create the `--json` file before
    /// any cell runs, so an unwritable path fails at once. On an error,
    /// print it with `usage` and exit with status 2.
    pub fn from_env(usage: &str) -> (FigureArgs, Option<std::fs::File>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let fail = |msg: String| -> ! {
            eprintln!("error: {msg}\nusage: {usage}");
            std::process::exit(2)
        };
        let parsed = FigureArgs::parse(&args).unwrap_or_else(|e| fail(e));
        let json = parsed.json.as_ref().map(|p| {
            std::fs::File::create(p).unwrap_or_else(|e| fail(format!("cannot create {p}: {e}")))
        });
        (parsed, json)
    }

    pub fn scale(&self) -> WorkloadScale {
        if self.full {
            WorkloadScale::full()
        } else {
            WorkloadScale::quick()
        }
    }
}

/// Problem sizes, tunable so the deterministic simulator finishes a full
/// figure in minutes (`quick`) or with more statistical weight (`full`).
#[derive(Clone, Copy, Debug)]
pub struct WorkloadScale {
    /// Set-microbenchmark operations per thread.
    pub set_ops: u64,
    /// kmeans points (split across threads) and iterations.
    pub kmeans_points: usize,
    pub kmeans_iters: usize,
    /// genome length in bases.
    pub genome_len: usize,
    /// vacation transactions per thread and relations per table.
    pub vacation_txns: u64,
    pub vacation_relations: usize,
    pub seed: u64,
}

impl WorkloadScale {
    pub fn quick() -> Self {
        WorkloadScale {
            set_ops: 200,
            kmeans_points: 384,
            kmeans_iters: 2,
            genome_len: 384,
            vacation_txns: 60,
            vacation_relations: 48,
            seed: 0xF1C,
        }
    }

    pub fn full() -> Self {
        WorkloadScale {
            set_ops: 1_000,
            kmeans_points: 1_024,
            kmeans_iters: 3,
            genome_len: 1_024,
            vacation_txns: 250,
            vacation_relations: 64,
            seed: 0xF1C,
        }
    }
}

/// Whether bench cells should arm the engine flight recorder
/// (`NZTM_BENCH_TRACE=1`). With the `trace` cargo feature off,
/// `set_tracing` is a no-op and reports simply carry no hotspots.
pub fn trace_requested() -> bool {
    std::env::var_os("NZTM_BENCH_TRACE").is_some_and(|v| v == "1")
}

/// Run one workload with system `sys` on every core of `host`.
pub fn run_workload<S: TmSys>(
    host: &Host,
    sys: &Arc<S>,
    w: Workload,
    scale: &WorkloadScale,
) -> BenchResult {
    if trace_requested() {
        sys.set_tracing(true);
    }
    let set = |kind, contention| {
        let cfg = SetBenchConfig {
            kind,
            contention,
            threads: host.threads(),
            ops_per_thread: scale.set_ops,
            seed: scale.seed,
        };
        run_set(host, sys, &cfg)
    };
    match w {
        Workload::HashtableHigh => set(SetKind::HashTable, Contention::High),
        Workload::HashtableLow => set(SetKind::HashTable, Contention::Low),
        Workload::RedblackHigh => set(SetKind::RedBlack, Contention::High),
        Workload::RedblackLow => set(SetKind::RedBlack, Contention::Low),
        Workload::LinkedlistHigh => set(SetKind::LinkedList, Contention::High),
        Workload::LinkedlistLow => set(SetKind::LinkedList, Contention::Low),
        Workload::Genome => {
            run_genome(host, sys, GenomeConfig { genome_len: scale.genome_len, seed: scale.seed })
        }
        Workload::KmeansHigh => {
            run_kmeans(host, sys, KmeansConfig::high(scale.kmeans_points, scale.kmeans_iters))
        }
        Workload::KmeansLow => {
            run_kmeans(host, sys, KmeansConfig::low(scale.kmeans_points, scale.kmeans_iters))
        }
        Workload::VacationHigh => run_vacation(
            host,
            sys,
            VacationConfig::high(scale.vacation_relations, 16),
            scale.vacation_txns,
        ),
        Workload::VacationLow => run_vacation(
            host,
            sys,
            VacationConfig::low(scale.vacation_relations, 16),
            scale.vacation_txns,
        ),
    }
}

/// Figure 3's simulated systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimSystem {
    LogTmSe,
    NztmAtmtp,
    Nzstm,
    Norec,
}

impl SimSystem {
    pub fn name(self) -> &'static str {
        match self {
            SimSystem::LogTmSe => "LogTM-SE",
            SimSystem::NztmAtmtp => "NZTM/ATMTP",
            SimSystem::Nzstm => "NZSTM",
            SimSystem::Norec => "NOREC",
        }
    }
}

pub fn fig3_systems() -> Vec<SimSystem> {
    vec![SimSystem::LogTmSe, SimSystem::NztmAtmtp, SimSystem::Nzstm, SimSystem::Norec]
}

/// Figure 4's native systems (plus the normalization baseline).
pub fn fig4_systems() -> Vec<&'static str> {
    vec!["DSTM2-SF", "BZSTM", "SCSS", "NZSTM", "NOREC"]
}

/// Build a fresh simulated machine with the paper's configuration.
pub fn paper_machine(threads: usize) -> (Arc<Machine>, Arc<SimPlatform>) {
    let machine = Machine::new(MachineConfig::paper(threads));
    let platform = SimPlatform::new(Arc::clone(&machine));
    (machine, platform)
}

/// Like [`fig3_cell`] for the hybrid, with a custom ATMTP configuration
/// (used by the S3 resource-abort claim: our scaled-down transactions
/// need ATMTP's *real* default store-queue depth to feel the paper's
/// resource pressure).
pub fn fig3_hybrid_cell_with_atmtp(
    w: Workload,
    threads: usize,
    scale: &WorkloadScale,
    atmtp: AtmtpConfig,
) -> BenchResult {
    let (machine, platform) = paper_machine(threads);
    hybrid_cell(&Host::Sim(machine), platform, w, scale, atmtp)
}

/// The NZTM hybrid (NZSTM over simulated best-effort HTM) on `host`.
fn hybrid_cell(
    host: &Host,
    platform: Arc<SimPlatform>,
    w: Workload,
    scale: &WorkloadScale,
    atmtp: AtmtpConfig,
) -> BenchResult {
    let stm = Nzstm::new(
        Arc::clone(&platform),
        Arc::new(KarmaDeadlock::default()),
        NzConfig::default(),
    );
    let htm = BestEffortHtm::new(platform, atmtp);
    htm.install();
    let s = NztmHybrid::new(stm, htm, HybridConfig::default());
    let r = run_workload(host, &s, w, scale);
    s.htm().uninstall();
    r
}

/// Run one (workload, system, thread-count) cell of Figure 3.
pub fn fig3_cell(sys: SimSystem, w: Workload, threads: usize, scale: &WorkloadScale) -> BenchResult {
    let (machine, platform) = paper_machine(threads);
    let host = Host::Sim(machine);
    match sys {
        SimSystem::LogTmSe => run_workload(&host, &LogTmSe::new(platform), w, scale),
        SimSystem::Nzstm => {
            let s = Nzstm::new(platform, Arc::new(KarmaDeadlock::default()), NzConfig::default());
            run_workload(&host, &s, w, scale)
        }
        SimSystem::Norec => run_workload(&host, &NzBuilder::new(platform).build_norec(), w, scale),
        SimSystem::NztmAtmtp => hybrid_cell(&host, platform, w, scale, AtmtpConfig::default()),
    }
}

/// Run one (workload, system) cell of Figure 4 on every core of `host`,
/// building the system by its registry name: the [`fig4_systems`], the
/// "GlobalLock" normalization baseline or "DSTM". Natively this is the
/// paper's Rock-machine substitute. On the deterministic simulator it is
/// the configuration the §4.4.2 software comparisons (S4–S6) use here,
/// since host caches are far too large to reproduce Rock-era coherence
/// effects natively.
pub fn fig4_cell(host: &Host, sys_name: &str, w: Workload, scale: &WorkloadScale) -> BenchResult {
    match host {
        Host::Native(p) => registry_cell(Arc::clone(p), host, sys_name, w, scale),
        Host::Sim(m) => registry_cell(SimPlatform::new(Arc::clone(m)), host, sys_name, w, scale),
    }
}

/// Build the registry backend named `name` on `platform` and run `w` on
/// it.
fn registry_cell<P: Platform>(
    platform: Arc<P>,
    host: &Host,
    name: &str,
    w: Workload,
    scale: &WorkloadScale,
) -> BenchResult {
    struct Named<'a, P> {
        platform: Arc<P>,
        host: &'a Host,
        name: &'a str,
        w: Workload,
        scale: &'a WorkloadScale,
        out: Option<BenchResult>,
    }
    impl<P: Platform> Named<'_, P> {
        fn offer<S: TmSys>(&mut self, name: &str, build: impl FnOnce(Arc<P>) -> Arc<S>) {
            if name == self.name {
                let sys = build(Arc::clone(&self.platform));
                self.out = Some(run_workload(self.host, &sys, self.w, self.scale));
            }
        }
    }
    impl<P: Platform> BackendVisitor<P> for Named<'_, P> {
        fn visit<S, F>(&mut self, kind: BackendKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<P>) -> Arc<S>,
        {
            self.offer(kind.name(), build);
        }
    }
    impl<P: Platform> ReferenceVisitor<P> for Named<'_, P> {
        fn visit<S, F>(&mut self, kind: ReferenceKind, _caps: BackendCaps, build: F)
        where
            S: TmSys,
            F: FnOnce(Arc<P>) -> Arc<S>,
        {
            self.offer(kind.name(), build);
        }
    }

    let mut v = Named { platform, host, name, w, scale, out: None };
    registry::for_each_software_backend(&mut v);
    registry::for_each_reference_backend(&mut v);
    v.out.unwrap_or_else(|| panic!("unknown system {name:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<FigureArgs, String> {
        FigureArgs::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn unknown_workload_is_rejected_with_the_valid_names() {
        let err = parse(&["hashtable-lo"]).unwrap_err();
        assert!(err.contains("\"hashtable-lo\""), "{err}");
        for w in ALL_WORKLOADS {
            assert!(err.contains(w.name()), "{err}");
        }
        assert!(parse(&["--ful"]).is_err(), "misspelled flags are rejected too");
    }

    #[test]
    fn known_workloads_are_kept_in_order() {
        let a = parse(&["vacation-low", "--full", "genome"]).unwrap();
        assert_eq!(a.workloads, vec![Workload::VacationLow, Workload::Genome]);
        assert!(a.full);
        assert_eq!(parse(&[]).unwrap().workloads, ALL_WORKLOADS.to_vec());
    }

    #[test]
    fn flag_values_are_never_taken_as_workloads() {
        // Values that are themselves workload names must still bind to
        // their flag.
        let a = parse(&["--json", "genome", "--threads", "1,2", "kmeans-low"]).unwrap();
        assert_eq!(a.json.as_deref(), Some("genome"));
        assert_eq!(a.threads, Some(vec![1, 2]));
        assert_eq!(a.workloads, vec![Workload::KmeansLow]);
        assert!(parse(&["--json"]).is_err(), "a flag without its value");
        assert!(parse(&["--threads", "1,x"]).is_err());
    }
}
