//! [`NzBuilder`]: one front door for constructing engines.
//!
//! The builder is **algorithm-first**: name the algorithm with
//! [`NzBuilder::algorithm`] (or one of the `build_*` shorthands) and the
//! builder checks every knob against that algorithm — invalid
//! combinations fail at [`NzBuilder::try_build`] with a typed
//! [`BuildError`] instead of silently misconfiguring an engine. The
//! expert-mode trait slot is [`NzBuilder::build`]`::<M>`: any
//! [`ModePolicy`] builds through the same checked path.
//!
//! Engines are concrete types (`Arc<NzStm<P, M>>`, never `Arc<dyn …>`),
//! so the compile-time [`ModePolicy`] specialization the paper's §4.4.2
//! measurements depend on is preserved.
//!
//! ```
//! use nztm_core::{Algo, NzBuilder, ReadMode};
//! use nztm_sim::Native;
//!
//! let platform = Native::new(1);
//! platform.register_thread();
//! let stm = NzBuilder::new(platform)
//!     .algorithm(Algo::Nzstm)
//!     .read_mode(ReadMode::Visible)
//!     .patience(256)
//!     .build_nzstm();
//!
//! let obj = stm.new_obj(1u64);
//! stm.run(|tx| tx.write(&obj, &2));
//! assert_eq!(obj.read_untracked(), 2);
//! ```
//!
//! The hybrid backend (§2.4) lives in the `nztm-htm` crate (it needs the
//! best-effort HTM); [`BackendKind::Hybrid`] names it here so harnesses
//! can enumerate all five backends uniformly.

use crate::cm::{ContentionManager, KarmaDeadlock};
use crate::engine::{
    Blocking, ModePolicy, NativeHtmPolicy, Nonblocking, NorecMode, NzConfig, NzStm, ReadMode,
    ScssMode,
};
use nztm_sim::Platform;
use std::sync::Arc;

/// The backends of the evaluation. Construction is per-backend
/// ([`NzBuilder::build_bzstm`] and friends) because each returns a
/// distinct concrete type — the enum exists for naming, CLI parsing,
/// and uniform iteration in harnesses (see the backend registry in
/// `nztm-bench`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Blocking base STM (§2.2). Built by [`NzBuilder::build_bzstm`].
    Bzstm,
    /// Nonblocking via inflation (§2.3.1). [`NzBuilder::build_nzstm`].
    Nzstm,
    /// Nonblocking via SCSS (§2.3.2). [`NzBuilder::build_scss`].
    Scss,
    /// HTM + NZSTM hybrid (§2.4). Built by the `nztm-htm` crate on top
    /// of [`NzBuilder::build_nzstm`].
    Hybrid,
    /// NOrec: value validation + redo log + global sequence lock.
    /// Built by [`NzBuilder::build_norec`].
    Norec,
}

impl BackendKind {
    /// All five, NZTM family first in the paper's presentation order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Bzstm,
        BackendKind::Nzstm,
        BackendKind::Scss,
        BackendKind::Hybrid,
        BackendKind::Norec,
    ];

    /// Evaluation-section name (`BZSTM`, `NZSTM`, `SCSS`, `NZTM`,
    /// `NOREC`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Bzstm => "BZSTM",
            BackendKind::Nzstm => "NZSTM",
            BackendKind::Scss => "SCSS",
            BackendKind::Hybrid => "NZTM",
            BackendKind::Norec => "NOREC",
        }
    }

    /// Parse a case-insensitive backend name (accepts `nztm` and
    /// `hybrid` for [`BackendKind::Hybrid`]).
    pub fn parse(s: &str) -> Option<BackendKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "bzstm" => BackendKind::Bzstm,
            "nzstm" => BackendKind::Nzstm,
            "scss" => BackendKind::Scss,
            "nztm" | "hybrid" => BackendKind::Hybrid,
            "norec" => BackendKind::Norec,
            _ => return None,
        })
    }
}

/// The software compositions [`NzBuilder::algorithm`] can name (the
/// hybrid is assembled by `nztm-htm` around [`Algo::Nzstm`]). Each maps
/// to one shipped [`ModePolicy`]; the expert-mode escape hatch for
/// custom compositions is [`NzBuilder::build`]`::<M>`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    /// [`Blocking`] — BZSTM (§2.2).
    Bzstm,
    /// [`Nonblocking`] — NZSTM (§2.3.1).
    Nzstm,
    /// [`ScssMode`] — NZSTM+SCSS (§2.3.2).
    Scss,
    /// [`NorecMode`] — NOrec.
    Norec,
}

impl Algo {
    /// The matching [`ModePolicy::NAME`].
    pub fn mode_name(self) -> &'static str {
        match self {
            Algo::Bzstm => "BZSTM",
            Algo::Nzstm => "NZSTM",
            Algo::Scss => "SCSS",
            Algo::Norec => "NOREC",
        }
    }
}

/// Why [`NzBuilder::try_build`] refused to construct an engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// [`NzBuilder::algorithm`] named one composition but the build
    /// method instantiated another (e.g. `.algorithm(Algo::Norec)` then
    /// `.build_nzstm()`).
    AlgorithmMismatch {
        /// What [`NzBuilder::algorithm`] asked for.
        requested: Algo,
        /// The [`ModePolicy::NAME`] of the mode actually being built.
        built: &'static str,
    },
    /// A configured knob contradicts the composition being built (e.g.
    /// a read-tracking mode on a value-validating composition).
    IncompatibleKnob {
        /// The mode being built ([`ModePolicy::NAME`]).
        mode: &'static str,
        /// The builder knob at fault.
        knob: &'static str,
        /// Why the combination is meaningless.
        reason: &'static str,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::AlgorithmMismatch { requested, built } => write!(
                f,
                "algorithm mismatch: builder was configured for {} but asked to build {built}",
                requested.mode_name()
            ),
            BuildError::IncompatibleKnob { mode, knob, reason } => {
                write!(f, "knob `{knob}` is incompatible with {mode}: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builder for the software engines. See the [module docs](self).
///
/// Defaults match the paper's configuration: visible reads, Karma +
/// deadlock-detection contention management, patience 128, tracing off.
pub struct NzBuilder<P: Platform> {
    platform: Arc<P>,
    cm: Arc<dyn ContentionManager>,
    cfg: NzConfig,
    /// Composition named via [`NzBuilder::algorithm`], checked against
    /// the mode actually built.
    algo: Option<Algo>,
    /// Whether `read_mode` was set explicitly (compatibility checks
    /// distinguish a deliberate choice from the default).
    read_mode_set: bool,
}

impl<P: Platform> NzBuilder<P> {
    /// Start from the paper's defaults on `platform`.
    pub fn new(platform: Arc<P>) -> Self {
        NzBuilder {
            platform,
            cm: Arc::new(KarmaDeadlock::default()),
            cfg: NzConfig::default(),
            algo: None,
            read_mode_set: false,
        }
    }

    /// Name the composition to build. [`NzBuilder::try_build`] fails
    /// with [`BuildError::AlgorithmMismatch`] if the build method's mode
    /// disagrees — so a harness can thread one `Algo` value through
    /// shared setup code and be sure the engine it gets matches.
    pub fn algorithm(mut self, algo: Algo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Visible (paper default) or invisible read tracking. Only
    /// meaningful for indicator-read compositions; setting it on a
    /// value-validating composition (NOrec) is a [`BuildError`].
    pub fn read_mode(mut self, mode: ReadMode) -> Self {
        self.cfg.read_mode = mode;
        self.read_mode_set = true;
        self
    }

    /// Spin steps to wait for an abort acknowledgement before declaring
    /// the victim unresponsive (ignored by BZSTM).
    pub fn patience(mut self, patience: u64) -> Self {
        self.cfg.patience = patience;
        self
    }

    /// Simulated cycles charged per SCSS store (SCSS backend only).
    pub fn scss_cycles(mut self, cycles: u64) -> Self {
        self.cfg.scss_cycles = cycles;
        self
    }

    /// Thread-placement policy for the shared-metadata layout (registry
    /// slot lines, striped reader-indicator stripes). The default,
    /// [`crate::TopologyPolicy::Flat`], reproduces the seed layout
    /// bit-exactly; `Detect` groups same-NUMA-node threads using the
    /// host's sysfs map; `Synthetic(n)` imposes an `n`-node round-robin
    /// machine for simulator placement studies.
    pub fn topology(mut self, policy: crate::topology::TopologyPolicy) -> Self {
        self.cfg.topology = policy;
        self
    }

    /// Reserve each object's backup-copy lines inside the object's own
    /// block (object–backup colocation). Off by default; turn on to
    /// measure the layout against the pooled-backup baseline. A
    /// [`BuildError`] on backup-free compositions (NOrec).
    pub fn colocate_backup(mut self, on: bool) -> Self {
        self.cfg.colocate_backup = on;
        self
    }

    /// Contention-management policy (default: Karma + deadlock
    /// detection, the paper's §4.3 configuration).
    pub fn cm(mut self, cm: Arc<dyn ContentionManager>) -> Self {
        self.cm = cm;
        self
    }

    /// Use the telemetry-driven adaptive contention manager
    /// ([`crate::cm::Adaptive`]) with `cfg`'s thresholds. Shorthand for
    /// `.cm(Arc::new(Adaptive::new(cfg)))`.
    pub fn adaptive_cm(self, cfg: crate::cm::AdaptiveConfig) -> Self {
        self.cm(Arc::new(crate::cm::Adaptive::new(cfg)))
    }

    /// Native-HTM policy for a hybrid assembled over the built engine
    /// (`nztm-htm` consults it when selecting between the simulated
    /// ATMTP model and the arch-native RTM backend; the software engine
    /// itself ignores it). Default: [`NativeHtmPolicy::Auto`].
    pub fn native_htm(mut self, policy: NativeHtmPolicy) -> Self {
        self.cfg.native_htm = policy;
        self
    }

    /// Arm the flight recorder from construction (no effect unless the
    /// crate is built with the `trace` feature; see [`crate::trace`]).
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.cfg.trace.enabled = enabled;
        self
    }

    /// Per-thread flight-recorder ring capacity, in events.
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.cfg.trace.capacity = events;
        self
    }

    /// Replace the whole engine configuration (escape hatch; the named
    /// setters cover the common knobs). Counts as an explicit
    /// `read_mode` choice for the compatibility checks.
    pub fn config(mut self, cfg: NzConfig) -> Self {
        self.read_mode_set = cfg.read_mode != self.cfg.read_mode || self.read_mode_set;
        self.cfg = cfg;
        self
    }

    /// Check the configuration against mode `M` and build the engine.
    ///
    /// This is the expert-mode trait slot: `M` may be any
    /// [`ModePolicy`]. Fails with a typed [`BuildError`] when
    /// [`NzBuilder::algorithm`] named a different algorithm or a knob
    /// contradicts `M`.
    pub fn try_build<M: ModePolicy>(self) -> Result<Arc<NzStm<P, M>>, BuildError> {
        if let Some(requested) = self.algo {
            if requested.mode_name() != M::NAME {
                return Err(BuildError::AlgorithmMismatch { requested, built: M::NAME });
            }
        }
        if M::NOREC {
            if self.read_mode_set {
                return Err(BuildError::IncompatibleKnob {
                    mode: M::NAME,
                    knob: "read_mode",
                    reason: "value-validating reads are never tracked per object; \
                             there is no visible/invisible choice to make",
                });
            }
            if self.cfg.colocate_backup {
                return Err(BuildError::IncompatibleKnob {
                    mode: M::NAME,
                    knob: "colocate_backup",
                    reason: "a redo-log composition installs no backups to colocate",
                });
            }
        }
        Ok(NzStm::new(self.platform, self.cm, self.cfg))
    }

    /// Build an engine of mode `M`, panicking on a [`BuildError`]. Mode
    /// is usually inferred from the binding
    /// (`let s: Arc<Bzstm<_>> = …builder….build()`); the per-backend
    /// helpers below spell it out.
    pub fn build<M: ModePolicy>(self) -> Arc<NzStm<P, M>> {
        match self.try_build() {
            Ok(s) => s,
            Err(e) => panic!("NzBuilder: {e}"),
        }
    }

    /// Build the blocking base STM (§2.2).
    pub fn build_bzstm(self) -> Arc<NzStm<P, Blocking>> {
        self.build()
    }

    /// Build the nonblocking inflation-based STM (§2.3.1).
    pub fn build_nzstm(self) -> Arc<NzStm<P, Nonblocking>> {
        self.build()
    }

    /// Build the SCSS variant (§2.3.2).
    pub fn build_scss(self) -> Arc<NzStm<P, ScssMode>> {
        self.build()
    }

    /// Build NOrec (value validation + redo log + global seqlock).
    pub fn build_norec(self) -> Arc<NzStm<P, NorecMode>> {
        self.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nztm_sim::Native;

    #[test]
    fn backend_kind_names_round_trip() {
        for k in BackendKind::ALL {
            assert_eq!(BackendKind::parse(k.name()), Some(k));
        }
        assert_eq!(BackendKind::parse("hybrid"), Some(BackendKind::Hybrid));
        assert_eq!(BackendKind::parse("norec"), Some(BackendKind::Norec));
        assert_eq!(BackendKind::parse("nope"), None);
    }

    #[test]
    fn builder_constructs_all_four_software_backends() {
        let p = Native::new(1);
        p.register_thread();
        let b = NzBuilder::new(Arc::clone(&p)).build_bzstm();
        let n = NzBuilder::new(Arc::clone(&p)).patience(64).build_nzstm();
        let s = NzBuilder::new(Arc::clone(&p)).scss_cycles(10).build_scss();
        let r = NzBuilder::new(p).build_norec();
        assert_eq!(b.mode_name(), "BZSTM");
        assert_eq!(n.mode_name(), "NZSTM");
        assert_eq!(s.mode_name(), "SCSS");
        assert_eq!(r.mode_name(), "NOREC");
        let obj = n.new_obj(41u64);
        n.run(|tx| {
            let v = tx.read(&obj)?;
            tx.write(&obj, &(v + 1))
        });
        assert_eq!(obj.read_untracked(), 42);
        let obj = r.new_obj(10u64);
        r.run(|tx| {
            let v = tx.read(&obj)?;
            tx.write(&obj, &(v * 2))
        });
        assert_eq!(obj.read_untracked(), 20);
    }

    #[test]
    fn builder_knobs_reach_the_engine() {
        let p = Native::new(1);
        p.register_thread();
        let s = NzBuilder::new(p).read_mode(ReadMode::Invisible).build_nzstm();
        assert_eq!(s.read_mode(), ReadMode::Invisible);
        assert!(!s.tracing_enabled());
    }

    #[test]
    fn algorithm_mismatch_is_a_typed_error() {
        let p = Native::new(1);
        let err = NzBuilder::new(p)
            .algorithm(Algo::Norec)
            .try_build::<Nonblocking>()
            .err()
            .expect("mismatch must fail");
        assert_eq!(
            err,
            BuildError::AlgorithmMismatch { requested: Algo::Norec, built: "NZSTM" }
        );
        assert!(err.to_string().contains("NOREC"));
    }

    #[test]
    fn algorithm_match_builds() {
        let p = Native::new(1);
        p.register_thread();
        let s = NzBuilder::new(p)
            .algorithm(Algo::Norec)
            .try_build::<NorecMode>()
            .expect("matching composition builds");
        assert_eq!(s.mode_name(), "NOREC");
    }

    #[test]
    fn incompatible_knobs_fail_with_typed_errors() {
        let p = Native::new(1);
        let err = NzBuilder::new(Arc::clone(&p))
            .read_mode(ReadMode::Invisible)
            .try_build::<NorecMode>()
            .err()
            .expect("read_mode on NOrec must fail");
        assert!(matches!(
            err,
            BuildError::IncompatibleKnob { mode: "NOREC", knob: "read_mode", .. }
        ));
        let err = NzBuilder::new(p)
            .colocate_backup(true)
            .try_build::<NorecMode>()
            .err()
            .expect("colocate_backup on NOrec must fail");
        assert!(matches!(
            err,
            BuildError::IncompatibleKnob { mode: "NOREC", knob: "colocate_backup", .. }
        ));
    }

    #[test]
    fn default_knobs_build_norec() {
        let p = Native::new(1);
        p.register_thread();
        // The *default* read mode is not an explicit choice: plain
        // builders construct NOrec fine.
        let s = NzBuilder::new(p).patience(256).build_norec();
        assert_eq!(s.mode_name(), "NOREC");
    }

    #[test]
    fn every_algo_names_a_shipped_composition() {
        for a in [Algo::Bzstm, Algo::Nzstm, Algo::Scss, Algo::Norec] {
            // The Algo names line up with BackendKind's software rows.
            assert!(BackendKind::parse(a.mode_name()).is_some());
        }
    }

    #[test]
    fn norec_gate_is_set_only_by_norec_mode() {
        const {
            assert!(!Blocking::NOREC);
            assert!(!Nonblocking::NOREC);
            assert!(!ScssMode::NOREC);
            assert!(NorecMode::NOREC);
        }
    }
}
