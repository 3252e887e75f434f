//! Where a workload's phases run: native threads or simulated cores.
//!
//! The paper runs one workload set on two platforms — the simulator for
//! Figure 3 and the Rock machine for Figure 4 (§4.3). Every driver in
//! this crate is written once against [`Host`]; what differs between the
//! platforms is only how a phase is started and timed, and that lives
//! here. The simulator's phase boundaries are the reference: a driver
//! does host-side work (building inputs, verifying results) between
//! phases, outside any measured time, on both platforms.

use nztm_sim::sync::Mutex;
use nztm_sim::{Machine, Native, Platform};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// The platform a workload's measured phases run on.
#[derive(Clone)]
pub enum Host {
    /// Real threads, one per core of the [`Native`] platform.
    Native(Arc<Native>),
    /// The cores of a deterministic simulated [`Machine`].
    Sim(Arc<Machine>),
}

impl Host {
    /// Cores a [`Host::parallel`] phase runs on.
    pub fn threads(&self) -> usize {
        match self {
            Host::Native(p) => p.n_cores(),
            Host::Sim(m) => m.config().n_cores,
        }
    }

    /// Run `f` on core 0 alone; return its result and the phase's time.
    ///
    /// * Native: `f` runs on the calling thread, registered as core 0.
    ///   The time is wall-clock nanoseconds.
    /// * Sim: one machine run with `f` on core 0 and every other core
    ///   idle, so allocation and setup transactions are charged to the
    ///   cache model. The time is the run's makespan in simulated cycles.
    pub fn serial<R: Send + 'static>(&self, f: impl FnOnce() -> R + Send + 'static) -> (R, u64) {
        match self {
            Host::Native(p) => {
                p.register_thread_as(0);
                let start = Instant::now();
                let r = f();
                (r, start.elapsed().as_nanos() as u64)
            }
            Host::Sim(m) => {
                let slot = Arc::new(Mutex::new(None));
                let out = Arc::clone(&slot);
                let mut bodies: Vec<Box<dyn FnOnce() + Send>> =
                    vec![Box::new(move || *out.lock() = Some(f()))];
                for _ in 1..m.config().n_cores {
                    bodies.push(Box::new(|| {}));
                }
                let makespan = m.run(bodies).makespan;
                let r = slot.lock().take().expect("core 0 ran the serial phase");
                (r, makespan)
            }
        }
    }

    /// Run `body(tid)` on every core `tid` at once; return the phase's
    /// time.
    ///
    /// * Native: one thread per core, registered as its `tid` and
    ///   released together by a barrier. The time is wall-clock
    ///   nanoseconds from the release until the last thread finishes.
    /// * Sim: one machine run. The time is its makespan in simulated
    ///   cycles — the paper's "elapsed simulated machine cycles".
    pub fn parallel(&self, body: impl Fn(usize) + Send + Sync + 'static) -> u64 {
        let body = Arc::new(body);
        match self {
            Host::Native(p) => {
                let n = p.n_cores();
                let release = Barrier::new(n + 1);
                let start = std::thread::scope(|scope| {
                    for tid in 0..n {
                        let (p, body, release) = (p, &body, &release);
                        scope.spawn(move || {
                            p.register_thread_as(tid);
                            release.wait();
                            body(tid);
                        });
                    }
                    release.wait();
                    Instant::now()
                });
                start.elapsed().as_nanos() as u64
            }
            Host::Sim(m) => {
                let bodies = (0..m.config().n_cores)
                    .map(|tid| {
                        let body = Arc::clone(&body);
                        Box::new(move || body(tid)) as Box<dyn FnOnce() + Send>
                    })
                    .collect();
                m.run(bodies).makespan
            }
        }
    }

    /// Charge `cycles` of non-transactional compute to the calling core
    /// (the platform's [`Platform::work`]).
    pub(crate) fn work(&self, cycles: u64) {
        match self {
            Host::Native(p) => p.work(cycles),
            Host::Sim(m) => m.work(cycles),
        }
    }
}
