//! A cheap timestamp for per-transaction timers.
//!
//! `Instant::now()` costs tens of nanoseconds per call on virtualised
//! hosts, which would dominate a ledger that reads the clock around
//! every engine read. On x86_64 the time-stamp counter is read directly
//! and converted to nanoseconds with a rate calibrated against
//! `Instant` once per process; elsewhere ticks are `Instant`
//! nanoseconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// The current tick count.
#[inline(always)]
pub fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC reads a counter register; it has no memory
        // effects and every x86_64 CPU implements it.
        unsafe { std::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        anchor().elapsed().as_nanos() as u64
    }
}

/// Nanoseconds per tick, measured over a short spin the first time.
pub fn ns_per_tick() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let (t0, c0) = (anchor().elapsed(), ticks());
        while anchor().elapsed() - t0 < std::time::Duration::from_millis(20) {
            std::hint::spin_loop();
        }
        let (t1, c1) = (anchor().elapsed(), ticks());
        (t1 - t0).as_nanos() as f64 / (c1 - c0).max(1) as f64
    })
}

/// The host's current speed, in token passes per microsecond of a fixed
/// two-thread probe that uses no code of this repository.
///
/// The probe does the kinds of work the engines do: two threads hand a
/// token back and forth through one shared cache line, and between
/// hand-offs each walks a dependent chain through a private
/// L2-resident buffer. So it slows down with the clock frequency, with
/// contention for the core's caches and with cross-core latency alike.
/// Each sample is the best of three runs, so a preemption does not read
/// as a slow host.
pub fn host_speed() -> f64 {
    (0..3).map(|_| probe_once()).fold(0.0, f64::max)
}

fn probe_once() -> f64 {
    const PASSES: u64 = 2048;
    const LOADS: usize = 64;
    const WORDS: usize = 1 << 16; // 256 KiB of u32
    let token = AtomicU64::new(0);
    let ready = Barrier::new(2);
    let elapsed = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|me| {
                let (token, ready) = (&token, &ready);
                s.spawn(move || {
                    // A single cycle through the buffer in scattered order.
                    let mut chain = vec![0u32; WORDS];
                    let step = 40_503; // odd, so it generates the whole ring
                    for (i, next) in chain.iter_mut().enumerate() {
                        *next = ((i + step) % WORDS) as u32;
                    }
                    let mut at = 0usize;
                    ready.wait();
                    let t0 = Instant::now();
                    for pass in 0..PASSES {
                        let mine = 2 * pass + me;
                        let mut spins = 0u32;
                        while token.load(Ordering::Acquire) != mine {
                            // Yield when the peer is not running, as on
                            // an oversubscribed host.
                            spins += 1;
                            if spins.is_multiple_of(1024) {
                                std::thread::yield_now();
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        for _ in 0..LOADS {
                            at = chain[at] as usize;
                        }
                        token.store(mine + 1, Ordering::Release);
                    }
                    std::hint::black_box(at);
                    t0.elapsed()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("host speed probe thread panicked"))
            .max()
            .expect("two probe threads")
    });
    (2 * PASSES) as f64 / elapsed.as_secs_f64() / 1e6
}
