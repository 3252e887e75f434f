//! Confining the simulated cores to one host CPU.
//!
//! The simulator runs one simulated core at a time and hands a token
//! between host threads on every yield. When those threads sit on
//! different CPUs, each hand-off waits for a cross-CPU wake-up, whose
//! latency on a virtualised host depends on the hypervisor more than on
//! the simulator. Replays therefore run with the calling thread, and the
//! simulated-core threads it spawns, confined to one CPU.

/// Restores the calling thread's CPU set when dropped.
pub struct OneCpu {
    #[cfg(target_os = "linux")]
    saved: [u8; imp::SET_BYTES],
}

/// Confine the calling thread to the last CPU it may run on; `None` if
/// the platform cannot.
pub fn one_cpu() -> Option<OneCpu> {
    #[cfg(target_os = "linux")]
    {
        imp::one_cpu()
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::OneCpu;

    /// glibc's `cpu_set_t`: 1024 CPUs.
    pub const SET_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    pub fn one_cpu() -> Option<OneCpu> {
        let mut saved = [0u8; SET_BYTES];
        // SAFETY: `saved` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, SET_BYTES, saved.as_mut_ptr()) } != 0 {
            return None;
        }
        let last = (0..SET_BYTES * 8)
            .rev()
            .find(|&c| saved[c / 8] >> (c % 8) & 1 == 1)?;
        let mut one = [0u8; SET_BYTES];
        one[last / 8] = 1 << (last % 8);
        // SAFETY: `one` is a readable buffer of exactly the size passed.
        let ok = unsafe { sched_setaffinity(0, SET_BYTES, one.as_ptr()) } == 0;
        ok.then_some(OneCpu { saved })
    }

    impl Drop for OneCpu {
        fn drop(&mut self) {
            // SAFETY: `saved` is a readable buffer of exactly the size
            // passed. A failure leaves the thread confined, which slows
            // later phases but is not unsound, so it is ignored.
            unsafe {
                sched_setaffinity(0, SET_BYTES, self.saved.as_ptr());
            }
        }
    }
}
