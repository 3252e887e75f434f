//! The run header: where and how a run was made, so later comparisons
//! can be like-for-like.

use crate::traffic::THREADS;
use crate::Args;
use std::process::Command;

/// The CPU's brand string, from CPUID leaves 0x8000_0002..=0x8000_0004.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for w in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&w.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".into()
}

fn rtm_probe() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("rtm") {
            return "present";
        }
    }
    "absent"
}

/// The source revision, when the benchmark runs from a git checkout.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

pub fn lines(args: &Args) -> Vec<String> {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    vec![
        format!(
            "perfbench workload={} seed={} seconds={} trace={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("host nproc={nproc} cpu=\"{}\" rtm={} (cpuid probe)", cpu_model(), rtm_probe()),
        format!(
            "build rustc=\"{}\" profile=release features=default (stats on, trace off) git_rev={}",
            env!("PERFBENCH_RUSTC"),
            git_rev()
        ),
        format!(
            "shape native: {THREADS} closed-loop workers per engine{}; hybrid: MachineConfig::paper({THREADS}) simulated cores",
            if THREADS > nproc { " (oversubscribed: more workers than cores)" } else { "" }
        ),
    ]
}
