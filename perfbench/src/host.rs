//! Host accounting from procfs, without new dependencies: process CPU
//! time split into user and system time, and peak resident memory.

use std::sync::OnceLock;

/// Clock ticks per second, from the `AT_CLKTCK` entry of the auxiliary
/// vector (100 on every mainstream Linux configuration).
fn clk_tck() -> f64 {
    static TCK: OnceLock<f64> = OnceLock::new();
    *TCK.get_or_init(|| {
        const AT_CLKTCK: u64 = 17;
        let auxv = std::fs::read("/proc/self/auxv").unwrap_or_default();
        auxv.chunks_exact(16)
            .map(|c| {
                let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
                (word(&c[..8]), word(&c[8..]))
            })
            .find(|&(key, _)| key == AT_CLKTCK)
            .map_or(100.0, |(_, v)| v as f64)
    })
}

/// Process CPU time so far, `(user_s, sys_s)`, summed over all threads
/// (fields 14 and 15 of `/proc/self/stat`). `(0, 0)` where procfs is
/// missing.
pub fn cpu_times() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may contain spaces; fields restart after
    // its closing parenthesis, at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let tck = clk_tck();
    (tick(11) / tck, tick(12) / tck)
}

/// CPU time the hypervisor gave to other guests ("steal", field 8 of the
/// `cpu` line of `/proc/stat`), summed over all CPUs, in seconds. A run
/// that saw much steal ran on a contended host. 0 where procfs is missing.
pub fn steal_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0.0;
    };
    let ticks = stat
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks / clk_tck()
}

/// Peak resident set size of this process in MiB (`VmHWM`). The
/// benchmark runs one workload per process, so this is the workload's
/// peak, set-up and reference runs included.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_sane() {
        let (u0, _) = cpu_times();
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        let (u1, s1) = cpu_times();
        assert!(u1 > u0, "a busy loop must accrue user time");
        assert!(s1 >= 0.0);
        assert!(peak_rss_mib().expect("VmHWM") > 0.0);
    }
}
