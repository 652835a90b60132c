//! Parsers for the `/proc` files the benchmark samples: host CPU time
//! (for the steal share), this process's CPU time, and its peak RSS.

use std::path::Path;

/// Clock ticks per second of the CPU times `/proc` exports. Linux fixes
/// this `USER_HZ` at 100 for every architecture's user-visible interface.
pub const USER_HZ: u64 = 100;

/// Aggregate host CPU time from the first line of `/proc/stat`, in ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    /// Time the hypervisor ran something else while this guest wanted a CPU.
    pub steal: u64,
}

impl HostCpu {
    /// Share of `later - self` that was stolen (0 when no time passed).
    pub fn steal_frac_until(&self, later: &HostCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        let steal = later.steal.saturating_sub(self.steal);
        crate::stats::ratio(steal as f64, total as f64)
    }
}

/// Parse the aggregate `cpu` line of `/proc/stat`. Guest time is already
/// included in user time, so it is not added again.
pub fn parse_host_cpu(proc_stat: &str) -> Option<HostCpu> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    if fields.len() < 8 {
        return None;
    }
    Some(HostCpu {
        total: fields[..8].iter().sum(),
        steal: fields[7],
    })
}

/// User + system CPU ticks of a process from its `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_process_cpu_ticks(pid_stat: &str) -> Option<u64> {
    let rest = &pid_stat[pid_stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the name come state (field 3) .. utime (14), stime (15).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) in KiB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(pid_status: &str) -> Option<u64> {
    let line = pid_status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(Path::new(path)).ok()
}

/// Current host CPU counters (`None` off Linux).
pub fn host_cpu() -> Option<HostCpu> {
    parse_host_cpu(&read("/proc/stat")?)
}

/// CPU time this process has used so far, in microseconds.
pub fn process_cpu_us() -> Option<u64> {
    parse_process_cpu_ticks(&read("/proc/self/stat")?).map(|t| t * 1_000_000 / USER_HZ)
}

/// Peak resident memory of this process, in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    parse_vm_hwm_kib(&read("/proc/self/status")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpu_sums_the_first_eight_fields() {
        let text = "cpu  100 5 50 1000 20 3 2 40 7 0\ncpu0 50 2 25 500 10 1 1 20 0 0\nintr 1\n";
        let c = parse_host_cpu(text).unwrap();
        assert_eq!(c.total, 100 + 5 + 50 + 1000 + 20 + 3 + 2 + 40);
        assert_eq!(c.steal, 40);
    }

    #[test]
    fn host_cpu_rejects_garbage() {
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_cpu("cpu  1 2 x 4 5 6 7 8\n"), None);
        assert_eq!(parse_host_cpu("intr 5\n"), None);
    }

    #[test]
    fn steal_share_is_a_delta() {
        let a = HostCpu {
            total: 1000,
            steal: 10,
        };
        let b = HostCpu {
            total: 1400,
            steal: 110,
        };
        assert!((a.steal_frac_until(&b) - 0.25).abs() < 1e-12);
        assert_eq!(a.steal_frac_until(&a), 0.0);
    }

    #[test]
    fn process_ticks_survive_parens_in_the_name() {
        let text = "4242 (my (odd) name) S 1 4242 4242 0 -1 4194560 500 0 0 0 \
                    123 45 0 0 20 0 9 0 100 1000 200 18446744073709551615";
        assert_eq!(parse_process_cpu_ticks(text), Some(168));
        assert_eq!(parse_process_cpu_ticks("4242 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let text = "Name:\tperfbench\nVmPeak:\t 900 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(text), Some(524_288));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_files_parse_here() {
        assert!(host_cpu().is_some());
        assert!(process_cpu_us().is_some());
        assert!(peak_rss_kib().unwrap() > 0);
    }
}
