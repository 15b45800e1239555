//! Process-level readings from `/proc` (Linux only; the build image has
//! no `libc` crate, so nothing here goes through `getrusage`).

use std::fs;

/// `USER_HZ`: the unit of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Fixed at 100 on every Linux ABI Rust targets
/// (`sysconf(_SC_CLK_TCK)` is not reachable without `libc`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds of the whole process, exited threads
/// included, at 10 ms resolution.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields are
    // positional only after its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let mut tick = |n: usize| -> f64 {
        fields
            .nth(n)
            .and_then(|f| f.parse::<f64>().ok())
            .expect("utime/stime in /proc/self/stat")
    };
    // `rest` starts at field 3; utime and stime are fields 14 and 15.
    let utime = tick(11);
    let stime = tick(0);
    (utime + stime) / CLOCK_TICKS_PER_S
}

/// On-CPU nanoseconds of the calling thread (scheduler accounting, ns
/// resolution) — for single-threaded probes too short for the 10 ms
/// process clock.
pub fn thread_cpu_ns() -> u64 {
    let s = fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    s.split_ascii_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("on-cpu ns in schedstat")
}

/// Jiffies the hypervisor took from this machine's virtual CPUs while
/// they had work (`steal`), and all jiffies, since boot: the first line
/// of `/proc/stat`. The one reading here that is the machine's, not
/// the process's — steal is how a throttled sandbox shows from inside.
pub fn host_steal_and_total_jiffies() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").expect("read /proc/stat");
    // cpu user nice system idle iowait irq softirq steal guest guest_nice
    // (guest time is already inside user, so the sum stops at steal).
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line in /proc/stat")
        .split_ascii_whitespace()
        .take(8)
        .map(|f| f.parse().expect("jiffies in /proc/stat"))
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Cores the scheduler will give this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
