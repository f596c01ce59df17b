//! Sample quantiles, registry deltas and process accounting.

use afc_common::metrics::{HistSnapshot, MetricValue, MetricsSnapshot};

/// Latency samples in nanoseconds, kept whole so quantiles are exact.
#[derive(Default, Clone)]
pub struct Samples(Vec<u64>);

/// The percentiles a tail may be reported at, highest first.
const TAIL_QS: [f64; 5] = [0.99, 0.98, 0.95, 0.90, 0.50];

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.0.push(ns);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sort(&mut self) {
        self.0.sort_unstable();
    }

    /// Nearest-rank quantile in µs of sorted samples (0 when empty).
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let rank = ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len());
        self.0[rank - 1] as f64 / 1000.0
    }
}

/// True when `n` samples leave at least ten beyond quantile `q`.
pub fn supports(n: u64, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() >= 10.0
}

/// The highest of [`TAIL_QS`] that `n` samples support (0.5 when none do).
pub fn tail_q(n: u64) -> f64 {
    TAIL_QS
        .iter()
        .copied()
        .find(|&q| supports(n, q))
        .unwrap_or(0.5)
}

/// Sum of every counter in `snap` whose name satisfies `pred`.
pub fn counter_total(snap: &MetricsSnapshot, pred: impl Fn(&str) -> bool) -> u64 {
    snap.iter()
        .filter_map(|(id, v)| match v {
            MetricValue::Counter(c) if pred(id.name()) => Some(*c),
            _ => None,
        })
        .sum()
}

/// Two registry snapshots bracketing a measured window.
pub struct Delta<'a> {
    pub before: &'a MetricsSnapshot,
    pub after: &'a MetricsSnapshot,
}

impl Delta<'_> {
    /// Growth over the window of every counter whose name satisfies `pred`.
    pub fn sum(&self, pred: impl Fn(&str) -> bool) -> u64 {
        counter_total(self.after, &pred).saturating_sub(counter_total(self.before, &pred))
    }

    /// Counter growth summed over names `<prefix><n>.<suffix>` for any n,
    /// e.g. `("osd", "data.bytes_written")`.
    pub fn sum_of(&self, prefix: &str, suffix: &str) -> u64 {
        let dotted = format!(".{suffix}");
        self.sum(|n| {
            n.strip_prefix(prefix).is_some_and(|rest| {
                rest.strip_suffix(&dotted)
                    .is_some_and(|id| id.bytes().all(|b| b.is_ascii_digit()))
            })
        })
    }

    /// Histogram samples recorded over the window, merged across every
    /// histogram whose name satisfies `pred`.
    pub fn hist(&self, pred: impl Fn(&str) -> bool) -> HistSnapshot {
        let merged = |snap: &MetricsSnapshot| {
            let mut m = HistSnapshot {
                buckets: Vec::new(),
                count: 0,
                sum_us: 0,
            };
            for (id, v) in snap.iter() {
                if let MetricValue::Histogram(h) = v {
                    if pred(id.name()) {
                        m.merge(h);
                    }
                }
            }
            m
        };
        let (after, before) = (merged(self.after), merged(self.before));
        // Cumulative counts only grow, and every histogram shares one
        // bucket layout, so the window's cumulative count at each bound is
        // after's minus before's.
        let before_at = |le: u64| {
            let i = before.buckets.partition_point(|&(b, _)| b <= le);
            i.checked_sub(1).map_or(0, |i| before.buckets[i].1)
        };
        let mut buckets: Vec<(u64, u64)> = Vec::new();
        let mut cum = 0;
        for &(le, c) in &after.buckets {
            let window = c.saturating_sub(before_at(le));
            if window > cum {
                cum = window;
                buckets.push((le, cum));
            }
        }
        HistSnapshot {
            buckets,
            count: cum,
            sum_us: after.sum_us.saturating_sub(before.sum_us),
        }
    }
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `_SC_CLK_TCK` (unistd.h).
const SC_CLK_TCK: i32 = 2;
/// `PR_SET_PDEATHSIG` and `PR_SET_TIMERSLACK` (linux/prctl.h).
const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;
/// `SIGKILL` (signal.h).
const SIGKILL: u64 = 9;

/// Let this thread's timed waits wake within ~1 µs of their deadline
/// instead of the default 50 µs slack, so the driver's short polls time
/// completions closely.
pub fn tighten_timer_slack() {
    // SAFETY: prctl(PR_SET_TIMERSLACK) takes plain integers, touches no
    // memory of ours and only changes this thread's timer slack.
    unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
}

/// Have the kernel kill this process when the thread that started it
/// ends, so that a child never outlives the benchmark.
pub fn die_with_parent() {
    // SAFETY: prctl(PR_SET_PDEATHSIG) takes plain integers, touches no
    // memory of ours and only sets this process's parent-death signal.
    unsafe { prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) };
}

/// utime + stime in µs from a `/proc/.../stat` file (0 if unreadable).
fn stat_cpu_us(path: &str) -> u64 {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 of this tail.
    let Some(tail) = text.rsplit_once(')').map(|(_, t)| t) else {
        return 0;
    };
    let f: Vec<u64> = tail
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|s| s.parse().ok())
        .collect();
    // SAFETY: sysconf only reads a configuration value.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    f.iter().sum::<u64>() * 1_000_000 / hz
}

/// CPU time of the whole process, µs.
pub fn process_cpu_us() -> u64 {
    stat_cpu_us("/proc/self/stat")
}

/// CPU time of the calling thread, µs.
pub fn thread_cpu_us() -> u64 {
    stat_cpu_us("/proc/thread-self/stat")
}

/// Peak resident set size of the process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
