//! Small statistics and process readers shared by every workload:
//! percentiles that refuse to report thin tails, and the peak-RSS and
//! CPU-time readers behind `peak_rss_mb` and `cpu_ms_per_pkt`.

use std::time::Duration;

/// Samples that must lie strictly beyond a percentile before it is
/// reported; fewer means the tail is a handful of outliers, not a level.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. The median of one
/// sample is therefore not reported either: a p50 needs 20 samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = ((s.len() as f64 * q).ceil() as usize).clamp(1, s.len()) - 1;
    let beyond = s.len() - 1 - idx;
    (beyond >= MIN_BEYOND).then(|| s[idx])
}

/// Plain median (mean of the middle pair for even counts); `None` when
/// empty. Used for repeated whole-run measurements, where every sample is
/// itself an aggregate and the tail rule does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    })
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The value of a `Key:   <n> kB` line of a `/proc/<pid>/status` text.
fn status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Peak resident set (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status_kb(&status, "VmHWM").map(|kb| kb as f64 / 1024.0)
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from a `/proc/<pid>/stat` line. The command
/// name (field 2) may hold spaces, so fields are counted after its `)`.
fn stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After `)`: state is field 3 of the full line, utime 14, stime 15.
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// User + system CPU seconds this process has used so far, every thread
/// (including threads that have already exited) counted.
pub fn process_cpu_s() -> Option<f64> {
    stat_cpu_s(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        // 200 samples: p95 sits at rank 190 with exactly 10 beyond it.
        assert_eq!(percentile(&xs, 0.95), Some(190.0));
        assert_eq!(percentile(&xs[..199], 0.95), None);
        assert_eq!(percentile(&xs, 0.5), Some(100.0));
        // 19 samples leave 9 beyond the median: not reported.
        assert_eq!(percentile(&xs[..19], 0.5), None);
        assert_eq!(percentile(&xs[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..400).map(|i| ((i * 7919) % 400) as f64).collect();
        let a = percentile(&xs, 0.95);
        xs.sort_by(f64::total_cmp);
        assert_eq!(a, percentile(&xs, 0.95));
        assert_eq!(a, Some(379.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn status_reader_parses_vmhwm() {
        let text = "Name:\tperfbench\nVmPeak:\t  200 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(status_kb(text, "VmHWM"), Some(51200));
        assert_eq!(status_kb(text, "VmRSS"), Some(40000));
        assert_eq!(status_kb(text, "VmSwap"), None);
        let live = peak_rss_mb().expect("VmHWM readable on Linux");
        assert!(live > 0.5 && live < 1e5, "{live}");
    }

    #[test]
    fn stat_reader_counts_user_and_system_ticks() {
        // A command name with spaces and parentheses must not shift fields.
        let line = "4242 (perf bench (x)) R 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 3 0";
        assert_eq!(stat_cpu_s(line), Some(1.75));
        assert_eq!(stat_cpu_s("garbage"), None);
    }

    #[test]
    fn cpu_reader_sees_work() {
        let before = process_cpu_s().expect("stat readable on Linux");
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(120) {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        std::hint::black_box(x);
        let after = process_cpu_s().unwrap();
        assert!(after - before >= 0.05, "{before} -> {after}");
    }
}
