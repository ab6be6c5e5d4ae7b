//! Host-speed calibration: how much slower than nominal this host ran
//! while a workload ran, so timing metrics can be reported at a fixed
//! reference speed.
//!
//! On a shared virtual host the same code runs up to twice as slowly for
//! stretches of tens of seconds to minutes, when other tenants load the
//! physical cores behind the guest's vCPUs. A run of under a minute then
//! lands wholly in a fast or a slow stretch, and ten runs spread by the
//! gap between the two. Throughput-bound SIMD code slows the most, and
//! branchy scalar code less. So the benchmark interleaves short doses of
//! a fixed reference kernel, which is benchmark code the program never
//! touches, with the workload's own work. A change to the program does
//! not move the kernel; a change in host speed moves both.
//!
//! * [`Kernel::Simd`]: independent f32 multiply-adds over an L1-resident
//!   array, throughput-bound like the receiver's and the simulator's
//!   vector kernels (streams, sweep).
//! * [`Kernel::Branchy`]: an LCG indexing a 1 MiB table with
//!   data-dependent branches, like MAC, CRC and RS code (fleet).
//!
//! A sample is the fastest of [`REPS`] back-to-back doses (so a preempted
//! dose does not count as a slow host) divided by the kernel's nominal
//! dose time. The host's state changes within a run too, so each piece of
//! work is scaled by the samples around it ([`HostSpeed::over`]): a
//! latency by those around its own span (or, on the streams, its
//! segment), a whole-phase rate or CPU time by those over the phase (their
//! mean, not their median, because the work's own slowdown is the time
//! average of the host's state).

use std::time::{Duration, Instant};

use crate::stats;

/// Which reference kernel stands in for a workload's instruction mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    Simd,
    Branchy,
}

impl Kernel {
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Simd => "simd",
            Kernel::Branchy => "branchy",
        }
    }

    /// Milliseconds one dose takes on the reference host: a 2-vCPU KVM
    /// guest on an Intel Xeon (family 6 model 143) in its fast state.
    fn nominal_ms(self) -> f64 {
        match self {
            Kernel::Simd => 0.44,
            Kernel::Branchy => 0.56,
        }
    }
}

/// Doses per sample; the fastest counts.
const REPS: usize = 3;
const SIMD_LEN: usize = 4096;
const SIMD_PASSES: usize = 1000;
const TABLE_LEN: usize = 1 << 19;
const BRANCHY_STEPS: usize = 50_000;

/// One thread's kernel state.
struct Dose {
    kernel: Kernel,
    a: Vec<f32>,
    b: Vec<f32>,
    table: Vec<u16>,
    x: u64,
}

impl Dose {
    fn new(kernel: Kernel) -> Self {
        let (a, b, table) = match kernel {
            Kernel::Simd => (
                vec![1.0; SIMD_LEN],
                (0..SIMD_LEN).map(|i| (i % 7) as f32 * 0.25).collect(),
                Vec::new(),
            ),
            Kernel::Branchy => (
                Vec::new(),
                Vec::new(),
                (0..TABLE_LEN)
                    .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u16)
                    .collect(),
            ),
        };
        Self {
            kernel,
            a,
            b,
            table,
            x: 99,
        }
    }

    fn run_once(&mut self) {
        match self.kernel {
            Kernel::Simd => {
                for _ in 0..SIMD_PASSES {
                    for (a, b) in self.a.iter_mut().zip(&self.b) {
                        *a = *a * 0.9999 + b;
                    }
                    std::hint::black_box(&mut self.a);
                }
            }
            Kernel::Branchy => {
                let (mut x, mut acc) = (self.x, 0u64);
                for _ in 0..BRANCHY_STEPS {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let v = self.table[(x >> 33) as usize % TABLE_LEN];
                    if v & 1 == 1 {
                        acc += u64::from(v);
                    } else if v & 2 == 2 {
                        acc ^= u64::from(v);
                    } else {
                        acc = acc.rotate_left(3);
                    }
                }
                self.x = x;
                std::hint::black_box(acc);
            }
        }
    }

    /// Milliseconds of the fastest of [`REPS`] doses.
    fn sample_ms(&mut self) -> f64 {
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                self.run_once();
                stats::ms(t0.elapsed())
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// Samples the host's speed on the calling thread, at most once per
/// `every`, and remembers when.
pub struct HostSpeed {
    kernel: Option<Kernel>,
    dose: Option<Dose>,
    every: Duration,
    /// `(end, slowdown)` of every sample, in time order.
    samples: Vec<(Instant, f64)>,
    spent: Duration,
    cpu_spent_s: f64,
}

impl HostSpeed {
    /// Sample `kernel` at most once per `every`.
    pub fn new(kernel: Kernel, every: Duration) -> Self {
        Self {
            kernel: Some(kernel),
            dose: Some(Dose::new(kernel)),
            every,
            samples: Vec::new(),
            spent: Duration::ZERO,
            cpu_spent_s: 0.0,
        }
    }

    /// A calibrator that never samples (the traced run).
    pub fn off() -> Self {
        Self {
            kernel: None,
            dose: None,
            every: Duration::MAX,
            samples: Vec::new(),
            spent: Duration::ZERO,
            cpu_spent_s: 0.0,
        }
    }

    /// Take a sample if `every` has passed since the last one. Call only
    /// between timed spans.
    pub fn tick(&mut self) {
        if self
            .samples
            .last()
            .is_none_or(|s| s.0.elapsed() >= self.every)
        {
            self.sample();
        }
    }

    /// Take a sample now.
    pub fn sample(&mut self) {
        let (Some(kernel), Some(dose)) = (self.kernel, self.dose.as_mut()) else {
            return;
        };
        let cpu0 = stats::process_cpu_s().unwrap_or(0.0);
        let t0 = Instant::now();
        let slowdown = dose.sample_ms() / kernel.nominal_ms();
        let now = Instant::now();
        self.samples.push((now, slowdown));
        self.spent += now - t0;
        self.cpu_spent_s += stats::process_cpu_s().unwrap_or(0.0) - cpu0;
    }

    /// Wall time spent sampling so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Process CPU seconds spent sampling so far.
    pub fn cpu_spent_s(&self) -> f64 {
        self.cpu_spent_s
    }

    /// The host's slowdown over `[t0, t1]` (1 = the reference host's fast
    /// state, 2 = twice as slow): the mean of the samples taken in the
    /// span and of the last one before it and the first one after it. 1
    /// when nothing was sampled.
    pub fn over(&self, t0: Instant, t1: Instant) -> f64 {
        let lo = self.samples.partition_point(|s| s.0 < t0).saturating_sub(1);
        let hi = (self.samples.partition_point(|s| s.0 <= t1) + 1).min(self.samples.len());
        let around: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        if around.is_empty() {
            1.0
        } else {
            stats::mean(&around)
        }
    }

    /// The mean slowdown over every sample; 1 when nothing was sampled.
    pub fn mean(&self) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) => self.over(a.0, b.0),
            _ => 1.0,
        }
    }

    pub fn count(&self) -> usize {
        self.samples.len()
    }

    pub fn label(&self) -> &'static str {
        self.kernel.map_or("off", Kernel::label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_paced_and_timed() {
        let mut h = HostSpeed::new(Kernel::Simd, Duration::from_secs(3600));
        h.tick();
        h.tick();
        assert_eq!(h.count(), 1, "second tick came too soon");
        h.sample();
        assert_eq!(h.count(), 2);
        assert!(h.samples.iter().all(|s| s.1 > 0.0 && s.1.is_finite()));
        assert!(h.spent() > Duration::ZERO);
        let m = h.mean();
        assert!(m > 0.0 && m.is_finite(), "{m}");
    }

    #[test]
    fn both_kernels_run() {
        let mut h = HostSpeed::new(Kernel::Branchy, Duration::ZERO);
        h.tick();
        h.tick();
        assert_eq!(h.count(), 2);
        assert_eq!(h.label(), "branchy");
    }

    #[test]
    fn off_never_samples() {
        let mut h = HostSpeed::off();
        h.tick();
        h.sample();
        assert_eq!(h.count(), 0);
        let t = Instant::now();
        assert_eq!((h.mean(), h.over(t, t)), (1.0, 1.0));
        assert_eq!(h.spent(), Duration::ZERO);
    }

    /// A span is scaled by the samples inside it and the nearest on either
    /// side; a host twice as slow reads 2.
    #[test]
    fn over_takes_the_samples_around_a_span() {
        let mut h = HostSpeed::new(Kernel::Simd, Duration::ZERO);
        let t0 = Instant::now();
        let s = Duration::from_secs(1);
        h.samples = vec![(t0, 1.0), (t0 + 10 * s, 2.0), (t0 + 20 * s, 4.0)];
        assert_eq!(h.over(t0 + 2 * s, t0 + 3 * s), 1.5);
        assert_eq!(h.over(t0 + 5 * s, t0 + 15 * s), 7.0 / 3.0);
        assert_eq!(h.over(t0 + 25 * s, t0 + 26 * s), 4.0);
        assert_eq!(h.over(t0 - 5 * s, t0 - 4 * s), 1.0);
        assert_eq!(h.over(t0 + 10 * s, t0 + 10 * s), 7.0 / 3.0);
        assert_eq!(h.mean(), 7.0 / 3.0);
    }
}
