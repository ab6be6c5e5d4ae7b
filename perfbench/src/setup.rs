//! `setup_s`: cold set-up timed in fresh processes, spread over the run,
//! plus the host-speed samples the run takes at the same moments.
//!
//! Set-up is what a user pays once per process, so each sample is a fresh
//! `perfbench setup` child that times one set-up and exits. The host's
//! speed drifts over tens of seconds, so rather than taking every sample at
//! one moment, the measuring run calls [`SetupProbe::tick`] at its phase
//! boundaries (never inside a timed span) and the probe keeps the samples
//! evenly spread over the run. The parent is idle while a child runs, and
//! time spent in children is reported by [`SetupProbe::paused`] so phases
//! can leave it out of their wall time.
//!
//! Each child also samples the host's speed before and after its set-up (see
//! [`crate::calib`]) and prints it with its time; a sample is the child's
//! set-up time over that slowdown. The probe carries the run's own
//! [`HostSpeed`] too, ticked at the same boundaries and likewise left out
//! of the phases' wall and CPU time.

use std::process::Command;
use std::time::{Duration, Instant};

use crate::calib::HostSpeed;

/// Fresh-process set-up samples per run; their median is `setup_s`.
pub const SAMPLES: usize = 15;
/// Host-speed samples each set-up child takes before and again after its
/// set-up.
pub const CHILD_SPEED_SAMPLES: usize = 3;

/// Takes set-up samples in child processes, paced over the run.
pub struct SetupProbe {
    args: Option<Vec<String>>,
    seconds: f64,
    start: Instant,
    paused: Duration,
    /// Each sample's set-up seconds over its child's host slowdown, in
    /// the order taken.
    pub samples: Vec<f64>,
    /// Each sample's set-up seconds as timed.
    pub raw_s: Vec<f64>,
    /// The run's host-speed sampler.
    pub speed: HostSpeed,
}

impl SetupProbe {
    /// A probe for `workload` that re-runs this executable as
    /// `setup --workload … --seed … --seconds …`, and samples host speed
    /// with `speed`.
    pub fn new(workload: &str, seed: u64, seconds: f64, speed: HostSpeed) -> Self {
        let args = [
            "setup",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ]
        .map(String::from)
        .to_vec();
        Self {
            args: Some(args),
            seconds,
            start: Instant::now(),
            paused: Duration::ZERO,
            samples: Vec::new(),
            raw_s: Vec::new(),
            speed,
        }
    }

    /// A probe that never samples (the traced run).
    pub fn off() -> Self {
        Self {
            args: None,
            seconds: 1.0,
            start: Instant::now(),
            paused: Duration::ZERO,
            samples: Vec::new(),
            raw_s: Vec::new(),
            speed: HostSpeed::off(),
        }
    }

    /// Samples due by now: one at the start, then evenly over the run.
    fn due(&self) -> usize {
        let frac = self.start.elapsed().as_secs_f64() / self.seconds;
        1 + ((SAMPLES - 1) as f64 * frac).floor() as usize
    }

    /// Take whatever samples are due, set-up and host speed. Call only
    /// between timed spans.
    pub fn tick(&mut self) {
        self.take(self.due().min(SAMPLES));
        self.speed.tick();
    }

    /// Top up to [`SAMPLES`] at the end of the run, and sample host speed
    /// once more so the last phase has a sample after it.
    pub fn finish(&mut self) {
        self.take(SAMPLES);
        self.speed.sample();
    }

    fn take(&mut self, upto: usize) {
        let Some(args) = &self.args else { return };
        while self.samples.len() < upto {
            let t0 = Instant::now();
            let out = std::env::current_exe()
                .and_then(|exe| Command::new(exe).args(args).output())
                .expect("spawn set-up child");
            self.paused += t0.elapsed();
            let text = String::from_utf8_lossy(&out.stdout);
            let (secs, slowdown) = match (out.status.success(), parse_child(&text)) {
                (true, Some(v)) => v,
                _ => panic!("set-up child failed: {} {text:?}", out.status),
            };
            self.raw_s.push(secs);
            self.samples.push(secs / slowdown);
        }
    }

    /// Wall time spent waiting for children or sampling host speed so far.
    pub fn paused(&self) -> Duration {
        self.paused + self.speed.spent()
    }

    /// This process's CPU seconds spent sampling host speed so far (the
    /// children's CPU is not this process's).
    pub fn cpu_paused_s(&self) -> f64 {
        self.speed.cpu_spent_s()
    }
}

/// A set-up child's output: `<seconds> <slowdown>`.
fn parse_child(text: &str) -> Option<(f64, f64)> {
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    let (secs, slowdown) = (it.next()?.ok()?, it.next()?.ok()?);
    (it.next().is_none() && secs >= 0.0 && slowdown > 0.0).then_some((secs, slowdown))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_paced_over_the_run() {
        let mut p = SetupProbe::off();
        p.seconds = 10.0;
        assert_eq!(p.due(), 1);
        p.start = Instant::now() - Duration::from_secs(5);
        assert_eq!(p.due(), 1 + (SAMPLES - 1) / 2);
        p.start = Instant::now() - Duration::from_secs(20);
        assert!(p.due() > SAMPLES);
        // An off probe takes nothing, however late.
        p.finish();
        assert!(p.samples.is_empty());
    }

    #[test]
    fn child_output_parses() {
        assert_eq!(parse_child("0.25 1.25\n"), Some((0.25, 1.25)));
        assert_eq!(parse_child("0.25"), None);
        assert_eq!(parse_child("0.25 0"), None);
        assert_eq!(parse_child("0.25 1 2"), None);
        assert_eq!(parse_child("x 1"), None);
    }
}
