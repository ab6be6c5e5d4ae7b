//! Open-loop due-time accounting.
//!
//! The generator offers samples at a fixed rate whether or not the service
//! keeps up. Sample `i` (0-based) is due at `i / rate` seconds after the
//! run's start, and a frame's latency runs from when its *last* sample was
//! due — not from when the generator actually pushed it. A generator stall
//! therefore shows as latency on every frame queued behind it, instead of
//! silently lowering the offered load the way a closed loop would.

/// A fixed-rate schedule: `rate` samples per second from `t = 0`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    rate: f64,
}

impl Schedule {
    /// A schedule offering `rate` samples per second.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "Schedule: rate must be positive");
        Self { rate }
    }

    /// Seconds after the start at which the samples `[0, end)` have all
    /// been due, i.e. when sample `end - 1` was due to be sent.
    pub fn due_s(&self, end: u64) -> f64 {
        end as f64 / self.rate
    }

    /// How late (s) a send of the samples `[0, end)` at `sent_s` ran; never
    /// negative, since the pacer waits for the due time.
    pub fn late_s(&self, end: u64, sent_s: f64) -> f64 {
        (sent_s - self.due_s(end)).max(0.0)
    }

    /// Latency (s) of a frame whose samples end at `end` and whose event
    /// left the service at `done_s`.
    pub fn latency_s(&self, end: u64, done_s: f64) -> f64 {
        done_s - self.due_s(end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-server queue fed by a pacer that may stall: returns each
    /// frame's completion time. Frames are `frame_len` samples, served in
    /// `service_s` each, pushed when due unless the pacer is held up.
    fn simulate(
        sched: Schedule,
        frames: usize,
        frame_len: u64,
        service_s: f64,
        stall: Option<(usize, f64)>,
    ) -> Vec<f64> {
        let mut pacer_free = 0.0f64;
        let mut server_free = 0.0f64;
        let mut done = Vec::new();
        for k in 0..frames {
            let end = (k as u64 + 1) * frame_len;
            let mut sent = sched.due_s(end).max(pacer_free);
            if let Some((at, secs)) = stall {
                if k == at {
                    sent += secs;
                }
            }
            pacer_free = sent;
            server_free = server_free.max(sent) + service_s;
            done.push(server_free);
        }
        done
    }

    #[test]
    fn due_time_is_last_sample_over_rate() {
        let s = Schedule::new(40_000.0);
        assert_eq!(s.due_s(40_000), 1.0);
        assert_eq!(s.late_s(40_000, 0.9), 0.0);
        assert!((s.late_s(40_000, 1.25) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_stall_raises_the_latency_of_later_frames() {
        let sched = Schedule::new(100_000.0);
        let (n, len, svc) = (12, 10_000u64, 0.02);
        let calm = simulate(sched, n, len, svc, None);
        let stalled = simulate(sched, n, len, svc, Some((4, 0.35)));
        let lat = |done: &[f64]| -> Vec<f64> {
            done.iter()
                .enumerate()
                .map(|(k, &d)| sched.latency_s((k as u64 + 1) * len, d))
                .collect()
        };
        let (a, b) = (lat(&calm), lat(&stalled));
        // Before the stall nothing changes.
        for k in 0..4 {
            assert!((a[k] - b[k]).abs() < 1e-12);
        }
        // The stalled frame and the ones pushed behind it are charged for it.
        for k in 4..8 {
            assert!(b[k] > a[k] + 0.1, "frame {k}: {} vs {}", b[k], a[k]);
        }
        // Once the backlog clears, latency returns to one service time.
        assert!((b[n - 1] - svc).abs() < 1e-12);
    }
}
