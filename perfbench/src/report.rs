//! Result records and their JSON form.
//!
//! Every workload returns an [`Outcome`]; `main` adds provenance and prints
//! it as one JSON object on the last line of stdout. The metric and
//! workload names are the contract with `BENCHMARK.json`.

use std::fmt::Write as _;
use std::time::Instant;

use crate::calib::HostSpeed;
use crate::setup::SetupProbe;
use crate::stats;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["stream_dense", "stream_sparse", "sweep_field", "fleet_mac"];

/// End-to-end metrics (untraced run) with their units. `setup_s` is timed
/// by the runner in fresh processes and merged in by `run.py`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("capacity_pkts_per_s", "1/s"),
    ("cpu_ms_per_pkt", "ms"),
    ("delivered_frac", "1"),
];

/// End-to-end rates, which a slower host makes smaller; every other
/// timing metric it makes larger (see [`Outcome::put_at_reference`]).
const RATES: [&str; 1] = ["capacity_pkts_per_s"];

/// Per-layer metrics (traced run) with their units.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("service.detected_per_sent", "1"),
    ("service.decoded_per_detected", "1"),
    ("service.dropped_overrun", "count"),
    ("service.dropped_demod", "count"),
    ("service.dropped_recover", "count"),
    ("service.samples_lost", "count"),
    ("service.frame_queue_depth_mean", "count"),
    ("service.out_queue_depth_mean", "count"),
    ("service.push_us_p95", "us"),
    ("bench.gen_late_ms_max", "ms"),
    ("core.detect_ms_per_block", "ms"),
    ("core.detect_blocks_per_frame", "count"),
    ("core.receive_ms", "ms"),
    ("core.train_ms", "ms"),
    ("core.equalize_ms", "ms"),
    ("core.realtime_ratio", "1"),
    ("mac.recover_us", "us"),
    ("coding.rs_corrected_per_frame", "count"),
    ("coding.erasures_filled_per_frame", "count"),
    ("mac.attempts_per_offered", "1"),
    ("mac.discover_us", "us"),
    ("mac.protect_us", "us"),
    ("sim.render_ms_per_pkt", "ms"),
    ("sim.unit_noise_ms_per_pkt", "ms"),
    ("sim.renoise_ms_per_pkt", "ms"),
    ("sim.sweep_renders", "count"),
    ("bench.unattributed_frac", "1"),
    ("bench.trace_overhead_frac", "1"),
    ("bench.latency_samples", "count"),
];

/// The unit a metric name is declared with, if it is declared at all.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// A workload's result before provenance is attached.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output matched its ground truth or oracle.
    pub correct: bool,
    /// Units of work attempted (frames, packets, attempts).
    pub attempted: u64,
    /// Units whose output was wrong (a mismatch also clears `correct`).
    pub failed: u64,
    /// `(name, value)`; units come from the declarations above.
    pub metrics: Vec<(&'static str, f64)>,
    /// Free-form facts for the provenance block (`key`, JSON value).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Record a metric value.
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.metrics.push((name, value));
    }

    /// Record a provenance fact whose value is already JSON.
    pub fn note(&mut self, key: &str, json_value: impl Into<String>) {
        self.notes.push((key.to_string(), json_value.into()));
    }

    /// Record `setup_s`, the median fresh-process set-up time at the
    /// reference host speed, and the samples as timed.
    pub fn put_setup(&mut self, setup: &SetupProbe) {
        self.put("setup_s", stats::median(&setup.samples).unwrap_or(f64::NAN));
        let list: Vec<String> = setup.raw_s.iter().map(|s| num(*s)).collect();
        self.note("setup_raw_samples_s", format!("[{}]", list.join(",")));
        let raw = stats::median(&setup.raw_s).unwrap_or(f64::NAN);
        self.note("setup_raw_s", num(raw));
    }

    /// Record a timing metric at the reference host speed, given its
    /// value as timed and the host's slowdown over the work: times are
    /// divided by the slowdown and rates multiplied. The value as timed
    /// goes to the provenance block as `raw_<name>`.
    pub fn put_at_reference(&mut self, name: &'static str, timed: f64, slowdown: f64) {
        let value = if RATES.contains(&name) {
            timed * slowdown
        } else {
            timed / slowdown
        };
        self.put(name, value);
        self.note(&format!("raw_{name}"), num(timed));
    }

    /// Record how the host's speed was sampled, and its mean slowdown.
    pub fn note_speed(&mut self, speed: &HostSpeed) {
        self.note("host_slowdown", num(speed.mean()));
        self.note("host_speed_kernel", string(speed.label()));
        self.note("host_speed_samples", speed.count().to_string());
    }

    /// Record p50 and p95 latency from samples as timed and, when given,
    /// the same samples at the reference host speed (reported, with the
    /// percentiles as timed in the provenance block). A percentile with
    /// too few samples beyond it is NaN, which the runner rejects rather
    /// than printing a number that was not measured.
    pub fn put_latency(&mut self, timed: &[f64], scaled: Option<&[f64]>) {
        let p = |xs: &[f64], q| stats::percentile(xs, q).unwrap_or(f64::NAN);
        let shown = scaled.unwrap_or(timed);
        self.put("latency_p50_ms", p(shown, 0.50));
        self.put("latency_p95_ms", p(shown, 0.95));
        if scaled.is_some() {
            self.note("raw_latency_p50_ms", num(p(timed, 0.50)));
            self.note("raw_latency_p95_ms", num(p(timed, 0.95)));
        }
        self.note("latency_samples", timed.len().to_string());
    }
}

/// `(milliseconds, start, end)` samples as timed, and each divided by the
/// host's slowdown around its own span, so that a run which turns slow
/// halfway does not split its percentiles between two modes.
pub fn scale_each(lat: &[(f64, Instant, Instant)], speed: &HostSpeed) -> (Vec<f64>, Vec<f64>) {
    lat.iter()
        .map(|&(ms, t0, t1)| (ms, ms / speed.over(t0, t1)))
        .unzip()
}

/// A finite float as JSON (non-finite values become `null`, which the
/// runner rejects).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// JSON string literal for a plain ASCII value.
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The whole result as one JSON line, provenance under `"provenance"`.
pub fn to_json(o: &Outcome, provenance: &[(String, String)]) -> String {
    let mut s = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.correct, o.attempted, o.failed
    );
    for (i, (name, value)) in o.metrics.iter().enumerate() {
        let unit = unit_of(name).unwrap_or("1");
        let _ = write!(
            s,
            "{}{}:{{\"value\":{},\"unit\":{}}}",
            if i > 0 { "," } else { "" },
            string(name),
            num(*value),
            string(unit)
        );
    }
    s.push_str("},\"provenance\":{");
    for (i, (k, v)) in provenance.iter().chain(o.notes.iter()).enumerate() {
        let _ = write!(s, "{}{}:{}", if i > 0 { "," } else { "" }, string(k), v);
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w), "{w}");
            assert!(seen.insert(w), "duplicate {w}");
        }
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(n), "{n}");
            assert!(valid_unit(u), "{n}: {u}");
            assert!(seen.insert(n), "duplicate {n}");
        }
    }

    /// The declarations here and in `BENCHMARK.json` must agree name for
    /// name and unit for unit.
    #[test]
    fn benchmark_json_matches_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // packaged without the repository root
        };
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
            assert!(text.contains(&entry), "{entry} missing");
        }
        let declared = text.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn json_line_shape() {
        let mut o = Outcome {
            correct: true,
            attempted: 3,
            ..Outcome::default()
        };
        o.put("latency_p50_ms", 1.25);
        let line = to_json(&o, &[("host".into(), string("a\"b"))]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}},\"provenance\":{\"host\":\"a\\\"b\"}}"
        );
        assert_eq!(num(f64::NAN), "null");
    }

    #[test]
    fn reference_speed_scales_times_down_and_rates_up() {
        let mut o = Outcome::default();
        o.put_at_reference("cpu_ms_per_pkt", 10.0, 2.0);
        o.put_at_reference("capacity_pkts_per_s", 50.0, 2.0);
        let timed: Vec<f64> = (1..=40).map(f64::from).collect();
        let scaled: Vec<f64> = timed.iter().map(|x| x / 2.0).collect();
        o.put_latency(&timed, Some(&scaled));
        let get = |n| o.metrics.iter().find(|m| m.0 == n).unwrap().1;
        let note = |n| &o.notes.iter().find(|m| m.0 == n).unwrap().1;
        assert_eq!(get("cpu_ms_per_pkt"), 5.0);
        assert_eq!(get("capacity_pkts_per_s"), 100.0);
        assert_eq!(get("latency_p50_ms"), 10.0);
        assert_eq!(note("raw_cpu_ms_per_pkt"), "10");
        assert_eq!(note("raw_capacity_pkts_per_s"), "50");
        assert_eq!(note("raw_latency_p50_ms"), "20");
        let mut as_timed = Outcome::default();
        as_timed.put_latency(&timed, None);
        assert_eq!(as_timed.metrics[0], ("latency_p50_ms", 20.0));
        assert!(as_timed.notes.iter().all(|n| !n.0.starts_with("raw_")));
    }
}
