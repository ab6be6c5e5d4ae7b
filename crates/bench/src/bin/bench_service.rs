//! Machine-readable streaming-service benchmark: drives the staged decode
//! pipeline (`retroturbo-service`) to saturation and writes
//! `BENCH_service.json` — a `meta` provenance block plus one record per
//! scenario with `{scenario, workers, frames_in, frames_decoded,
//! frames_degraded, frames_dropped, packets_per_sec, p50_ms, p99_ms,
//! samples_in, samples_lost, frame_queue_depths, out_queue_depths,
//! equivalent}`. The schema contract (consumed by `tools/perf_smoke.py` in
//! CI) is documented in `crates/bench/README.md`.
//!
//! Scenarios:
//!
//! * `saturation@{1,2,8}` — the whole backlog is pushed up front into a
//!   ring large enough to hold it, so the workers run flat out; throughput
//!   is recovered frames over wall time, and p50/p99 are per-frame
//!   detection→recovery latencies at that load. Every recovered payload is
//!   bit-compared against the testbed's ground truth; any mismatch or lost
//!   frame flips `equivalent` to false and the process exits nonzero, so CI
//!   can use this binary as a decode-equivalence smoke test.
//! * `overload` — the same backlog through a ring that only holds two
//!   scenes: the oldest scenes must degrade to erasure placeholders and be
//!   dropped *by accounting* (never silently), while every frame that does
//!   come through must still carry the true payload for its stream
//!   position. Correctness is gated; completeness is not.
//!
//! Set `BENCH_SERVICE_QUICK=1` for reduced frame counts (CI smoke mode);
//! `BENCH_SERVICE_OUT` overrides the output path.

use std::io::Write as _;
use std::time::Instant;

use retroturbo_bench::{banner, meta_json};
use retroturbo_mac::CodingChoice;
use retroturbo_service::{loopback_phy, DecodeService, ServiceEvent, ServiceStats, Testbed};

const RUN_SEED: u64 = 0xBE7C;

struct Row {
    scenario: &'static str,
    workers: usize,
    frames_in: u64,
    stats: ServiceStats,
    packets_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    equivalent: bool,
}

fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * p) as usize).min(sorted.len() - 1);
    sorted[idx]
}

/// Run one scenario: push `frames` scenes (plus a quiet tail) into a
/// service, drain every event, check payloads against ground truth.
fn run_scenario(
    scenario: &'static str,
    bed: &Testbed,
    frames: u64,
    workers: usize,
    ring_scenes: Option<usize>,
) -> Row {
    let scenes: Vec<_> = (0..frames).map(|i| bed.frame(i, RUN_SEED)).collect();
    let scene_len = scenes[0].samples.len();
    let mut cfg = bed.service_config();
    cfg.workers = workers;
    cfg.ring_capacity = match ring_scenes {
        // Saturation: the ring swallows the entire backlog + tail.
        None => (frames as usize + 3) * scene_len,
        Some(n) => n * scene_len,
    };
    let svc = DecodeService::spawn(cfg);
    let input = svc.input();

    let t0 = Instant::now();
    for scene in &scenes {
        input.push(&scene.samples, None);
    }
    if ring_scenes.is_none() {
        // A quiet tail lets the framer flush the final frame. Skipped under
        // overload: pushed last, it would evict the whole backlog from the
        // tiny ring and nothing real would survive to decode.
        input.push(&bed.idle(2 * scene_len), None);
    }
    input.close();

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut decoded = 0u64;
    let mut correct = true;
    while let Some(ev) = svc.recv() {
        if let ServiceEvent::Frame(f) = ev {
            decoded += 1;
            latencies_ms.push(f.latency.as_secs_f64() * 1e3);
            // Every recovered frame must carry the true payload for the
            // stream position it claims — under overload too.
            let index = f.offset / scene_len as u64;
            if f.payload != bed.payload_for(index) {
                eprintln!(
                    "# MISMATCH {scenario}@{workers}: frame at {} wrong payload",
                    f.offset
                );
                correct = false;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = svc.shutdown();

    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let complete = ring_scenes.is_none();
    let equivalent = correct && (!complete || decoded == frames);
    if complete && decoded != frames {
        eprintln!("# MISMATCH {scenario}@{workers}: {decoded}/{frames} frames recovered");
    }
    Row {
        scenario,
        workers,
        frames_in: frames,
        packets_per_sec: decoded as f64 / elapsed,
        p50_ms: percentile_ms(&latencies_ms, 0.50),
        p99_ms: percentile_ms(&latencies_ms, 0.99),
        equivalent,
        stats,
    }
}

fn main() {
    banner(
        "bench-service",
        "streaming decode pipeline throughput/latency -> BENCH_service.json",
    );
    let quick = std::env::var("BENCH_SERVICE_QUICK").is_ok();
    let frames: u64 = if quick { 8 } else { 64 };
    let bed = Testbed::new(
        loopback_phy(2, 4),
        20,
        Some(CodingChoice { n: 44, k: 22 }),
        0x5B,
    )
    .with_snr(35.0);

    let mut rows = Vec::new();
    for &workers in &[1usize, 2, 8] {
        rows.push(run_scenario("saturation", &bed, frames, workers, None));
    }
    rows.push(run_scenario("overload", &bed, frames, 2, Some(2)));

    let mut json = format!(
        "{{\n{},\n  \"service\": [\n",
        meta_json(retroturbo_dsp::Backend::detect().label(), quick)
    );
    for (i, r) in rows.iter().enumerate() {
        let s = &r.stats;
        let depths = |q: &retroturbo_service::QueueDepth| {
            q.counts
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"workers\": {}, \"frames_in\": {}, \"frames_decoded\": {}, \"frames_degraded\": {}, \"frames_dropped\": {}, \"packets_per_sec\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"samples_in\": {}, \"samples_lost\": {}, \"frame_queue_depths\": [{}], \"out_queue_depths\": [{}], \"equivalent\": {}}}{}\n",
            r.scenario,
            r.workers,
            r.frames_in,
            s.frames_decoded,
            s.frames_degraded,
            s.frames_dropped,
            r.packets_per_sec,
            r.p50_ms,
            r.p99_ms,
            s.samples_pushed,
            s.samples_lost,
            depths(&s.frame_queue_depth),
            depths(&s.out_queue_depth),
            r.equivalent,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("BENCH_SERVICE_OUT").unwrap_or_else(|_| "BENCH_service.json".into());
    let mut f = std::fs::File::create(&path).expect("create BENCH_service.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_service.json");
    eprintln!("# wrote {path}");
    print!("{json}");

    if rows.iter().any(|r| !r.equivalent) {
        eprintln!("# FAIL: streaming decode diverged from ground truth");
        std::process::exit(1);
    }
}
