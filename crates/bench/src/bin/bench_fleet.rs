//! Machine-readable multi-tag fleet benchmark: runs the interference-aware
//! MAC harness (`retroturbo_sim::fleet`) over thousands of deterministic
//! tag↔reader sessions and writes `BENCH_fleet.json` — a `meta` provenance
//! block plus one record per fleet size with `{tags, sessions,
//! sessions_per_sec, sum_goodput_p50_bps, sum_goodput_p90_bps,
//! sum_goodput_p99_bps, fairness_p10, fairness_p50, latency_p50_s,
//! latency_p99_s, delivery_rate, mean_attempts, equivalent}`. The schema
//! contract (consumed by `tools/perf_smoke.py` in CI) is documented in
//! `crates/bench/README.md`.
//!
//! Every fleet size is run at 1, 2 and 8 worker threads and the three
//! `FleetReport::canon()` fingerprints are byte-compared: any divergence
//! flips `equivalent` to false and the process exits nonzero, so CI can use
//! this binary as a determinism smoke test in the same way the other bench
//! bins gate on their scalar oracles. Throughput is sessions over wall time
//! at 8 threads.
//!
//! Set `BENCH_FLEET_QUICK=1` for reduced session counts (CI smoke mode);
//! `BENCH_FLEET_OUT` overrides the output path.

use std::io::Write as _;
use std::time::Instant;

use retroturbo_bench::{banner, meta_json};
use retroturbo_runtime::with_threads;
use retroturbo_sim::fleet::{run_fleet, FleetConfig, FleetReport};

const RUN_SEED: u64 = 0xF1EE;

struct Row {
    report: FleetReport,
    sessions_per_sec: f64,
    equivalent: bool,
}

/// Run one fleet size at 1/2/8 worker threads, gate the three canonical
/// fingerprints against each other, and time the 8-thread run.
fn run_size(n_tags: usize, sessions: usize) -> Row {
    let cfg = FleetConfig::new(n_tags);
    let t1 = with_threads(1, || run_fleet(&cfg, sessions, RUN_SEED));
    let t2 = with_threads(2, || run_fleet(&cfg, sessions, RUN_SEED));
    let t0 = Instant::now();
    let t8 = with_threads(8, || run_fleet(&cfg, sessions, RUN_SEED));
    let elapsed = t0.elapsed().as_secs_f64();

    let equivalent = t1.canon() == t2.canon() && t1.canon() == t8.canon();
    if !equivalent {
        eprintln!("# MISMATCH fleet@{n_tags}: thread counts disagree");
        eprintln!("#   t1: {}", t1.canon().trim_end());
        eprintln!("#   t2: {}", t2.canon().trim_end());
        eprintln!("#   t8: {}", t8.canon().trim_end());
    }
    Row {
        report: t8,
        sessions_per_sec: sessions as f64 / elapsed,
        equivalent,
    }
}

fn main() {
    banner(
        "bench-fleet",
        "multi-tag fleet goodput/fairness percentiles -> BENCH_fleet.json",
    );
    let quick = std::env::var("BENCH_FLEET_QUICK").is_ok();
    let sessions: usize = if quick { 48 } else { 1000 };

    let rows: Vec<Row> = [2usize, 4, 8]
        .iter()
        .map(|&n| run_size(n, sessions))
        .collect();

    let mut json = format!(
        "{{\n{},\n  \"fleet\": [\n",
        meta_json(retroturbo_dsp::Backend::detect().label(), quick)
    );
    for (i, r) in rows.iter().enumerate() {
        let rep = &r.report;
        json.push_str(&format!(
            "    {{\"tags\": {}, \"sessions\": {}, \"sessions_per_sec\": {:.1}, \"sum_goodput_p50_bps\": {:.1}, \"sum_goodput_p90_bps\": {:.1}, \"sum_goodput_p99_bps\": {:.1}, \"fairness_p10\": {:.4}, \"fairness_p50\": {:.4}, \"latency_p50_s\": {:.4}, \"latency_p99_s\": {:.4}, \"delivery_rate\": {:.4}, \"mean_attempts\": {:.3}, \"equivalent\": {}}}{}\n",
            rep.tags,
            rep.sessions,
            r.sessions_per_sec,
            rep.sum_goodput_p50_bps,
            rep.sum_goodput_p90_bps,
            rep.sum_goodput_p99_bps,
            rep.fairness_p10,
            rep.fairness_p50,
            rep.latency_p50_s,
            rep.latency_p99_s,
            rep.delivery_rate,
            rep.mean_attempts,
            r.equivalent,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("BENCH_FLEET_OUT").unwrap_or_else(|_| "BENCH_fleet.json".into());
    let mut f = std::fs::File::create(&path).expect("create BENCH_fleet.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_fleet.json");
    eprintln!("# wrote {path}");
    print!("{json}");

    if rows.iter().any(|r| !r.equivalent) {
        eprintln!("# FAIL: fleet aggregate diverged across thread counts");
        std::process::exit(1);
    }
}
