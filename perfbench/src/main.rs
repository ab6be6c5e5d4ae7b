//! `perfbench`: the repository benchmark's measuring binary. `run.py`
//! builds it and drives it; it can also be run by hand:
//!
//! ```text
//! perfbench setup --workload <name> --seed <n> --seconds <s>
//! perfbench run   --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `setup` times one cold set-up in this (fresh) process, sampling the
//! host's speed before and after it, and prints the seconds and the
//! slowdown; the untraced `run` spawns such children itself, spread over
//! the run, for `setup_s`. `run` plays the workload and prints one JSON
//! line: `correct`, `attempted`, `failed`, `metrics` (end-to-end with
//! `--trace 0`, per-layer with `--trace 1`) and a `provenance` block. The traced run
//! also writes its spans to `.bench_out/trace-<workload>-<seed>.jsonl`.

mod calib;
mod fleet;
mod layers;
mod openloop;
mod report;
mod setup;
mod stats;
mod stream;
mod sweep;
mod trace;

use std::time::{Duration, Instant};

use calib::{HostSpeed, Kernel};
use report::{num, string, Outcome, PER_LAYER, WORKLOADS};
use setup::SetupProbe;
use trace::Tracer;

struct Args {
    cmd: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command (setup | run)")?;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = val == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        cmd,
        workload,
        seed,
        seconds,
        trace,
    })
}

fn setup(a: &Args) -> f64 {
    match a.workload.as_str() {
        "stream_dense" | "stream_sparse" => stream::setup(),
        "sweep_field" => sweep::setup(a.seed),
        _ => fleet::setup(a.seed, a.seconds),
    }
}

/// Threads a workload keeps busy: the service's framer and its one worker
/// on the streams (the pacer and event reader mostly sleep), the single
/// sweep/fleet thread otherwise.
fn busy_threads(workload: &str) -> usize {
    if workload.starts_with("stream") {
        2
    } else {
        1
    }
}

/// The host-speed sampler for a workload: the reference kernel nearest its
/// instruction mix. The sweep samples before every grid point, the others
/// at most five times a second (between sessions, or from the stream's
/// pacer between pushes and at phase boundaries).
fn host_speed(workload: &str) -> HostSpeed {
    let (kernel, every) = match workload {
        "stream_dense" | "stream_sparse" => (Kernel::Simd, Duration::from_millis(200)),
        "sweep_field" => (Kernel::Simd, Duration::ZERO),
        _ => (Kernel::Branchy, Duration::from_millis(200)),
    };
    HostSpeed::new(kernel, every)
}

fn run(a: &Args, tracer: &mut Tracer) -> Outcome {
    let (dense, sparse) = (stream::Shape::dense(), stream::Shape::sparse());
    let speed = host_speed(&a.workload);
    let mut probe = SetupProbe::new(&a.workload, a.seed, a.seconds, speed);
    let setup = &mut probe;
    match (a.workload.as_str(), a.trace) {
        ("stream_dense", false) => stream::run(dense, a.seed, a.seconds, setup),
        ("stream_dense", true) => stream::run_traced(dense, a.seed, a.seconds, tracer),
        ("stream_sparse", false) => stream::run(sparse, a.seed, a.seconds, setup),
        ("stream_sparse", true) => stream::run_traced(sparse, a.seed, a.seconds, tracer),
        ("sweep_field", false) => sweep::run(a.seed, a.seconds, setup),
        ("sweep_field", true) => sweep::run_traced(a.seed, a.seconds, tracer),
        (_, false) => fleet::run(a.seed, a.seconds, setup),
        (_, true) => fleet::run_traced(a.seed, a.seconds, tracer),
    }
}

/// Host and configuration facts every result carries.
fn provenance(a: &Args) -> Vec<(String, String)> {
    use retroturbo_dsp::backend;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let busy = busy_threads(&a.workload);
    let feats = backend::cpu_features()
        .iter()
        .map(|(n, on)| format!("{}:{on}", string(n)))
        .collect::<Vec<_>>()
        .join(",");
    vec![
        ("workload".into(), string(&a.workload)),
        ("seed".into(), a.seed.to_string()),
        ("seconds".into(), num(a.seconds)),
        ("trace".into(), a.trace.to_string()),
        ("available_parallelism".into(), cores.to_string()),
        (
            "backend".into(),
            string(retroturbo_dsp::Backend::detect().label()),
        ),
        (
            "simd_available".into(),
            backend::simd_available().to_string(),
        ),
        ("cpu_features".into(), format!("{{{feats}}}")),
        ("busy_threads".into(), busy.to_string()),
        ("oversubscribed".into(), (busy > cores).to_string()),
    ]
}

fn main() {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match a.cmd.as_str() {
        "setup" => {
            // Host speed is sampled on both sides of the set-up, whose own
            // timing sees none of it.
            let mut speed = host_speed(&a.workload);
            let bracket = |speed: &mut HostSpeed| {
                for _ in 0..setup::CHILD_SPEED_SAMPLES {
                    speed.sample();
                }
            };
            bracket(&mut speed);
            let secs = setup(&a);
            bracket(&mut speed);
            println!("{} {}", num(secs), num(speed.mean()));
        }
        "run" => {
            let mut tracer = Tracer::new(a.trace, Instant::now());
            let mut o = run(&a, &mut tracer);
            if a.trace {
                // Layers a workload does not exercise read 0.
                for (name, _) in PER_LAYER {
                    if !o.metrics.iter().any(|(n, _)| *n == name) {
                        o.put(name, 0.0);
                    }
                }
                let path = format!(".bench_out/trace-{}-{}.jsonl", a.workload, a.seed);
                match tracer.write_jsonl(std::path::Path::new(&path)) {
                    Ok(()) => o.note("trace_file", string(&path)),
                    Err(e) => eprintln!("perfbench: writing {path}: {e}"),
                }
            }
            println!("{}", report::to_json(&o, &provenance(&a)));
            if !o.correct {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("perfbench: unknown command {other}");
            std::process::exit(2);
        }
    }
}
