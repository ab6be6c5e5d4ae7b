//! `sweep_field`: the Fig. 16a distance grid (4 and 8 kbps) and the
//! Fig. 16c yaw grid (trained and untrained) at the paper protocol of 30 ×
//! 128-byte packets per point, through `SweepEngine` with the render cache
//! on, one thread.
//!
//! A run plays whole *pairs* (one 16a grid, then one 16c grid, each on a
//! fresh engine and a seed derived from the run seed) for as long as the
//! next pair is predicted to fit in the run, so every run measures the
//! same mix of the two grids.

use std::sync::Mutex;
use std::time::Instant;

use retroturbo_core::PhyConfig;
use retroturbo_runtime::{derive_seed, with_threads};
use retroturbo_sim::sweep::workloads::{BerOut, FieldOracle, FieldSweep};
use retroturbo_sim::{GridPoint, LinkBudget, LinkSimulator, Scene, SweepEngine, SweepWorkload};

use crate::calib::HostSpeed;
use crate::layers::CoreProbe;
use crate::report::{scale_each, Outcome};
use crate::setup::SetupProbe;
use crate::stats::{self, ms};
use crate::trace::Tracer;

const PACKETS: usize = 30;
const PAYLOAD_BYTES: usize = 128;
const DISTANCES_M: [f64; 11] = [3.0, 5.0, 6.0, 7.0, 7.5, 8.0, 9.0, 10.0, 10.5, 11.0, 12.0];
const YAWS_DEG: [f64; 8] = [0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 55.0, 60.0];
/// Packets of every grid point replayed through the stages in the traced run.
const REPLAY_PACKETS: u64 = 2;

/// The two figure grids.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Figure {
    /// Fig. 16a: curve 0 = 4 kbps, curve 1 = 8 kbps, x = distance (m).
    Distance,
    /// Fig. 16c: curve 0 = trained, curve 1 = untrained, x = yaw (deg).
    Yaw,
}

/// The simulator for one grid cell, exactly as the figure drivers build it.
fn make(fig: Figure, seed: u64, curve: usize, x: f64) -> LinkSimulator {
    match fig {
        Figure::Distance => {
            let cfg = if curve == 0 {
                PhyConfig::default_4kbps()
            } else {
                PhyConfig::default_8kbps()
            };
            LinkSimulator::new(cfg, LinkBudget::fov10(), Scene::default_at(x), seed)
        }
        Figure::Yaw => {
            let sim = LinkSimulator::new(
                PhyConfig::default_8kbps(),
                LinkBudget::fov10(),
                Scene::default_at(2.5).with_yaw(x),
                seed,
            );
            if curve == 1 {
                sim.without_training()
            } else {
                sim
            }
        }
    }
}

fn workload(fig: Figure, seed: u64) -> FieldSweep<impl Fn(usize, f64) -> LinkSimulator + Sync> {
    FieldSweep {
        make: move |curve, x| make(fig, seed, curve, x),
        n_packets: PACKETS,
        payload_bytes: PAYLOAD_BYTES,
        oracle: FieldOracle::Fused,
    }
}

fn grid(fig: Figure, seed: u64) -> Vec<GridPoint> {
    let xs: &[f64] = match fig {
        Figure::Distance => &DISTANCES_M,
        Figure::Yaw => &YAWS_DEG,
    };
    (0..2)
        .flat_map(|curve| xs.iter().map(move |&x| GridPoint::new(curve, x, seed)))
        .collect()
}

/// A sweep workload that times every `render` and `measure` call of the
/// workload it wraps, leaving its results untouched, and lets the host-speed
/// sampler tick before each `measure` (outside its timed span).
struct Timed<'a, W> {
    inner: W,
    /// `("render" | "measure", start, end)` in call order.
    calls: Mutex<Vec<(&'static str, Instant, Instant)>>,
    speed: Mutex<&'a mut HostSpeed>,
}

impl<W: SweepWorkload> SweepWorkload for Timed<'_, W> {
    type Render = W::Render;
    type Out = W::Out;

    fn render_key(&self, p: &GridPoint) -> Option<u64> {
        self.inner.render_key(p)
    }

    fn render(&self, p: &GridPoint) -> Self::Render {
        let t0 = Instant::now();
        let r = self.inner.render(p);
        self.calls
            .lock()
            .expect("call log poisoned")
            .push(("render", t0, Instant::now()));
        r
    }

    fn measure(&self, p: &GridPoint, cached: Option<&Self::Render>) -> Self::Out {
        self.speed.lock().expect("host speed poisoned").tick();
        let t0 = Instant::now();
        let r = self.inner.measure(p, cached);
        self.calls
            .lock()
            .expect("call log poisoned")
            .push(("measure", t0, Instant::now()));
        r
    }

    fn ber(out: &Self::Out) -> f64 {
        W::ber(out)
    }
}

/// What one grid pass produced.
struct Pass {
    fig: Figure,
    seed: u64,
    rows: Vec<(GridPoint, BerOut)>,
    calls: Vec<(&'static str, Instant, Instant)>,
}

fn run_pass(fig: Figure, seed: u64, speed: &mut HostSpeed) -> Pass {
    let w = Timed {
        inner: workload(fig, seed),
        calls: Mutex::new(Vec::new()),
        speed: Mutex::new(speed),
    };
    let rows = SweepEngine::new(seed).run(&w, grid(fig, seed));
    Pass {
        fig,
        seed,
        rows,
        calls: w.calls.into_inner().expect("call log poisoned"),
    }
}

/// What a run of whole pairs measured.
struct Pairs {
    passes: Vec<Pass>,
    wall_s: f64,
    cpu_s: f64,
    span: (Instant, Instant),
}

impl Pairs {
    fn packets(&self) -> usize {
        self.passes.iter().map(|p| p.rows.len() * PACKETS).sum()
    }
}

/// Play pairs while the next one should fit in `seconds` (at least one).
/// The set-up probe samples between passes (not between points, where a
/// child process would leave the next point's caches cold); host speed is
/// also sampled between points. Their wall and CPU time is left out.
fn run_pairs(seed: u64, seconds: f64, setup: &mut SetupProbe) -> Pairs {
    let cpu0 = stats::process_cpu_s().unwrap_or(0.0) - setup.cpu_paused_s();
    let (t0, p0) = (Instant::now(), setup.paused());
    let mut passes = Vec::new();
    let mut last_pair = 0.0;
    let wall = |setup: &SetupProbe| (t0.elapsed() - (setup.paused() - p0)).as_secs_f64();
    while passes.is_empty() || wall(setup) + last_pair <= seconds {
        let before = wall(setup);
        let s = derive_seed(seed, (passes.len() / 2) as u64);
        setup.tick();
        passes.push(run_pass(Figure::Distance, s, &mut setup.speed));
        setup.tick();
        passes.push(run_pass(Figure::Yaw, s, &mut setup.speed));
        last_pair = wall(setup) - before;
    }
    Pairs {
        passes,
        wall_s: wall(setup),
        cpu_s: stats::process_cpu_s().unwrap_or(0.0) - setup.cpu_paused_s() - cpu0,
        span: (t0, Instant::now()),
    }
}

/// Bit-compare one seeded point per curve of every pass's grid against
/// the no-cache oracle engine (untimed). Returns the mismatching rows.
fn spot_check(pairs: &Pairs) -> u64 {
    let mut failed = 0;
    for pass in &pairs.passes {
        let pick: Vec<GridPoint> = (0..2)
            .map(|curve| {
                let on_curve: Vec<&GridPoint> = pass
                    .rows
                    .iter()
                    .map(|(p, _)| p)
                    .filter(|p| p.curve == curve)
                    .collect();
                *on_curve[(derive_seed(pass.seed, curve as u64) % on_curve.len() as u64) as usize]
            })
            .collect();
        let oracle = SweepEngine::new(pass.seed)
            .no_cache()
            .run(&workload(pass.fig, pass.seed), pick);
        for (p, want) in &oracle {
            let got = pass
                .rows
                .iter()
                .find(|(q, _)| q.curve == p.curve && q.x == p.x);
            let same = got.is_some_and(|(_, o)| {
                o.ber.to_bits() == want.ber.to_bits() && o.snr_db.to_bits() == want.snr_db.to_bits()
            });
            if !same {
                eprintln!(
                    "# MISMATCH sweep {:?} curve {} x {}: {:?} vs oracle {:?}",
                    pass.fig, p.curve, p.x, got, want
                );
                failed += 1;
            }
        }
    }
    failed
}

/// Each packet's latency and its point's span: the point's `measure`
/// time over the point's packets, one sample per packet (packets of a
/// point share the value).
fn packet_latencies_ms(pairs: &Pairs) -> Vec<(f64, Instant, Instant)> {
    pairs
        .passes
        .iter()
        .flat_map(|p| p.calls.iter().filter(|c| c.0 == "measure"))
        .flat_map(|&(_, t0, t1)| {
            std::iter::repeat_n((ms(t1 - t0) / PACKETS as f64, t0, t1), PACKETS)
        })
        .collect()
}

/// Cold set-up: the engine plus one `LinkSimulator::new` per PHY config.
pub fn setup(seed: u64) -> f64 {
    let t0 = Instant::now();
    let engine = SweepEngine::new(seed);
    let sims = [
        make(Figure::Distance, seed, 0, DISTANCES_M[0]),
        make(Figure::Distance, seed, 1, DISTANCES_M[0]),
    ];
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box((engine, sims));
    secs
}

/// The untraced run.
pub fn run(seed: u64, seconds: f64, setup: &mut SetupProbe) -> Outcome {
    let pairs = with_threads(1, || run_pairs(seed, seconds, setup));
    setup.finish();
    let failed = with_threads(1, || spot_check(&pairs));
    let packets = pairs.packets();
    let rows: Vec<f64> = pairs
        .passes
        .iter()
        .flat_map(|p| p.rows.iter().map(|(_, o)| o.ber))
        .collect();
    let mut o = Outcome {
        correct: failed == 0,
        attempted: packets as u64,
        failed,
        ..Outcome::default()
    };
    o.put_setup(setup);
    let (timed, scaled) = scale_each(&packet_latencies_ms(&pairs), &setup.speed);
    o.put_latency(&timed, Some(&scaled));
    let slowdown = setup.speed.over(pairs.span.0, pairs.span.1);
    let capacity = packets as f64 / pairs.wall_s;
    o.put_at_reference("capacity_pkts_per_s", capacity, slowdown);
    let cpu_ms = pairs.cpu_s * 1e3 / packets as f64;
    o.put_at_reference("cpu_ms_per_pkt", cpu_ms, slowdown);
    // Every point carries the same payload bits, so 1 − mean BER is the
    // share of simulated payload bits delivered correctly.
    o.put("delivered_frac", 1.0 - stats::mean(&rows));
    o.put("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    o.note_speed(&setup.speed);
    o.note("sweep_pairs", (pairs.passes.len() / 2).to_string());
    o.note("sweep_points", rows.len().to_string());
    o.note("sweep_threads", "1");
    o
}

/// The traced run: pairs untraced and traced for half of `seconds` each,
/// then a per-packet replay of the link stages on every grid point.
pub fn run_traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut off = SetupProbe::off();
    let plain = with_threads(1, || run_pairs(seed, seconds / 2.0, &mut off));
    let traced = with_threads(1, || run_pairs(seed, seconds / 2.0, &mut off));
    for (pi, pass) in traced.passes.iter().enumerate() {
        for &(kind, t0, t1) in &pass.calls {
            let name = if kind == "render" {
                "sim.sweep_render"
            } else {
                "sim.sweep_measure"
            };
            tracer.record(name, 0, pi as u64, t0, t1);
        }
    }
    let cpu_per = |p: &Pairs| p.cpu_s * 1e3 / p.packets() as f64;

    // Distinct renders per pair: the cache renders these, and re-noises
    // every other packet.
    let s0 = derive_seed(seed, 0);
    let renders: usize = [Figure::Distance, Figure::Yaw]
        .iter()
        .map(|&fig| {
            let w = workload(fig, s0);
            let mut keys: Vec<u64> = grid(fig, s0)
                .iter()
                .filter_map(|p| w.render_key(p))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            keys.len()
        })
        .sum();
    let pair_packets = (DISTANCES_M.len() + YAWS_DEG.len()) * 2 * PACKETS;

    // Replay: the first packets of every point of the first pair through
    // the sweep's stages; on 8 kbps points the first packet also through
    // the receiver's stages.
    let probe = CoreProbe::new(PhyConfig::default_8kbps(), 3);
    for fig in [Figure::Distance, Figure::Yaw] {
        for (item, p) in grid(fig, s0).into_iter().enumerate() {
            let sim = make(fig, s0, p.curve, p.x);
            let is_8kbps = sim.config().pqam_order == PhyConfig::default_8kbps().pqam_order;
            let mut scratch = sim.make_scratch();
            for pk in 0..REPLAY_PACKETS {
                let parent = tracer.open();
                let bits = sim.packet_bits(PAYLOAD_BYTES, pk);
                let wave = tracer.time("sim.render_clean", parent.0, pk, || {
                    sim.render_clean(&mut scratch, &bits)
                });
                let unit = tracer.time("sim.packet_unit_noise", parent.0, pk, || {
                    sim.packet_unit_noise(wave.len(), pk)
                });
                let out = tracer.time("sim.run_packet_renoise", parent.0, pk, || {
                    sim.run_packet_renoise(&mut scratch, &wave, &unit, &bits, pk)
                });
                std::hint::black_box(out);
                if is_8kbps && pk == 0 {
                    let sig = sim.synth_rx_renoise(&mut scratch, &wave, &unit, pk);
                    if let Some((off, _)) = probe.rx.detect_preamble(&sig, 0, sig.len()) {
                        probe.frame(&sig, (off, bits.len()), &[], tracer, (parent.0, pk));
                    }
                }
                tracer.close("bench.replay_packet", parent, 0, item as u64);
            }
        }
    }
    let render_ms = tracer.mean_ms("sim.render_clean");
    let noise_ms = tracer.mean_ms("sim.packet_unit_noise");
    let renoise_ms = tracer.mean_ms("sim.run_packet_renoise");
    // Renders and noise draws happen once per packet of a distinct render.
    let share = (renders * PACKETS) as f64 / pair_packets as f64;
    let busy = (render_ms + noise_ms) * share + renoise_ms;
    let receive_ms = tracer.mean_ms("core.receive_at_with_quality");

    let mut o = Outcome {
        correct: true,
        attempted: (plain.packets() + traced.packets()) as u64,
        ..Outcome::default()
    };
    o.put("core.receive_ms", receive_ms);
    o.put("core.train_ms", tracer.mean_ms("core.train"));
    o.put("core.equalize_ms", tracer.mean_ms("core.equalize"));
    o.put("core.realtime_ratio", 128.0 / receive_ms);
    o.put("sim.render_ms_per_pkt", render_ms);
    o.put("sim.unit_noise_ms_per_pkt", noise_ms);
    o.put("sim.renoise_ms_per_pkt", renoise_ms);
    o.put("sim.sweep_renders", renders as f64);
    o.put("bench.unattributed_frac", 1.0 - busy / cpu_per(&traced));
    o.put(
        "bench.trace_overhead_frac",
        cpu_per(&traced) / cpu_per(&plain) - 1.0,
    );
    o.put(
        "bench.latency_samples",
        packet_latencies_ms(&traced).len() as f64,
    );
    o.note("sweep_threads", "1");
    o
}
