//! `stream_dense` and `stream_sparse`: open-loop load on the streaming
//! decode service, a backlog drain for capacity, and a layer replay for
//! the traced run.
//!
//! Both streams carry the paper's 8 kbps PHY with 128-byte payloads under
//! RS(255,223) at 35 dB. Frames come from a bounded pool of pre-rendered
//! `Testbed` scenes (frame `k` replays scene `k mod POOL` and must decode
//! to `Testbed::payload_for(k mod POOL)`), so input buffers stay small and
//! do not dominate `peak_rss_mb`.
//!
//! * dense: frames back to back at the testbed's 177-sample pad.
//! * sparse: an idle gap of 1–3 frame lengths (noise only) before every
//!   frame, and in every group of eight frames two carry a seeded blockage
//!   burst, pushed as zeros flagged unreliable. Gaps are stratified per
//!   group (a seeded permutation of eight evenly spaced levels, jittered)
//!   and drawn from a fixed layout seed (see [`LAYOUT_SEED`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use retroturbo_core::{PhyConfig, Receiver};
use retroturbo_dsp::noise::{sigma_for_snr, NoiseSource};
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;
use retroturbo_mac::{recover_with_quality, CodingChoice};
use retroturbo_runtime::derive_seed;
use retroturbo_service::{
    DecodeService, FrameScene, ServiceConfig, ServiceEvent, ServiceStats, Testbed,
};

use crate::calib::HostSpeed;
use crate::layers::CoreProbe;
use crate::openloop::Schedule;
use crate::report::{num, Outcome};
use crate::setup::SetupProbe;
use crate::stats;
use crate::trace::Tracer;

/// The real-time sample rate of the 8 kbps PHY (40 kS/s).
const REALTIME_SPS: f64 = 40_000.0;
const PAYLOAD_BYTES: usize = 128;
const CODING: CodingChoice = CodingChoice { n: 255, k: 223 };
const SCRAMBLE: u8 = 0x5B;
const SNR_DB: f64 = 35.0;
/// Pre-rendered scenes replayed round-robin.
const POOL: usize = 16;
/// The framer's scan block (offsets per detector call).
const SCAN_BLOCK: usize = 512;
/// Samples per generator push.
const CHUNK: usize = 2048;
/// Frames per stratification group (gaps and bursts).
const GROUP: u64 = 8;
/// Seed of the sparse gap sequence, the same in every run. Under the known
/// framer defect (see README) whether a frame is delivered is decided by
/// where the framer's scan grid falls relative to its preamble, which the
/// gaps before it decide; with gaps drawn per run, `delivered_frac` would
/// vary from seed to seed like a ~200-frame binomial (about 23 % between
/// quartiles). The run seed still draws the noise, the scenes and the
/// blockage bursts.
const LAYOUT_SEED: u64 = 1;
/// A detected offset within this many samples (half a slot) of a frame's
/// true start is that frame; anything else is at the wrong offset.
const OFFSET_TOL: u64 = 10;
/// Open-loop ring: about ten dense frames.
const RING: usize = 1 << 17;
/// Share of an untraced run spent on backlog drains (the rest is open loop).
const CAPACITY_SHARE: f64 = 0.3;
/// First frame of the backlog drains' stream, far past any open loop's.
const DRAIN_FIRST_FRAME: u64 = 1 << 20;
/// Open-loop/drain cycles in an untraced run.
const CYCLES: usize = 4;
/// Share of a traced run each open-loop pass (untraced, traced) takes.
const TRACED_SHARE: f64 = 0.4;
/// Events the open loop waits for past its nominal length, so that the p95
/// has at least ten samples beyond it.
const MIN_EVENTS: usize = 220;
/// Frames replayed through the layers in the traced run.
const REPLAY_FRAMES: usize = 16;
/// Uncoded payload airtime at 8 kbps (128 B × 8 / 8000 bit/s), the
/// paper's §7.2.2 yardstick.
const PAYLOAD_AIRTIME_MS: f64 = PAYLOAD_BYTES as f64 * 8.0 / 8.0;

/// What distinguishes the two stream workloads.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Gaps and bursts on (`stream_sparse`) or off (`stream_dense`).
    sparse: bool,
    /// Offered load as a multiple of the 40 kS/s real-time rate.
    rate_x: f64,
    /// Idle gap before each frame, in frame lengths (min, max).
    gap_frames: (f64, f64),
    /// Frames per group of eight that carry a blockage burst.
    bursts_per_group: u64,
    /// Blockage burst length in samples (min, max).
    burst_len: (usize, usize),
    /// Frames in the capacity backlog (a multiple of the group size).
    backlog_frames: u64,
}

impl Shape {
    /// `stream_dense`: back to back at 10× real time (~33 frames/s), about
    /// half the ~60–90 frames/s a one-worker service drains on a 2-vCPU
    /// Xeon guest.
    pub fn dense() -> Self {
        Self {
            sparse: false,
            rate_x: 10.0,
            gap_frames: (0.0, 0.0),
            bursts_per_group: 0,
            burst_len: (0, 0),
            backlog_frames: 32,
        }
    }

    /// `stream_sparse`: idle gaps and blockage bursts at 6.5× real time
    /// (~7 frames/s), about half of its framer-bound capacity.
    pub fn sparse() -> Self {
        Self {
            sparse: true,
            rate_x: 6.5,
            gap_frames: (1.0, 3.0),
            bursts_per_group: 2,
            burst_len: (80, 400),
            backlog_frames: 8,
        }
    }
}

/// `[0, 1)` from a seed.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded layout of one stream frame.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Layout {
    /// Idle samples before the scene.
    gap: usize,
    /// Pool scene index.
    pool: usize,
    /// Blockage `(start within the scene, length)`.
    burst: Option<(usize, usize)>,
}

/// Pre-rendered inputs shared by every phase of a run.
struct Bed {
    testbed: Testbed,
    shape: Shape,
    seed: u64,
    scenes: Vec<FrameScene>,
    /// Noise-only idle samples that gaps are cut from.
    idle: Vec<C64>,
    /// Quiet tail pushed after the last frame so the framer flushes it.
    tail: Vec<C64>,
    scene_len: usize,
    /// Payload symbol region within a scene: `[start, end)`.
    payload: (usize, usize),
    n_bits: usize,
}

impl Bed {
    /// Render the scene pool and idle noise for `seed`.
    fn new(shape: Shape, seed: u64) -> Self {
        let cfg = PhyConfig::default_8kbps();
        let testbed = Testbed::new(cfg, PAYLOAD_BYTES, Some(CODING), SCRAMBLE).with_snr(SNR_DB);
        let scenes: Vec<FrameScene> = (0..POOL as u64).map(|j| testbed.frame(j, seed)).collect();
        let scene_len = scenes[0].samples.len();
        let n_bits = testbed.service_config().n_bits;
        let spt = cfg.samples_per_slot();
        let pay_start =
            scenes[0].offset + (cfg.preamble_slots + cfg.training_rounds * cfg.l_order) * spt;
        let pay_end = pay_start + n_bits.div_ceil(cfg.bits_per_symbol()) * spt;
        let max_gap = (shape.gap_frames.1 * scene_len as f64).ceil() as usize;
        let mut idle = testbed.idle(2 * max_gap);
        NoiseSource::new(derive_seed(seed, 0x1D1E))
            .add_awgn(&mut idle, sigma_for_snr(SNR_DB, testbed.gain));
        let tail = testbed.idle(2 * scene_len);
        Self {
            testbed,
            shape,
            seed,
            scenes,
            idle,
            tail,
            scene_len,
            payload: (pay_start, pay_end),
            n_bits,
        }
    }

    fn layout(&self, k: u64) -> Layout {
        let pool = (k % POOL as u64) as usize;
        if !self.shape.sparse {
            return Layout {
                gap: 0,
                pool,
                burst: None,
            };
        }
        let (g, i) = (k / GROUP, k % GROUP);
        // Gaps come from the fixed layout seed, bursts from the run seed.
        let key = |j: u64, salt: u64| {
            let seed = if salt < 3 { LAYOUT_SEED } else { self.seed };
            derive_seed(derive_seed(seed, salt), g * GROUP + j)
        };
        // Rank of frame i among its group under a seeded shuffle.
        let rank = |salt: u64| (0..GROUP).filter(|&j| key(j, salt) < key(i, salt)).count() as f64;
        let (lo, hi) = self.shape.gap_frames;
        let level = (rank(1) + unit(key(i, 2))) / GROUP as f64;
        let gap = ((lo + (hi - lo) * level) * self.scene_len as f64) as usize;
        let burst = ((rank(3) as u64) < self.shape.bursts_per_group).then(|| {
            let (bmin, bmax) = self.shape.burst_len;
            let len = bmin + (unit(key(i, 4)) * (bmax - bmin) as f64) as usize;
            let span = self.payload.1 - self.payload.0 - len;
            (
                self.payload.0 + (unit(key(i, 5)) * span as f64) as usize,
                len,
            )
        });
        Layout { gap, pool, burst }
    }

    fn expected_payload(&self, pool: usize) -> Vec<u8> {
        self.testbed.payload_for(pool as u64)
    }

    /// The service configuration every phase spawns.
    fn service_config(&self, ring: usize) -> ServiceConfig {
        let mut cfg = self.testbed.service_config();
        cfg.workers = 1;
        cfg.ring_capacity = ring;
        cfg
    }
}

/// Ground truth for one generated frame.
#[derive(Debug, Clone, Copy)]
struct FrameRec {
    pool: usize,
    /// Absolute offset of the frame start (after the scene pad).
    true_off: u64,
    /// Absolute index one past the scene's last sample.
    end: u64,
}

enum Seg {
    Gap {
        left: usize,
        from: usize,
        lay: Layout,
    },
    Frame {
        at: usize,
        lay: Layout,
    },
}

/// Emits the stream sample by sample into push-sized chunks.
struct Gen<'a> {
    bed: &'a Bed,
    k: u64,
    seg: Seg,
    pos: u64,
    frames: Vec<FrameRec>,
}

impl<'a> Gen<'a> {
    fn new(bed: &'a Bed) -> Self {
        Self::at(bed, 0)
    }

    /// A stream whose first frame is frame `k` of the seeded sequence.
    fn at(bed: &'a Bed, k: u64) -> Self {
        Self {
            bed,
            k,
            seg: Self::gap(bed, k, bed.layout(k)),
            pos: 0,
            frames: Vec::new(),
        }
    }

    fn gap(bed: &Bed, k: u64, lay: Layout) -> Seg {
        let room = bed.idle.len() - lay.gap;
        let from = (unit(derive_seed(bed.seed ^ 0x6A9, k)) * room as f64) as usize;
        Seg::Gap {
            left: lay.gap,
            from,
            lay,
        }
    }

    /// True between frames: every frame started so far is complete.
    fn at_boundary(&self) -> bool {
        matches!(self.seg, Seg::Gap { .. })
    }

    /// Append up to `n` samples and their unreliability flags, stopping
    /// early right after a frame's last sample. Returns whether any
    /// appended sample is flagged.
    fn fill(&mut self, out: &mut Vec<C64>, mask: &mut Vec<bool>, n: usize) -> bool {
        let mut flagged = false;
        let target = out.len() + n;
        while out.len() < target {
            let want = target - out.len();
            match &mut self.seg {
                Seg::Gap { left, from, lay } => {
                    let take = want.min(*left);
                    out.extend_from_slice(&self.bed.idle[*from..*from + take]);
                    mask.resize(out.len(), false);
                    *from += take;
                    *left -= take;
                    self.pos += take as u64;
                    if *left == 0 {
                        let lay = *lay;
                        let scene = &self.bed.scenes[lay.pool];
                        self.frames.push(FrameRec {
                            pool: lay.pool,
                            true_off: self.pos + scene.offset as u64,
                            end: self.pos + scene.samples.len() as u64,
                        });
                        self.seg = Seg::Frame { at: 0, lay };
                    }
                }
                Seg::Frame { at, lay } => {
                    let scene = &self.bed.scenes[lay.pool].samples;
                    let take = want.min(scene.len() - *at);
                    let base = out.len();
                    out.extend_from_slice(&scene[*at..*at + take]);
                    mask.resize(out.len(), false);
                    if let Some((b0, blen)) = lay.burst {
                        let (lo, hi) = (b0.max(*at), (b0 + blen).min(*at + take));
                        for i in lo..hi {
                            out[base + i - *at] = C64::new(0.0, 0.0);
                            mask[base + i - *at] = true;
                            flagged = true;
                        }
                    }
                    *at += take;
                    self.pos += take as u64;
                    if *at == scene.len() {
                        self.k += 1;
                        let lay = self.bed.layout(self.k);
                        self.seg = Self::gap(self.bed, self.k, lay);
                        break;
                    }
                }
            }
        }
        flagged
    }

    /// Emit whole frames until `n` have been generated in total.
    fn fill_frames(&mut self, out: &mut Vec<C64>, mask: &mut Vec<bool>, n: usize) {
        while self.frames.len() < n || !self.at_boundary() {
            self.fill(out, mask, CHUNK);
        }
    }
}

/// One open-loop latency sample.
#[derive(Debug)]
struct Latency {
    /// From when the frame's last sample was due to when its event left
    /// `recv`.
    ms: f64,
    /// The part the service reports as its own processing
    /// (`ServiceFrame::latency`, detection to recovered payload); 0 for a
    /// drop, which reports none.
    service_ms: f64,
    /// The open-loop segment it came from.
    segment: (Instant, Instant),
}

/// How service events scored against ground truth.
#[derive(Debug, Default)]
struct Score {
    delivered: u64,
    failed: u64,
    /// Latency of every event attributable to a sent frame.
    latencies: Vec<Latency>,
    rs_corrected: Vec<f64>,
    erasures_filled: Vec<f64>,
}

impl Score {
    /// Check every event against the frames sent. Event offsets are
    /// relative to the service's own stream, which began at absolute sample
    /// `base`. A `Frame` must sit within [`OFFSET_TOL`] of a frame's true
    /// start and carry that frame's payload, otherwise it is a failure
    /// (never a delivery). Each event is charged to the first frame whose
    /// last sample is at or after its offset; with a schedule and the
    /// segment's span, its latency runs from when that sample was due to
    /// when the event left `recv`.
    fn add(
        &mut self,
        bed: &Bed,
        frames: &[FrameRec],
        base: u64,
        events: &[(ServiceEvent, Instant)],
        clock: Option<(Schedule, (Instant, Instant))>,
    ) {
        let mut got = vec![false; frames.len()];
        for (ev, done) in events {
            let off = base + event_offset(ev);
            if let ServiceEvent::Frame(f) = ev {
                let at = frames.partition_point(|r| r.true_off + OFFSET_TOL < off);
                let ok = frames.get(at).is_some_and(|r| {
                    r.true_off.abs_diff(off) <= OFFSET_TOL
                        && f.payload == bed.expected_payload(r.pool)
                });
                if ok && !got[at] {
                    got[at] = true;
                    self.delivered += 1;
                    self.rs_corrected.push(f.symbols_corrected as f64);
                    self.erasures_filled.push(f.erasures_filled as f64);
                } else {
                    eprintln!("# MISMATCH frame event at offset {off} (seq {})", f.seq);
                    self.failed += 1;
                }
            }
            let owner = frames.partition_point(|r| r.end < off);
            if let (Some(r), Some((sched, segment))) = (frames.get(owner), clock) {
                let done_s = done.saturating_duration_since(segment.0).as_secs_f64();
                let service_ms = match ev {
                    ServiceEvent::Frame(f) => f.latency.as_secs_f64() * 1e3,
                    ServiceEvent::Dropped { .. } => 0.0,
                };
                self.latencies.push(Latency {
                    ms: 1e3 * sched.latency_s(r.end - base, done_s),
                    service_ms,
                    segment,
                });
            }
        }
    }
}

fn event_offset(ev: &ServiceEvent) -> u64 {
    match ev {
        ServiceEvent::Frame(f) => f.offset,
        ServiceEvent::Dropped { offset, .. } => *offset,
    }
}

/// What the open loop measured, summed over its segments.
#[derive(Default)]
struct OpenLoop {
    sent: u64,
    score: Score,
    /// The last segment's service accounting.
    stats: ServiceStats,
    samples_lost: u64,
    cpu_s: f64,
    /// Each segment's CPU seconds and span.
    cpu_spans: Vec<(f64, Instant, Instant)>,
    late_ms_max: f64,
}

/// One open-loop segment: a fresh one-worker service fed the stream from
/// where `gen` stands, at the shape's fixed rate, for `dur` — longer, up to
/// twice `dur`, while fewer than `min_events` events have come back in the
/// whole open loop. Then the frame in flight is finished, the quiet tail
/// pushed and every event drained. The caller's thread paces, and samples
/// host speed between pushes; one helper thread reads events.
fn segment(
    bed: &Bed,
    gen: &mut Gen,
    dur: Duration,
    min_events: usize,
    (tracer, speed): (&mut Tracer, &mut HostSpeed),
    ol: &mut OpenLoop,
) {
    let sched = Schedule::new(bed.shape.rate_x * REALTIME_SPS);
    let svc = DecodeService::spawn(bed.service_config(RING));
    let input = svc.input();
    let (base, first) = (gen.pos, gen.frames.len());
    let (mut buf, mut mask) = (Vec::with_capacity(CHUNK), Vec::with_capacity(CHUNK));
    let seen = AtomicUsize::new(ol.score.latencies.len());
    let cpu0 = stats::process_cpu_s().unwrap_or(0.0) - speed.cpu_spent_s();
    let t0 = Instant::now();
    let events = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut v = Vec::new();
            while let Some(ev) = svc.recv() {
                v.push((ev, Instant::now()));
                seen.fetch_add(1, Ordering::Relaxed);
            }
            v
        });
        loop {
            let elapsed = t0.elapsed();
            let enough = seen.load(Ordering::Relaxed) >= min_events;
            if gen.at_boundary() && (elapsed >= 2 * dur || (elapsed >= dur && enough)) {
                break;
            }
            buf.clear();
            mask.clear();
            // Chunks end at frame ends, so a frame's last sample is pushed
            // exactly when it is due.
            let flagged = gen.fill(&mut buf, &mut mask, CHUNK);
            let end = gen.pos - base;
            let due = t0 + Duration::from_secs_f64(sched.due_s(end));
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let late_s = sched.late_s(end, sent.saturating_duration_since(t0).as_secs_f64());
            ol.late_ms_max = ol.late_ms_max.max(late_s * 1e3);
            input.push(&buf, flagged.then_some(&mask[..]));
            tracer.record("service.push", 0, gen.k, sent, Instant::now());
            speed.tick();
        }
        input.push(&bed.tail, None);
        input.close();
        reader.join().expect("event reader panicked")
    });
    let cpu_s = stats::process_cpu_s().unwrap_or(0.0) - speed.cpu_spent_s() - cpu0;
    ol.cpu_s += cpu_s;
    let t1 = Instant::now();
    ol.cpu_spans.push((cpu_s, t0, t1));
    let stats = svc.shutdown();
    ol.samples_lost += stats.samples_lost;
    ol.stats = stats;
    let frames = &gen.frames[first..];
    ol.sent += frames.len() as u64;
    ol.score
        .add(bed, frames, base, &events, Some((sched, (t0, t1))));
    if tracer.on() {
        for (ev, done) in &events {
            let owner = frames.partition_point(|r| r.end < base + event_offset(ev));
            if let Some(r) = frames.get(owner) {
                let due = t0 + Duration::from_secs_f64(sched.due_s(r.end - base));
                tracer.record("bench.frame_latency", 0, (first + owner) as u64, due, *done);
            }
        }
    }
}

/// The next capacity backlog from `gen`: `backlog_frames` frames padded
/// with quiet samples to a length that does not depend on the seed, then
/// the quiet tail. Returns the samples, their flags, where they start in
/// `gen`'s stream, and the frames (in `gen.frames`, from index `first`).
fn backlog(bed: &Bed, gen: &mut Gen) -> (Vec<C64>, Vec<bool>, u64, usize) {
    let n = bed.shape.backlog_frames as usize;
    let (lo, hi) = bed.shape.gap_frames;
    // The largest gap total a stratified group can draw (see `layout`).
    let group_gaps = GROUP as f64 * lo + (hi - lo) * (GROUP + 1) as f64 / 2.0;
    let groups = (n as u64 / GROUP) as f64;
    let len = ((n as f64 + group_gaps * groups) * bed.scene_len as f64).ceil() as usize;
    let (base, first) = (gen.pos, gen.frames.len());
    let (mut samples, mut mask) = (Vec::with_capacity(len + bed.tail.len()), Vec::new());
    gen.fill_frames(&mut samples, &mut mask, first + n);
    assert!(
        samples.len() <= len,
        "backlog frames overran their padded length"
    );
    gen.pos = base + len as u64;
    samples.resize(len, bed.tail[0]);
    samples.extend_from_slice(&bed.tail);
    mask.resize(samples.len(), false);
    (samples, mask, base, first)
}

/// One backlog drain: frames drained, seconds, start, end.
type Drain = (usize, f64, Instant, Instant);

/// Drain the next backlog of `gen`, pushed at once into a fresh one-worker
/// service; adds the events to `score`.
fn drain_backlog(bed: &Bed, gen: &mut Gen, score: &mut Score) -> Drain {
    let (samples, mask, base, first) = backlog(bed, gen);
    let svc = DecodeService::spawn(bed.service_config(samples.len()));
    let input = svc.input();
    let t0 = Instant::now();
    input.push(&samples, Some(&mask));
    input.close();
    let mut events = Vec::new();
    while let Some(ev) = svc.recv() {
        events.push((ev, Instant::now()));
    }
    let t1 = Instant::now();
    svc.shutdown();
    let frames = &gen.frames[first..];
    score.add(bed, frames, base, &events, None);
    (frames.len(), (t1 - t0).as_secs_f64(), t0, t1)
}

/// Cold set-up as a user pays it: build the receiver (offline training and
/// preamble Gram), then spawn the service with the workload's ring.
pub fn setup() -> f64 {
    let t0 = Instant::now();
    let cfg = PhyConfig::default_8kbps();
    let rx = Receiver::new_cached(cfg, &LcParams::default(), 1);
    let testbed = Testbed::new(cfg, PAYLOAD_BYTES, Some(CODING), SCRAMBLE);
    let mut scfg = testbed.service_config();
    scfg.ring_capacity = RING;
    let svc = DecodeService::spawn(scfg);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(&rx);
    svc.input().close();
    while svc.recv().is_some() {}
    svc.shutdown();
    secs
}

/// The untraced run, in [`CYCLES`] cycles so both phases sample the whole
/// run: an open-loop segment (the stream continues from cycle to cycle),
/// then backlog drains of further frames (from frame [`DRAIN_FIRST_FRAME`]
/// on). One warm-up drain comes first. Capacity is frames drained over
/// drain time, summed over the drains: single drains last under a second
/// and their rates swing with the host's speed, so a per-drain median
/// would jump between its fast and slow modes. Every frame sent, open loop
/// or backlog, counts for `delivered_frac`.
pub fn run(shape: Shape, seed: u64, seconds: f64, setup: &mut SetupProbe) -> Outcome {
    let bed = Bed::new(shape, seed);
    let mut off = Tracer::new(false, Instant::now());
    let mut backlogs = Gen::at(&bed, DRAIN_FIRST_FRAME);
    let mut cap = Score::default();
    setup.tick();
    drain_backlog(&bed, &mut backlogs, &mut cap);

    let mut gen = Gen::new(&bed);
    let mut ol = OpenLoop::default();
    let mut drains = Vec::new();
    let seg = Duration::from_secs_f64(seconds * (1.0 - CAPACITY_SHARE) / CYCLES as f64);
    let drain_budget = seconds * CAPACITY_SHARE / CYCLES as f64;
    for c in 0..CYCLES {
        let min_events = if c + 1 == CYCLES { MIN_EVENTS } else { 0 };
        setup.tick();
        segment(
            &bed,
            &mut gen,
            seg,
            min_events,
            (&mut off, &mut setup.speed),
            &mut ol,
        );
        let mut spent = 0.0;
        while drains.len() <= c || spent < drain_budget {
            setup.tick();
            let drain = drain_backlog(&bed, &mut backlogs, &mut cap);
            spent += drain.1;
            drains.push(drain);
        }
    }
    setup.finish();
    let drained: usize = drains.iter().map(|d| d.0).sum();
    let drain_s: f64 = drains.iter().map(|d| d.1).sum();
    // Each drain and each segment is scaled by the host's slowdown around
    // it; the ratio of the sums as timed and as scaled is the slowdown
    // that the whole-phase figures are scaled by.
    let speed = &setup.speed;
    let drain_ref_s: f64 = drains.iter().map(|d| d.1 / speed.over(d.2, d.3)).sum();
    let cpu_ref_s: f64 = ol
        .cpu_spans
        .iter()
        .map(|c| c.0 / speed.over(c.1, c.2))
        .sum();

    let sent = ol.sent + backlogs.frames.len() as u64;
    let failed = ol.score.failed + cap.failed;
    let mut o = Outcome {
        correct: failed == 0,
        attempted: sent,
        failed,
        ..Outcome::default()
    };
    o.put_setup(setup);
    // A frame's latency is the wait for the samples the framer needs past
    // its end, which arrive on the schedule whatever the host's speed, plus
    // the service's own processing. Only the latter is scaled, by the
    // slowdown over the segment: single samples taken beside a busy
    // service are too noisy to scale one frame by.
    let timed: Vec<f64> = ol.score.latencies.iter().map(|l| l.ms).collect();
    let scaled: Vec<f64> = ol
        .score
        .latencies
        .iter()
        .map(|l| l.ms - l.service_ms + l.service_ms / speed.over(l.segment.0, l.segment.1))
        .collect();
    o.put_latency(&timed, Some(&scaled));
    let capacity = drained as f64 / drain_s;
    o.put_at_reference("capacity_pkts_per_s", capacity, drain_s / drain_ref_s);
    let cpu_ms = ol.cpu_s * 1e3 / ol.sent.max(1) as f64;
    o.put_at_reference("cpu_ms_per_pkt", cpu_ms, ol.cpu_s / cpu_ref_s);
    o.put(
        "delivered_frac",
        (ol.score.delivered + cap.delivered) as f64 / sent.max(1) as f64,
    );
    o.put("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    notes(&mut o, &bed, &ol);
    o.note("backlog_frames_sent", backlogs.frames.len().to_string());
    o.note("backlog_frames_delivered", cap.delivered.to_string());
    let rates: Vec<String> = drains.iter().map(|d| num(d.0 as f64 / d.1)).collect();
    o.note("capacity_drain_rates", format!("[{}]", rates.join(",")));
    let slow: Vec<String> = drains.iter().map(|d| num(speed.over(d.2, d.3))).collect();
    o.note("capacity_drain_slowdowns", format!("[{}]", slow.join(",")));
    o.note_speed(&setup.speed);
    o
}

fn notes(o: &mut Outcome, bed: &Bed, ol: &OpenLoop) {
    o.note("offered_rate_x_realtime", num(bed.shape.rate_x));
    o.note("open_loop_frames_sent", ol.sent.to_string());
    o.note("open_loop_frames_delivered", ol.score.delivered.to_string());
    o.note("samples_lost", ol.samples_lost.to_string());
    o.note("gen_late_ms_max", num(ol.late_ms_max));
    o.note("service_workers", "1");
    o.note("generator_threads", "2");
}

/// Replay the stream's first frames through the layers' public functions,
/// as spans: the framer's block scan (`core.detect_preamble`), each frame
/// as its worker sees it (the [`CoreProbe`] spans) and MAC recovery
/// (`mac.recover_with_quality`). Returns how many frames were replayed.
fn replay(bed: &Bed, tracer: &mut Tracer) -> usize {
    let cfg = PhyConfig::default_8kbps();
    let probe = CoreProbe::new(cfg, 1);
    let rx = &probe.rx;

    let mut gen = Gen::new(bed);
    let (mut samples, mut mask) = (Vec::new(), Vec::new());
    gen.fill_frames(&mut samples, &mut mask, REPLAY_FRAMES);
    samples.extend_from_slice(&bed.tail);
    mask.resize(samples.len(), false);
    let sig = Signal::new(samples, cfg.fs);

    // The framer's scan: 512-offset blocks; a hit skips the frame body.
    let spt = cfg.samples_per_slot();
    let frame_len = rx.frame_slots(bed.n_bits) * spt;
    let span = rx.detect_span();
    let last = gen.frames.last().map_or(0, |r| r.end as usize);
    let mut pos = 0usize;
    while pos < last && pos + SCAN_BLOCK + span <= sig.len() {
        let hit = tracer.time("core.detect_preamble", 0, pos as u64, || {
            rx.detect_preamble(&sig, pos, pos + SCAN_BLOCK)
        });
        pos = match hit {
            Some((off, _)) => off + frame_len,
            None => pos + SCAN_BLOCK,
        };
    }

    // Each frame as the service's worker sees it: a window one slot wider
    // than the frame on both sides, with its unreliability mask.
    let bps = cfg.bits_per_symbol();
    for (k, f) in gen.frames.iter().enumerate() {
        let k = k as u64;
        let lo = f.true_off as usize - spt;
        let hi = (f.true_off as usize + frame_len + spt).min(sig.len());
        let win = Signal::new(sig.samples()[lo..hi].to_vec(), cfg.fs);
        let parent = tracer.open();
        if let Some(d) = probe.frame(
            &win,
            (spt, bed.n_bits),
            &mask[lo..hi],
            tracer,
            (parent.0, k),
        ) {
            let bit_mask: Vec<bool> = (0..d.bits.len())
                .map(|j| d.erasures.get(j / bps).copied().unwrap_or(false))
                .collect();
            let rec = tracer.time("mac.recover_with_quality", parent.0, k, || {
                recover_with_quality(&d.bits, &bit_mask, PAYLOAD_BYTES, Some(CODING), SCRAMBLE)
            });
            std::hint::black_box(rec);
        }
        tracer.close("bench.replay_frame", parent, 0, k);
    }
    gen.frames.len()
}

/// The traced run: the open loop untraced, then traced, for
/// [`TRACED_SHARE`] of `seconds` each over the same frames (their CPU per
/// frame gives the tracing overhead), then the layer replay.
pub fn run_traced(shape: Shape, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let bed = Bed::new(shape, seed);
    let dur = Duration::from_secs_f64(seconds * TRACED_SHARE);
    let mut off = Tracer::new(false, Instant::now());
    let mut plain = OpenLoop::default();
    let mut no_speed = HostSpeed::off();
    segment(
        &bed,
        &mut Gen::new(&bed),
        dur,
        0,
        (&mut off, &mut no_speed),
        &mut plain,
    );
    let mut ol = OpenLoop::default();
    segment(
        &bed,
        &mut Gen::new(&bed),
        dur,
        0,
        (tracer, &mut no_speed),
        &mut ol,
    );
    let replayed = replay(&bed, tracer);

    let cpu_per = |x: &OpenLoop| x.cpu_s * 1e3 / x.sent.max(1) as f64;
    let (cpu_plain, cpu_traced) = (cpu_per(&plain), cpu_per(&ol));
    let st = &ol.stats;
    let detect_ms = tracer.mean_ms("core.detect_preamble");
    let blocks_per_frame = tracer.count("core.detect_preamble") as f64 / replayed as f64;
    let receive_ms = tracer.mean_ms("core.receive_at_with_quality");
    let recover_ms = tracer.mean_ms("mac.recover_with_quality");
    let busy_ms = detect_ms * blocks_per_frame + receive_ms + recover_ms;
    let push_us: Vec<f64> = tracer
        .durations_ms("service.push")
        .iter()
        .map(|d| d * 1e3)
        .collect();

    let failed = plain.score.failed + ol.score.failed;
    let mut o = Outcome {
        correct: failed == 0,
        attempted: plain.sent + ol.sent,
        failed,
        ..Outcome::default()
    };
    o.put(
        "service.detected_per_sent",
        st.frames_detected as f64 / ol.sent.max(1) as f64,
    );
    o.put(
        "service.decoded_per_detected",
        st.frames_decoded as f64 / st.frames_detected.max(1) as f64,
    );
    o.put("service.dropped_overrun", st.dropped_overrun as f64);
    o.put("service.dropped_demod", st.dropped_demod as f64);
    o.put("service.dropped_recover", st.dropped_recover as f64);
    o.put("service.samples_lost", st.samples_lost as f64);
    o.put(
        "service.frame_queue_depth_mean",
        st.frame_queue_depth.mean(),
    );
    o.put("service.out_queue_depth_mean", st.out_queue_depth.mean());
    o.put(
        "service.push_us_p95",
        stats::percentile(&push_us, 0.95).unwrap_or(f64::NAN),
    );
    o.put("bench.gen_late_ms_max", ol.late_ms_max);
    o.put("core.detect_ms_per_block", detect_ms);
    o.put("core.detect_blocks_per_frame", blocks_per_frame);
    o.put("core.receive_ms", receive_ms);
    o.put("core.train_ms", tracer.mean_ms("core.train"));
    o.put("core.equalize_ms", tracer.mean_ms("core.equalize"));
    o.put("core.realtime_ratio", PAYLOAD_AIRTIME_MS / receive_ms);
    o.put("mac.recover_us", recover_ms * 1e3);
    o.put(
        "coding.rs_corrected_per_frame",
        stats::mean(&ol.score.rs_corrected),
    );
    o.put(
        "coding.erasures_filled_per_frame",
        stats::mean(&ol.score.erasures_filled),
    );
    o.put("bench.unattributed_frac", 1.0 - busy_ms / cpu_traced);
    o.put("bench.trace_overhead_frac", cpu_traced / cpu_plain - 1.0);
    o.put("bench.latency_samples", ol.score.latencies.len() as f64);
    notes(&mut o, &bed, &ol);
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_layout_is_seeded_and_stratified() {
        let bed = Bed::new(Shape::sparse(), 7);
        let again = Bed::new(Shape::sparse(), 7);
        let other = Bed::new(Shape::sparse(), 8);
        let lays: Vec<Layout> = (0..GROUP).map(|k| bed.layout(k)).collect();
        assert_eq!(
            lays,
            (0..GROUP).map(|k| again.layout(k)).collect::<Vec<_>>()
        );
        // Another run seed keeps the gaps and moves the bursts.
        let others: Vec<Layout> = (0..GROUP).map(|k| other.layout(k)).collect();
        assert!(lays.iter().zip(&others).all(|(a, b)| a.gap == b.gap));
        assert!(lays.iter().zip(&others).any(|(a, b)| a.burst != b.burst));
        // One gap per eighth of the range, two bursts, inside the payload.
        let (lo, hi) = bed.shape.gap_frames;
        let mut levels: Vec<usize> = lays
            .iter()
            .map(|l| {
                let frames = l.gap as f64 / bed.scene_len as f64;
                ((frames - lo) / (hi - lo) * GROUP as f64) as usize
            })
            .collect();
        levels.sort();
        assert_eq!(levels, (0..GROUP as usize).collect::<Vec<_>>());
        let bursts: Vec<_> = lays.iter().filter_map(|l| l.burst).collect();
        assert_eq!(bursts.len(), 2);
        for (start, len) in bursts {
            assert!(start >= bed.payload.0 && start + len <= bed.payload.1);
        }
    }

    #[test]
    fn generator_chunking_does_not_change_the_stream() {
        let bed = Bed::new(Shape::sparse(), 3);
        let collect = |chunk: usize| {
            let mut g = Gen::new(&bed);
            let (mut s, mut m) = (Vec::new(), Vec::new());
            while g.frames.len() < 3 || !g.at_boundary() {
                g.fill(&mut s, &mut m, chunk);
            }
            assert_eq!(s.len() as u64, g.frames[2].end, "chunks stop at frame ends");
            (s, m, g.frames)
        };
        let (a, am, af) = collect(CHUNK);
        let (b, bm, bf) = collect(777);
        assert_eq!(a, b);
        assert_eq!(am, bm);
        for (x, y) in af.iter().zip(&bf) {
            assert_eq!((x.true_off, x.end, x.pool), (y.true_off, y.end, y.pool));
        }
        // Frames carry their scene verbatim outside bursts.
        let f = af[0];
        let scene = &bed.scenes[f.pool];
        let start = (f.true_off - scene.offset as u64) as usize;
        for i in 0..scene.samples.len() {
            if !am[start + i] {
                assert_eq!(a[start + i], scene.samples[i]);
            }
        }
    }
}
