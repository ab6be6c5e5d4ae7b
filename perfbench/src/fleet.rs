//! `fleet_mac`: `FleetConfig::new(8)` sessions played one after another
//! through `run_session_with_plan` (a closed loop with one client) under
//! `with_threads(1)`. Session `i` uses `derive_seed(run_seed, i)`, the seed
//! `run_fleet` gives it, so the run's aggregate can be checked against
//! `run_fleet` for the same seed and session count.

use std::time::Instant;

use retroturbo_mac::{discover, protect, recover_with_quality, RateTable};
use retroturbo_runtime::{derive_seed, with_threads};
use retroturbo_sim::fleet::{
    aggregate, draw_plan, run_fleet, run_session_with_plan, FleetConfig, SessionOutcome,
    SessionPlan,
};

use crate::report::{scale_each, Outcome};
use crate::setup::SetupProbe;
use crate::stats::{self, ms};
use crate::trace::Tracer;

const TAGS: usize = 8;
/// Session plans drawn per second of run: comfortably above the rate one
/// core plays them at, so a run never replays a plan.
const PLANS_PER_SECOND: f64 = 4000.0;
/// Share of an untraced run spent playing sessions; the rest re-runs them
/// through `run_fleet` for the correctness check.
const PLAY_SHARE: f64 = 0.5;
/// Sessions replayed through the MAC functions in the traced run.
const REPLAY_SESSIONS: usize = 256;
/// The scrambler seed the fleet harness uses on every frame.
const SCRAMBLE: u8 = 0x5B;

/// The configuration and the drawn plan of every session a run may play.
struct Fleet {
    cfg: FleetConfig,
    plans: Vec<SessionPlan>,
}

impl Fleet {
    /// Set-up as a user pays it: the config plus a plan for every session.
    fn new(seed: u64, seconds: f64) -> Self {
        let cfg = FleetConfig::new(TAGS);
        let n = (PLANS_PER_SECOND * seconds * PLAY_SHARE).ceil() as u64;
        let plans = (0..n)
            .map(|i| draw_plan(&cfg, derive_seed(seed, i)))
            .collect();
        Self { cfg, plans }
    }
}

/// Time a cold set-up.
pub fn setup(seed: u64, seconds: f64) -> f64 {
    let t0 = Instant::now();
    let fleet = Fleet::new(seed, seconds);
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(fleet);
    secs
}

/// Sessions played in one closed-loop phase.
struct Played {
    outcomes: Vec<SessionOutcome>,
    /// Milliseconds per session, with its start and end.
    latency_ms: Vec<(f64, Instant, Instant)>,
    wall_s: f64,
    cpu_s: f64,
    span: (Instant, Instant),
}

impl Played {
    fn attempts(&self) -> u64 {
        self.outcomes.iter().map(|o| o.attempts).sum()
    }
}

/// Play sessions `0, 1, …` back to back for `seconds`, letting the set-up
/// probe sample between sessions (its time is left out of the wall and CPU
/// time).
fn play(fleet: &Fleet, seconds: f64, tracer: &mut Tracer, setup: &mut SetupProbe) -> Played {
    let cpu0 = stats::process_cpu_s().unwrap_or(0.0) - setup.cpu_paused_s();
    let (t0, p0) = (Instant::now(), setup.paused());
    let wall = |setup: &SetupProbe| (t0.elapsed() - (setup.paused() - p0)).as_secs_f64();
    let mut outcomes = Vec::new();
    let mut latency_ms = Vec::new();
    while wall(setup) < seconds && outcomes.len() < fleet.plans.len() {
        setup.tick();
        let i = outcomes.len();
        let ts = Instant::now();
        let out = run_session_with_plan(&fleet.cfg, &fleet.plans[i]);
        let te = Instant::now();
        latency_ms.push((ms(te - ts), ts, te));
        tracer.record("sim.run_session_with_plan", 0, i as u64, ts, te);
        outcomes.push(out);
    }
    Played {
        outcomes,
        latency_ms,
        wall_s: wall(setup),
        cpu_s: stats::process_cpu_s().unwrap_or(0.0) - setup.cpu_paused_s() - cpu0,
        span: (t0, Instant::now()),
    }
}

/// The aggregate of the played sessions must equal `run_fleet` on one
/// thread for the same seed and session count (untimed).
fn check(fleet: &Fleet, seed: u64, played: &Played) -> bool {
    let n = played.outcomes.len();
    let got = aggregate(&fleet.cfg, &played.outcomes).canon();
    let want = with_threads(1, || run_fleet(&fleet.cfg, n, seed)).canon();
    if got != want {
        eprintln!("# MISMATCH fleet aggregate over {n} sessions\n#   got  {got}#   want {want}");
    }
    got == want
}

fn offered_delivered(outcomes: &[SessionOutcome]) -> (u64, u64) {
    outcomes
        .iter()
        .fold((0, 0), |(o, d), s| (o + s.offered, d + s.delivered))
}

/// The untraced run: sessions for half of `seconds`, then the check.
pub fn run(seed: u64, seconds: f64, setup: &mut SetupProbe) -> Outcome {
    let fleet = Fleet::new(seed, seconds);
    let mut off = Tracer::new(false, Instant::now());
    let played = with_threads(1, || play(&fleet, seconds * PLAY_SHARE, &mut off, setup));
    setup.finish();
    let ok = check(&fleet, seed, &played);
    let attempts = played.attempts();
    let (offered, delivered) = offered_delivered(&played.outcomes);
    let mut o = Outcome {
        correct: ok,
        attempted: attempts,
        failed: if ok { 0 } else { attempts },
        ..Outcome::default()
    };
    o.put_setup(setup);
    let (timed, scaled) = scale_each(&played.latency_ms, &setup.speed);
    o.put_latency(&timed, Some(&scaled));
    let slowdown = setup.speed.over(played.span.0, played.span.1);
    let capacity = attempts as f64 / played.wall_s;
    o.put_at_reference("capacity_pkts_per_s", capacity, slowdown);
    let cpu_ms = played.cpu_s * 1e3 / attempts as f64;
    o.put_at_reference("cpu_ms_per_pkt", cpu_ms, slowdown);
    o.put("delivered_frac", delivered as f64 / offered as f64);
    o.put("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0));
    o.note_speed(&setup.speed);
    o.note("fleet_sessions", played.outcomes.len().to_string());
    o.note("fleet_tags", TAGS.to_string());
    o.note("fleet_threads", "1");
    o
}

/// The traced run: a quarter of `seconds` untraced and a quarter traced
/// (the same sessions), then the MAC functions replayed on the first
/// sessions' own inputs.
pub fn run_traced(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let fleet = Fleet::new(seed, seconds);
    let mut off = Tracer::new(false, Instant::now());
    let mut no_setup = SetupProbe::off();
    let half = seconds * PLAY_SHARE / 2.0;
    let plain = with_threads(1, || play(&fleet, half, &mut off, &mut no_setup));
    let traced = with_threads(1, || play(&fleet, half, tracer, &mut no_setup));
    let cpu_per = |p: &Played| p.cpu_s * 1e3 / p.attempts() as f64;
    let (offered, _) = offered_delivered(&traced.outcomes);
    let attempts = traced.attempts();

    // Replay: discovery for each session, then protect → recover of one
    // frame per tag at the rate its SNR selects, checking the round trips.
    let table = RateTable::profiled_default();
    let ids: Vec<u32> = (0..TAGS as u32).collect();
    let mut mismatches = 0u64;
    for (i, plan) in fleet.plans.iter().take(REPLAY_SESSIONS).enumerate() {
        let parent = tracer.open();
        let d = tracer.time("mac.discover", parent.0, i as u64, || {
            discover(
                &ids,
                fleet.cfg.discovery_window,
                10_000,
                derive_seed(plan.seed, 1),
            )
        });
        mismatches += u64::from(d != plan.discovery);
        for (tag, &snr) in plan.snr_db.iter().enumerate() {
            let coding = table.select(snr, 0.0).coding;
            let payload: Vec<u8> = (0..fleet.cfg.payload_bytes)
                .map(|b| (b as u64 * 29 + tag as u64 * 131 + 3) as u8)
                .collect();
            let bits = tracer.time("mac.protect", parent.0, tag as u64, || {
                protect(&payload, coding, SCRAMBLE)
            });
            let rec = tracer.time("mac.recover_with_quality", parent.0, tag as u64, || {
                recover_with_quality(&bits, &[], payload.len(), coding, SCRAMBLE)
            });
            mismatches += u64::from(rec.map(|r| r.payload) != Some(payload));
        }
        tracer.close("bench.replay_session", parent, 0, i as u64);
    }
    if mismatches > 0 {
        eprintln!("# MISMATCH fleet replay: {mismatches} discovery/recovery results differ");
    }
    let (disc_us, prot_us, rec_us) = (
        tracer.mean_ms("mac.discover") * 1e3,
        tracer.mean_ms("mac.protect") * 1e3,
        tracer.mean_ms("mac.recover_with_quality") * 1e3,
    );
    // Discovery runs once a session, protect once an offered frame and
    // recovery once an attempt.
    let sessions = traced.outcomes.len() as f64;
    let per_attempt_us =
        disc_us * sessions / attempts as f64 + prot_us * offered as f64 / attempts as f64 + rec_us;

    let mut o = Outcome {
        correct: mismatches == 0,
        attempted: plain.attempts() + attempts,
        failed: mismatches,
        ..Outcome::default()
    };
    o.put("mac.attempts_per_offered", attempts as f64 / offered as f64);
    o.put("mac.discover_us", disc_us);
    o.put("mac.protect_us", prot_us);
    o.put("mac.recover_us", rec_us);
    o.put(
        "bench.unattributed_frac",
        1.0 - per_attempt_us * 1e-3 / cpu_per(&traced),
    );
    o.put(
        "bench.trace_overhead_frac",
        cpu_per(&traced) / cpu_per(&plain) - 1.0,
    );
    o.put("bench.latency_samples", traced.latency_ms.len() as f64);
    o.note("fleet_threads", "1");
    o
}
