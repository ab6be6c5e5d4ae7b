//! Adversarial inputs at every externally reachable receive entry point.
//!
//! Each case turns one clean loopback frame into a hostile sample stream
//! (empty, truncated, non-finite, denormal, huge, repeated, reversed,
//! noise) and feeds it three ways: to every `Receiver::receive_*` entry
//! point at in-range and past-the-end offsets, to the decode service in
//! one push, and to the service in small chunks. Invariants:
//! - nothing panics;
//! - the production receiver and its scalar oracle reach the same result;
//! - a decoded frame has the requested bit count and lies inside the input;
//! - the service accounts for every detection: `decoded + dropped ==
//!   detected`, one in-order event each, and a decoded payload is always
//!   the transmitted one.

use retroturbo_core::{Receiver, RxError, RxResult};
use retroturbo_dsp::noise::NoiseSource;
use retroturbo_dsp::{Signal, C64};
use retroturbo_lcm::LcParams;
use retroturbo_mac::CodingChoice;
use retroturbo_service::{loopback_phy, DecodeService, ServiceEvent, Testbed};

const CODING: CodingChoice = CodingChoice { n: 44, k: 22 };
const SCRAMBLE: u8 = 0x5B;
const PAYLOAD_LEN: usize = 20;
const RUN_SEED: u64 = 0xAD;
/// Push size of the chunked service run: prime, so chunk edges drift
/// across the framer's scan blocks.
const CHUNK: usize = 97;
const NAN: C64 = C64::new(f64::NAN, f64::NAN);
const INF: C64 = C64::new(f64::INFINITY, f64::INFINITY);
/// A lead-in sample inside the first preamble-fit windows of the scan.
const LEAD_IN: usize = 88;

fn bed() -> Testbed {
    Testbed::new(loopback_phy(2, 4), PAYLOAD_LEN, Some(CODING), SCRAMBLE).with_snr(40.0)
}

/// The clean frame (idle pad, then the frame) transformed by `make`.
fn input(make: fn(Vec<C64>) -> Vec<C64>) -> Vec<C64> {
    make(bed().frame(0, RUN_SEED).samples)
}

/// `f` with `len` samples from `at` (clamped to the end) set to `z`.
fn burst(mut f: Vec<C64>, at: usize, len: usize, z: C64) -> Vec<C64> {
    let end = (at + len).min(f.len());
    f[at..end].fill(z);
    f
}

/// Every receive entry point on `samples`; returns `receive`'s result.
fn receiver_survives(samples: &[C64]) -> Result<RxResult, RxError> {
    let bed = bed();
    let n_bits = bed.service_config().n_bits;
    let rx = Receiver::new_cached(*bed.phy(), &LcParams::default(), 1);
    let sig = Signal::new(samples.to_vec(), bed.phy().fs);
    let len = sig.len();
    let half_flagged = vec![true; len / 2];
    let check = |entry: &str, r: &Result<RxResult, RxError>| {
        if let Ok(r) = r {
            let shape = (r.bits.len(), r.erasures.len(), r.offset < len);
            assert_eq!(shape, (n_bits, r.symbols.len(), true), "{entry}");
        }
    };
    let key = |r: Result<RxResult, RxError>| r.map(|r| (r.offset, r.bits));
    let window = rx.receive_window(&sig, 0, len, n_bits);
    check("receive_window", &window);
    let oracle = rx.receive_window_reference(&sig, 0, len, n_bits);
    assert_eq!(key(window), key(oracle), "production vs oracle");
    let quality = rx.receive_window_with_quality(&sig, 0, len, n_bits, &half_flagged);
    check("receive_window_with_quality", &quality);
    let past_end = rx.receive_window(&sig, len, usize::MAX, n_bits);
    assert!(past_end.is_err() && rx.detect_preamble(&sig, len, 0).is_none());
    for off in [0, bed.pad, len.saturating_sub(1), len, len + 1, usize::MAX] {
        check("receive_at", &rx.receive_at(&sig, off, n_bits));
        let quality = rx.receive_at_with_quality(&sig, off, n_bits, &half_flagged);
        check("receive_at_with_quality", &quality);
    }
    let whole = rx.receive(&sig, n_bits);
    check("receive", &whole);
    whole
}

/// Stream `samples` (in `chunk`-sample pushes, or one) plus an idle tail
/// through the service, check its accounting, and return the events.
fn service_accounts(samples: &[C64], chunk: Option<usize>) -> Vec<ServiceEvent> {
    let bed = bed();
    let svc = DecodeService::spawn(bed.service_config());
    let input = svc.input();
    for part in samples.chunks(chunk.unwrap_or(samples.len()).max(1)) {
        input.push(part, None);
    }
    let tail = bed.idle(2 * bed.frame(0, RUN_SEED).samples.len());
    input.push(&tail, None);
    input.close();
    let events: Vec<ServiceEvent> = std::iter::from_fn(|| svc.recv()).collect();
    let s = svc.shutdown();
    let pushed = (samples.len() + tail.len()) as u64;
    assert_eq!((s.samples_pushed, s.discarded_at_shutdown), (pushed, 0));
    assert_eq!(s.frames_decoded + s.frames_dropped, s.frames_detected);
    assert_eq!(events.len() as u64, s.frames_detected, "one event each");
    let mut decoded = 0;
    for (i, ev) in events.iter().enumerate() {
        assert_eq!(ev.seq(), i as u64, "events out of detection order");
        if let ServiceEvent::Frame(f) = ev {
            assert_eq!(f.payload, bed.payload_for(0), "wrong payload recovered");
            decoded += 1;
        }
    }
    assert_eq!(decoded, s.frames_decoded);
    events
}

/// Three tests per case: `receiver::NAME`, `service_one_push::NAME` and
/// `service_chunked::NAME`.
macro_rules! adversarial_cases {
    ($($name:ident: $make:expr;)*) => {
        mod receiver { use super::*; $(#[test] fn $name() { receiver_survives(&input($make)).ok(); })* }
        mod service_one_push { use super::*; $(#[test] fn $name() { service_accounts(&input($make), None); })* }
        mod service_chunked { use super::*; $(#[test] fn $name() { service_accounts(&input($make), Some(CHUNK)); })* }
    };
}

adversarial_cases! {
    clean_frame: |f| f;
    empty: |_| Vec::new();
    one_sample: |f| f[..1].to_vec();
    idle_only: |f| f[..bed().pad].to_vec();
    truncated_after_preamble: |f| f[..bed().pad + (f.len() - bed().pad) / 10].to_vec();
    truncated_mid_payload: |f| f[..f.len() / 2].to_vec();
    all_zero: |f| vec![C64::new(0.0, 0.0); f.len()];
    all_nan: |f| vec![NAN; f.len()];
    all_inf: |f| vec![INF; f.len()];
    nan_in_lead_in: |f| burst(f, LEAD_IN, 1, NAN);
    nan_burst_mid_frame: |f| { let mid = f.len() / 2; burst(f, mid, 200, NAN) };
    inf_burst_in_preamble: |f| burst(f, bed().pad + 20, 50, INF);
    nan_imaginary_parts: |f| f.into_iter().map(|z| C64::new(z.re, f64::NAN)).collect();
    denormal_scale: |f| f.into_iter().map(|z| z * 1e-310).collect();
    huge_scale: |f| f.into_iter().map(|z| z * 1e300).collect();
    max_spike: |f| { let mid = f.len() / 2; burst(f, mid, 1, C64::new(f64::MAX, -f64::MAX)) };
    alternating_rails: |f| (0..f.len()).map(|i| C64::new(if i % 2 == 0 { 1e300 } else { -1e300 }, 0.0)).collect();
    two_frames_back_to_back: |f| [f.clone(), f].concat();
    frame_then_truncated_copy: |f| [f.clone(), f[..f.len() / 2].to_vec()].concat();
    time_reversed: |f| f.into_iter().rev().collect();
    loud_noise: |f| { let mut n = vec![C64::new(0.0, 0.0); f.len()]; NoiseSource::new(7).add_awgn(&mut n, 1e3); n };
}

/// The harnesses are not vacuous: the clean frame decodes on every path.
#[test]
fn clean_frame_decodes_on_every_path() {
    let scene = bed().frame(0, RUN_SEED);
    let r = receiver_survives(&scene.samples).expect("clean frame");
    assert_eq!((r.offset, r.bits), (scene.offset, scene.bits));
    for chunk in [None, Some(CHUNK)] {
        let events = service_accounts(&scene.samples, chunk);
        assert!(
            matches!(events[..], [ServiceEvent::Frame(_)]),
            "{chunk:?}: {events:?}"
        );
    }
}

/// A single NaN sample in the idle lead-in costs at most the preamble fits
/// whose window covers it: the frame after it is still found and decoded.
#[test]
fn nan_in_lead_in_keeps_the_frame_detectable() {
    let scene = bed().frame(0, RUN_SEED);
    let r = receiver_survives(&burst(scene.samples, LEAD_IN, 1, NAN)).expect("frame after a NaN");
    assert_eq!((r.offset, r.bits), (scene.offset, scene.bits));
}
