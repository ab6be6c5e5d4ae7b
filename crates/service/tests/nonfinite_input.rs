//! Regression test: a burst of non-finite samples must cost erasures, not
//! the frame.
//!
//! A NaN or ±Inf sample that reaches the receiver poisons every fit and
//! metric that reads it, so a 200-sample non-finite burst in mid-frame used
//! to come back as `Dropped { reason: Recover }` even though the same burst
//! as zeros decodes through the erasure path. `ServiceInput::push` now maps
//! non-finite samples to flagged zeros, so all three bursts decode alike.

use retroturbo_dsp::C64;
use retroturbo_mac::CodingChoice;
use retroturbo_service::{loopback_phy, DecodeService, ServiceEvent, Testbed};

const CODING: CodingChoice = CodingChoice { n: 44, k: 22 };
const SCRAMBLE: u8 = 0x5B;
const PAYLOAD_LEN: usize = 20;
const RUN_SEED: u64 = 0x3C;
const BURST: usize = 200;

/// Stream one frame with `BURST` samples in mid-frame replaced by `fill`
/// (flagged unreliable on push when `flagged`), and return every service
/// event.
fn run_with_burst(fill: C64, flagged: bool) -> (Testbed, Vec<ServiceEvent>) {
    let bed = Testbed::new(loopback_phy(2, 4), PAYLOAD_LEN, Some(CODING), SCRAMBLE).with_snr(40.0);
    let scene = bed.frame(0, RUN_SEED);
    let mut samples = scene.samples.clone();
    let start = scene.offset + (samples.len() - scene.offset) / 2 - BURST / 2;
    let mut mask = vec![false; samples.len()];
    for i in start..start + BURST {
        samples[i] = fill;
        mask[i] = flagged;
    }

    let svc = DecodeService::spawn(bed.service_config());
    let input = svc.input();
    input.push(&bed.idle(300), None);
    input.push(&samples, Some(&mask));
    input.push(&bed.idle(2 * samples.len()), None);
    input.close();
    let mut events = Vec::new();
    while let Some(ev) = svc.recv() {
        events.push(ev);
    }
    svc.shutdown();
    (bed, events)
}

/// The decoded frame's `(offset, payload, bits)`, or a panic naming the
/// events that came back instead.
fn decoded(label: &str, bed: &Testbed, events: &[ServiceEvent]) -> (u64, Vec<u8>, Vec<bool>) {
    match events {
        [ServiceEvent::Frame(f)] => {
            assert_eq!(f.payload, bed.payload_for(0), "{label}: wrong payload");
            (f.offset, f.payload.clone(), f.bits.clone())
        }
        other => panic!("{label}: expected one decoded frame, got {other:?}"),
    }
}

/// Flagged or not (the service flags non-finite samples itself), each
/// non-finite burst decodes to the zero burst's offset, payload and bits.
#[test]
fn nan_and_inf_bursts_decode_like_a_zero_burst() {
    let (bed, zero_events) = run_with_burst(C64::new(0.0, 0.0), true);
    let zero = decoded("zero burst", &bed, &zero_events);
    for (label, fill, flagged) in [
        ("NaN burst", C64::new(f64::NAN, f64::NAN), true),
        ("+Inf burst", C64::new(f64::INFINITY, f64::INFINITY), true),
        ("mixed burst", C64::new(f64::NEG_INFINITY, f64::NAN), true),
        ("unflagged NaN burst", C64::new(f64::NAN, 0.0), false),
    ] {
        let (bed, events) = run_with_burst(fill, flagged);
        assert_eq!(decoded(label, &bed, &events), zero, "{label}");
    }
}
