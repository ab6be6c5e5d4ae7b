//! Direct calls into the receiver's stages for the traced run's replay:
//! the same detector, trainer and equalizer the `Receiver` composes, built
//! from their public constructors and timed one call at a time as spans
//! (`core.receive_at_with_quality`, `core.train`, `core.equalize`).

use retroturbo_core::preamble::correct;
use retroturbo_core::synth::SlotLevels;
use retroturbo_core::{
    Equalizer, Modulator, OfflineTraining, OnlineTrainer, PhyConfig, PreambleDetector, Receiver,
    RxResult, TagModel,
};
use retroturbo_dsp::Signal;
use retroturbo_lcm::LcParams;

use crate::trace::Tracer;

/// A receiver plus its separately constructed stages for one PHY.
pub struct CoreProbe {
    cfg: PhyConfig,
    /// The production receiver (from the process-wide cache).
    pub rx: Receiver,
    detector: PreambleDetector,
    trainer: OnlineTrainer,
    eq: Equalizer,
    known: Vec<SlotLevels>,
}

impl CoreProbe {
    /// Build the probe for `cfg` with `s` retained offline-training bases
    /// (the service uses 1, the link simulator 3).
    pub fn new(cfg: PhyConfig, s: usize) -> Self {
        let lc = LcParams::default();
        let nominal = TagModel::nominal(&cfg, &lc);
        let offline =
            OfflineTraining::collect(&cfg, &lc, &OfflineTraining::default_variants(&lc), s);
        let mut known = Modulator::preamble_levels(&cfg);
        known.extend(Modulator::training_levels(&cfg));
        Self {
            cfg,
            rx: Receiver::new_cached(cfg, &lc, s),
            detector: PreambleDetector::new(&cfg, &nominal),
            trainer: OnlineTrainer::new(cfg, &offline),
            eq: Equalizer::new(cfg),
            known,
        }
    }

    /// Decode the frame at `off` of `sig` with the receiver, then run its
    /// training and equalisation stages again by hand on the same samples,
    /// each call a span under `parent`.
    pub fn frame(
        &self,
        sig: &Signal,
        (off, n_bits): (usize, usize),
        unreliable: &[bool],
        tracer: &mut Tracer,
        (parent, item): (u64, u64),
    ) -> Option<RxResult> {
        let demod = tracer.time("core.receive_at_with_quality", parent, item, || {
            self.rx
                .receive_at_with_quality(sig, off, n_bits, unreliable)
        });

        let spt = self.cfg.samples_per_slot();
        let n_payload = n_bits.div_ceil(self.cfg.bits_per_symbol());
        let need =
            (self.cfg.preamble_slots + self.cfg.training_rounds * self.cfg.l_order + n_payload)
                * spt;
        if let Some(m) = self.detector.fit_at(sig, off) {
            if off + need <= sig.len() {
                let corrected = correct(&m.fit, &sig.samples()[off..off + need]);
                let model = tracer.time("core.train", parent, item, || {
                    self.trainer.train(&corrected)
                });
                let symbols = tracer.time("core.equalize", parent, item, || {
                    self.eq.equalize(&corrected, &model, &self.known, n_payload)
                });
                std::hint::black_box(symbols);
            }
        }
        demod.ok()
    }
}
