//! Bench-side spans for the traced run.
//!
//! Each span is one call from the benchmark into a layer's public function:
//! its name, start and end (ns since the tracer's epoch), the span that
//! caused it, and the frame/session/point it belongs to. Spans stay in
//! memory while the workload runs and are written out as JSON lines when
//! the run ends, so recording costs one `Instant::now()` pair and a push.
//! A disabled tracer records nothing, which is what the untraced run uses.

use std::io::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer function, e.g. `core.detect_preamble`.
    pub name: &'static str,
    /// Unique within its tracer.
    pub id: u64,
    /// The span this one ran under (0 = none).
    pub parent: u64,
    /// Frame, session or grid-point index the call worked on.
    pub item: u64,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            next_id: 1,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span that ran from `start` to `end`; returns its id (0 when
    /// the tracer is off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        item: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            item,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        item: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.record(name, parent, item, t0, Instant::now());
        r
    }

    /// Reserve an id for a parent span whose end is not known yet; close it
    /// with [`Self::close`].
    pub fn open(&mut self) -> (u64, Instant) {
        if !self.on {
            return (0, Instant::now());
        }
        let id = self.next_id;
        self.next_id += 1;
        (id, Instant::now())
    }

    /// Close a span reserved with [`Self::open`].
    pub fn close(&mut self, name: &'static str, opened: (u64, Instant), parent: u64, item: u64) {
        if !self.on {
            return;
        }
        let (id, start) = opened;
        let (start_ns, end_ns) = (self.ns(start), self.ns(Instant::now()));
        self.spans.push(Span {
            name,
            id,
            parent,
            item,
            start_ns,
            end_ns,
        });
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Mean duration (ms) of spans called `name`; 0 when there are none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        crate::stats::mean(&self.durations_ms(name))
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                f,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"item\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.item, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("x", 0, 0, || 7), 7);
        assert_eq!(t.count("x"), 0);
    }

    #[test]
    fn spans_keep_their_durations_and_parents() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch);
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let parent = t.open();
        t.record("detect", parent.0, 3, at(1), at(4));
        t.record("decode", parent.0, 3, at(5), at(9));
        t.record("decode", parent.0, 4, at(10), at(12));
        t.close("frame", parent, 0, 3);
        assert_eq!(t.count("decode"), 2);
        assert!((t.mean_ms("decode") - 3.0).abs() < 1e-9);
        assert_eq!(t.durations_ms("detect"), vec![3.0]);
        assert!(t
            .spans
            .iter()
            .filter(|s| s.name != "frame")
            .all(|s| s.parent == parent.0));
        assert_eq!(t.mean_ms("missing"), 0.0);
    }
}
