//! The benchmark's own spans: recorded around calls into the product
//! crates' public functions, kept in memory, written out only at exit.
//! Spans *inside* the product crates are a later change; until then a
//! layer's time is the time of the calls into it as seen from here.

use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

/// One timed interval. Spans of one generation of one engine run share
/// `(engine, rep, generation)`; `parent` is the span that was open when
/// this one started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub engine: &'static str,
    pub rep: u32,
    pub generation: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one traced pass (single driver thread).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(
        &mut self,
        name: &'static str,
        engine: &'static str,
        rep: u32,
        generation: u64,
    ) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            engine,
            rep,
            generation,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = now;
    }

    /// Times one call as a span.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        engine: &'static str,
        rep: u32,
        generation: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.enter(name, engine, rep, generation);
        let result = f();
        self.exit(id);
        result
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    /// Every span opened while `ancestor` was open, in start order. Spans
    /// are stored in the order they were opened, so these are the contiguous
    /// run after `ancestor` whose parents are not older than it.
    pub fn descendants(&self, ancestor: SpanId) -> impl Iterator<Item = &Span> {
        self.spans[ancestor + 1..]
            .iter()
            .take_while(move |s| s.parent.is_some_and(|p| p >= ancestor))
    }

    /// The spans directly under `parent`, in start order.
    pub fn children(&self, parent: SpanId) -> impl Iterator<Item = &Span> {
        self.descendants(parent)
            .filter(move |s| s.parent == Some(parent))
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.spans[id].dur_ns() - self.children(id).map(Span::dur_ns).sum::<u64>()
    }

    /// The spans as Chrome trace-event JSON (`ph: "X"`, microseconds), one
    /// event per span with its id, parent id and the shared
    /// `workload/engine/rep/generation` id in `args`.
    pub fn to_trace_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"shared\":\"{workload}/{}/{}/{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.engine,
                s.rep,
                s.generation,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_json_validates() {
        let mut t = Tracer::new();
        let run = t.enter("seq.run", "seq", 0, 0);
        for g in 0..3 {
            let step = t.enter("seq.step", "seq", 0, g);
            t.call("core.fitness", "seq", 0, g, || std::hint::black_box(g * 2));
            t.call("core.evolve", "seq", 0, g, || ());
            t.exit(step);
            assert_eq!(t.children(step).count(), 2);
        }
        t.exit(run);

        assert_eq!(t.spans.len(), 1 + 3 * 3);
        assert_eq!(t.descendants(run).count(), 3 * 3);
        assert_eq!(t.span(run).parent, None);
        let steps: Vec<&Span> = t.children(run).collect();
        assert_eq!(steps.len(), 3);
        let covered: u64 = steps.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(t.self_ns(run) + covered, t.span(run).dur_ns());

        let json = t.to_trace_json("validation");
        crate::engines::validate_trace(&json).expect("trace-event JSON");
        assert!(json.contains("\"shared\":\"validation/seq/0/2\""));
    }
}
