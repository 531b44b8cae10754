//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! each layer — nothing is added inside the program — and kept in
//! memory until the run ends, when they are written as one Chrome
//! `trace_event` document. Each span has a name, start, end and parent;
//! a span's self time is its duration minus the part of it that its
//! children cover (children on other threads may overlap each other).

use pscp_obs::json::JsonWriter;
use std::time::Instant;

#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    lane: u32,
}

/// Spans of one thread. A client thread records into a [`Tracer::fork`]
/// that [`Tracer::absorb`] moves back under the span open at the fork.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    lane: u32,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    /// The parent a fork's top-level spans get when absorbed: the span
    /// open in the forking tracer at the fork.
    root: Option<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`, on trace lane 0.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            lane: 0,
            spans: Vec::new(),
            open: Vec::new(),
            root: None,
        }
    }

    /// A tracer for another thread, on trace lane `lane`, whose spans
    /// become children of the span open here now.
    pub fn fork(&self, lane: u32) -> Self {
        Tracer {
            epoch: self.epoch,
            lane,
            spans: Vec::new(),
            open: Vec::new(),
            root: self.open.last().copied(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) -> usize {
        let parent = self.open.last().copied();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            lane: self.lane,
        });
        self.spans.len() - 1
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let now = self.ns(Instant::now());
        let id = self.push(name, now, now);
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let id = self.open.pop().expect("end() matches a begin()");
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records an already-timed span under the innermost open one.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, s, e);
    }

    /// Moves a fork's spans in, keeping their parent links.
    pub fn absorb(&mut self, fork: Tracer) {
        let base = self.spans.len();
        self.spans.extend(fork.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(fork.root);
            s
        }));
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The spans as a Chrome `trace_event` document: one complete
    /// event per span, with its id, parent and self time in `args`.
    pub fn to_chrome(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("displayTimeUnit").string("ns");
        w.key("traceEvents").begin_array();
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            w.begin_object();
            w.key("name").string(s.name);
            w.key("ph").string("X");
            w.key("pid").u64(1);
            w.key("tid").u64(u64::from(s.lane));
            w.key("ts").f64(s.start_ns as f64 / 1e3);
            w.key("dur").f64((s.end_ns - s.start_ns) as f64 / 1e3);
            w.key("args").begin_object();
            w.key("id").u64(id as u64);
            if let Some(p) = s.parent {
                w.key("parent").u64(p as u64);
            }
            w.key("self_us").f64(own as f64 / 1e3);
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}
