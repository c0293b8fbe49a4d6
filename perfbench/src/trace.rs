//! The traced run's span recorder. Spans are recorded by the benchmark
//! around its calls into the program's public functions (never inside
//! the program), kept in memory, and written once when the run ends.

use entmatcher_support::json::{Json, Map};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span: name, start, end, parent and workload.
#[derive(Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Tracer {
    workload: String,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            workload: workload.to_owned(),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let mut spans = self.spans.lock().expect("span lock");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Reserves an id for a parent span whose end is not known yet;
    /// [`Tracer::close`] fills it in.
    pub fn open(&self, name: &'static str, parent: Option<u64>, start: Instant) -> u64 {
        self.record(name, parent, start, start)
    }

    pub fn close(&self, id: u64, end: Instant) {
        let end_ns = self.ns(end);
        self.spans.lock().expect("span lock")[id as usize - 1].end_ns = end_ns;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Sum of the durations of the direct children of `parent`, divided by
    /// the parent's own duration: how much of the wall the stages explain.
    pub fn coverage(&self, parent: u64) -> f64 {
        let spans = self.spans();
        let root = &spans[parent as usize - 1];
        let covered: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::secs)
            .sum();
        covered / root.secs()
    }

    /// Writes every span as one JSON document.
    pub fn write(&self, path: &str) {
        let spans: Vec<Json> = self
            .spans()
            .iter()
            .map(|s| {
                let mut m = Map::new();
                m.insert("id", s.id);
                m.insert("parent", s.parent);
                m.insert("name", s.name);
                m.insert("start_ns", s.start_ns);
                m.insert("end_ns", s.end_ns);
                m.insert("workload", self.workload.as_str());
                Json::Obj(m)
            })
            .collect();
        let mut doc = Map::new();
        doc.insert("workload", self.workload.as_str());
        doc.insert("spans", spans);
        if let Err(e) = std::fs::write(path, Json::Obj(doc).dump()) {
            crate::util::fail(&format!("writing {path}: {e}"));
        }
    }
}
