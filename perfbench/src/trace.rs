//! In-memory spans for the traced run, written out when the run ends.
//!
//! Every client operation is a root span. The HTTP requests it makes are
//! its `client` children; the timings the program reports for a request
//! (`search_us`, `queue_us`, `enact_us`, …) are `reported` spans under
//! that request, and the benchmark's own layer-down replays of the same
//! request are `replay` spans under the same root.

use laminar_json::Value;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Client,
    Reported,
    Replay,
}

impl Class {
    fn as_str(self) -> &'static str {
        match self {
            Class::Client => "client",
            Class::Reported => "reported",
            Class::Replay => "replay",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Root span id of the operation this span belongs to.
    pub op: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    pub name: String,
    pub class: Class,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Microseconds since the tracer was created.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a span and return its id.
    pub fn record(&self, op: u64, parent: u64, name: &str, class: Class, start_us: f64, end_us: f64) -> u64 {
        let id = if parent == 0 && op != 0 { op } else { self.new_id() };
        let span = Span { id, op, parent, name: name.to_string(), class, start_us, end_us };
        self.spans.lock().expect("span buffer lock poisoned by a panicking client").push(span);
        id
    }

    /// Program-reported durations, laid end to end from `start_us` under
    /// `parent`. Zero and missing fields are skipped.
    pub fn reported(&self, op: u64, parent: u64, start_us: f64, parts: &[(&str, f64)]) {
        let mut t = start_us;
        for &(name, us) in parts {
            if us > 0.0 {
                self.record(op, parent, name, Class::Reported, t, t + us);
                t += us;
            }
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer lock poisoned by a panicking client").clone()
    }

    /// Share of root time that no program-reported span accounts for.
    /// Reported spans nested under another reported span are already
    /// inside their parent's duration and are not counted twice.
    pub fn unattributed(&self) -> f64 {
        let spans = self.spans();
        let reported_ids: std::collections::HashSet<u64> =
            spans.iter().filter(|s| s.class == Class::Reported).map(|s| s.id).collect();
        let mut covered: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
        for s in spans.iter().filter(|s| s.class == Class::Reported && !reported_ids.contains(&s.parent)) {
            *covered.entry(s.op).or_default() += s.duration_us();
        }
        let (mut root_total, mut unattributed) = (0.0, 0.0);
        for root in spans.iter().filter(|s| s.parent == 0) {
            let d = root.duration_us();
            root_total += d;
            unattributed += (d - covered.get(&root.id).copied().unwrap_or(0.0)).max(0.0);
        }
        if root_total > 0.0 {
            unattributed / root_total
        } else {
            0.0
        }
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let mut v = Value::Null;
            v.set("id", s.id as i64)
                .set("op", s.op as i64)
                .set("parent", s.parent as i64)
                .set("name", s.name.as_str())
                .set("class", s.class.as_str())
                .set("start_us", s.start_us)
                .set("end_us", s.end_us);
            writeln!(out, "{}", laminar_json::to_string(&v))?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattributed_counts_root_time_outside_reported_spans() {
        let t = Tracer::default();
        let op = t.new_id();
        t.record(op, 0, "job", Class::Client, 0.0, 100.0);
        let req = t.record(op, op, "http", Class::Client, 0.0, 100.0);
        t.reported(op, req, 10.0, &[("enact_us", 40.0), ("plan_us", 10.0)]);
        let search = t.record(op, req, "search_us", Class::Reported, 60.0, 80.0);
        // Nested inside search_us: already covered.
        t.record(op, search, "embed_us", Class::Reported, 60.0, 70.0);
        t.record(op, op, "replay", Class::Replay, 500.0, 900.0);
        let u = t.unattributed();
        assert!((u - 0.3).abs() < 1e-9, "{u}");
    }
}
