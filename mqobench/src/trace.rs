//! Spans recorded by the benchmark around its calls into each layer.
//! Nothing here reaches into the program: a span brackets one public
//! call, so a layer's time is the time of its entry point.
//!
//! A span's self time is its duration minus the time its direct child
//! spans cover. Spans stay in memory until the run ends and are then
//! written out as JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point, e.g. `dag.expand`.
    pub name: String,
    /// Start time.
    pub start_us: f64,
    /// End time.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job or batch the span belongs to.
    pub job: u64,
}

/// Span recorder. A disabled tracer records nothing, so the same replay
/// code runs traced and untraced and the difference is the overhead.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `NONE` when tracing is off.
pub type SpanId = usize;
const NONE: SpanId = usize::MAX;

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str, job: u64) -> SpanId {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn exit(&mut self, id: SpanId) {
        if id == NONE {
            return;
        }
        let now = self.origin.elapsed().as_secs_f64() * 1e6;
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, job: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, job);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: `(calls, total duration ms, total self ms)`.
    pub fn by_name(&self) -> BTreeMap<String, (u64, f64, f64)> {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_us) {
            let dur = s.end_us - s.start_us;
            let e = out.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += dur / 1e3;
            e.2 += (dur - child) / 1e3;
        }
        out
    }

    /// Prints the per-layer table: calls, total self time, mean self
    /// time per call, and share of the root spans' time.
    pub fn print_table(&self, title: &str) {
        let names = self.by_name();
        let root_ms: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum();
        println!("\n=== {title} ===");
        println!(
            "{:<26} {:>8} {:>12} {:>12} {:>8}",
            "span", "calls", "self ms", "ms/call", "share"
        );
        for (name, (calls, _, self_ms)) in &names {
            println!(
                "{name:<26} {calls:>8} {self_ms:>12.3} {:>12.4} {:>7.2}%",
                self_ms / *calls as f64,
                100.0 * self_ms / root_ms.max(1e-9)
            );
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \
                 \"parent\": {parent}, \"job\": {}}}{sep}",
                s.name, s.start_us, s.end_us, s.job
            );
        }
        out.push(']');
        out
    }

    /// Writes the spans to `mqobench/out/trace-<workload>-<seed>.json`
    /// under the current directory (the checkout root).
    pub fn write(&self, workload: &str, seed: u64) {
        let dir = std::path::Path::new("mqobench").join("out");
        let path = dir.join(format!("trace-{workload}-{seed}.json"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, self.to_json())) {
            Ok(()) => println!("spans: {} written to {}", self.spans.len(), path.display()),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.enter("batch", 0);
        t.time("inner", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.exit(root);
        let by = t.by_name();
        let (calls, total, self_ms) = by["batch"];
        assert_eq!(calls, 1);
        assert!(total >= 5.0 && self_ms < total - 4.0, "{total} {self_ms}");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.to_json().contains("\"name\": \"inner\""));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("batch", 0);
        t.time("inner", 0, || ());
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
