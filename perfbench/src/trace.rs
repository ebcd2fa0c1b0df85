//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Nothing inside the program is traced; a
//! span's name says which layer the call belongs to (`server.*`,
//! `query.*`, `jit.*`, `core.*`; `client.*` and `bench.*` are the
//! benchmark's own).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One span: name, interval (ns since the run's epoch), the span that
/// caused it, and the statement it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub stmt: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A per-thread span recorder; threads' tracers are merged at the end.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, stmt: u64) -> usize {
        let start = self.now();
        self.add(name, start, start, parent, stmt)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// A span around `f`.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        stmt: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, stmt);
        let out = f();
        self.close(id);
        out
    }

    /// A span with a known interval, for a duration the program reports
    /// about the inside of a call (e.g. the scan wall of an analyzed
    /// statement), laid out inside its parent.
    pub fn add(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        stmt: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            stmt,
        });
        self.spans.len() - 1
    }

    /// Append another tracer's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time summed per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, Duration> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer()).or_insert(Duration::ZERO) += Duration::from_nanos(t);
        }
        out
    }

    /// Durations (ms) of every span called `name`, keyed by statement.
    pub fn durations_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.stmt, s.duration() as f64 / 1e6))
            .collect()
    }

    /// Self times (ms) of every span called `name`, keyed by statement.
    pub fn self_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(s, t)| (s.stmt, t as f64 / 1e6))
            .collect()
    }

    /// Write the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, t)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"stmt\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {t}}}",
                s.name, s.stmt, s.start, s.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let mut tr = Tracer::new(Instant::now());
        let root = tr.add("server.handle", 0, 100, None, 1);
        tr.add("query.execute", 10, 40, Some(root), 1);
        tr.add("core.scan", 30, 60, Some(root), 1); // overlaps the sibling
        tr.add("jit.compile", 90, 130, Some(root), 1); // runs past the parent
        assert_eq!(tr.self_times(), vec![100 - 50 - 10, 30, 30, 40]);
        let by_layer = tr.self_time_by_layer();
        assert_eq!(by_layer["server"], Duration::from_nanos(40));
        assert_eq!(by_layer["core"], Duration::from_nanos(30));
    }
}
