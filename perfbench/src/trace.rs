//! Spans the benchmark records around its own calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it and the
//! request it belongs to. Spans stay in memory until the run ends and are then
//! written as JSON lines with their self time: the span's duration minus the
//! durations of its children.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use mfa_explore::json::Json;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<u64>,
    request: Option<u64>,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// The span recorder. A disabled tracer records nothing and hands out no
/// ids, so untraced runs pay one branch per would-be span.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves `n` consecutive ids and returns the first, for spans that
    /// are closed after their children open (a request span ends with its
    /// reply, after the encode span that names it as parent).
    pub fn reserve(&self, n: u64) -> Option<u64> {
        self.enabled
            .then(|| self.next_id.fetch_add(n, Ordering::Relaxed))
    }

    /// Records a finished span under `id` (a fresh id when `None`).
    pub fn record(
        &self,
        id: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = id.unwrap_or_else(|| self.next_id.fetch_add(1, Ordering::Relaxed));
        self.spans.lock().expect("span list lock").push(Span {
            id,
            name,
            start,
            end,
            parent,
            request,
        });
        Some(id)
    }

    /// Runs `f` inside a span; `f` receives the span's id to parent its own
    /// spans on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        self.record(Some(id), name, start, Instant::now(), parent, None);
        out
    }

    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum::<f64>() / 1e3
    }

    /// Self time in milliseconds of every span, by span id.
    fn self_ms(spans: &[Span]) -> HashMap<u64, f64> {
        let mut children: HashMap<u64, f64> = HashMap::new();
        for span in spans {
            if let Some(parent) = span.parent {
                *children.entry(parent).or_default() += span.ms();
            }
        }
        spans
            .iter()
            .map(|s| (s.id, s.ms() - children.get(&s.id).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Per span name: count, total and self time in milliseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans();
        let self_ms = Self::self_ms(&spans);
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for span in &spans {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.ms();
            entry.2 += self_ms[&span.id];
        }
        out
    }

    /// Writes every span as one JSON line, times in microseconds since the
    /// tracer was created.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ms = Self::self_ms(&spans);
        let us = |t: Instant| (t - self.origin).as_secs_f64() * 1e6;
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
        let mut out = String::new();
        for span in &spans {
            Json::obj(vec![
                ("id", Json::Num(span.id as f64)),
                ("name", Json::str(span.name)),
                ("start_us", Json::Num(us(span.start))),
                ("end_us", Json::Num(us(span.end))),
                ("parent", opt(span.parent)),
                ("request", opt(span.request)),
                ("self_us", Json::Num(self_ms[&span.id] * 1e3)),
            ])
            .write(&mut out);
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let tracer = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let root = tracer.record(None, "round", ms(0), ms(10), None, Some(1));
        tracer.record(None, "get", ms(1), ms(4), root, Some(1));
        tracer.record(None, "get", ms(5), ms(7), root, Some(1));
        let summary = tracer.summary();
        let (count, total, own) = summary["round"];
        assert_eq!(count, 1);
        assert!((total - 10.0).abs() < 1e-9 && (own - 5.0).abs() < 1e-9);
        assert_eq!(summary["get"].0, 2);
        assert!((tracer.total_s("get") - 0.005).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("work", None, |id| id), None);
        assert_eq!(tracer.reserve(3), None);
        assert!(tracer.summary().is_empty());
    }
}
