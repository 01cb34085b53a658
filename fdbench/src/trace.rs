//! Spans around the benchmark's calls into each layer's public API.
//!
//! A [`Tracer`] always returns the wall time of the call it wraps, so
//! the same code path measures end-to-end metrics (tracing off) and
//! records spans (tracing on). Spans are kept in memory and written out
//! when the run ends; a span's self time is its duration minus that of
//! its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans beyond this many are timed but not kept, which bounds the
/// span file of a long traced run.
const MAX_SPANS: usize = 200_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Spans of one commit round share a group; 0 is "no group".
    group: u64,
    start: Duration,
    end: Duration,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
    dropped: u64,
}

/// A span opened with [`Tracer::enter`]; close it with [`Tracer::exit`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            group: 0,
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; timing is unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans opened from now on with `group` (a commit round).
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.enabled || self.spans.len() >= MAX_SPANS {
            self.dropped += u64::from(self.enabled);
            return Open { index: None, start };
        }
        let index = self.spans.len();
        let at = start - self.origin;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            group: self.group,
            start: at,
            end: at,
        });
        self.open.push(index);
        Open {
            index: Some(index),
            start,
        }
    }

    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end = end - self.origin;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(index), "spans must close innermost first");
        }
        end - open.start
    }

    /// Runs `f` inside a span named `name`, returning its result and
    /// wall time.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.enter(name);
        let out = f();
        (out, self.exit(open))
    }

    /// Per span name: count, total and self time, in first-seen order.
    pub fn layers(&self) -> Vec<LayerTime> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut by_name: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end - span.start;
            let entry = by_name.entry(span.name).or_insert_with(|| {
                order.push(span.name);
                LayerTime {
                    name: span.name,
                    count: 0,
                    total: Duration::ZERO,
                    self_time: Duration::ZERO,
                }
            });
            entry.count += 1;
            entry.total += total;
            entry.self_time += total.saturating_sub(child_time[i]);
        }
        order.into_iter().map(|n| by_name[n].clone()).collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"group\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.group,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }

    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[derive(Debug, Clone)]
pub struct LayerTime {
    pub name: &'static str,
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer");
        let ((), inner) = t.time("inner", || std::thread::sleep(Duration::from_millis(5)));
        let total = t.exit(outer);
        let layers = t.layers();
        assert_eq!(layers[0].name, "outer");
        assert_eq!(layers[0].self_time + layers[1].total, layers[0].total);
        assert!(inner <= total);
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut t = Tracer::new(false);
        let ((), d) = t.time("x", || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert_eq!(t.num_spans(), 0);
    }
}
