//! In-memory span recording for the traced run. Spans are appended to a
//! vector while the workload runs and written out once, at exit; an
//! untraced run records nothing.

use revbench::stats::{self_times, Span};
use std::collections::BTreeMap;
use std::time::Instant;

/// A span recorder. Every recorder cloned from the same root shares its
/// origin, so traces filled on different threads merge into one.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// The index returned for spans an untraced run does not record.
pub const NO_SPAN: usize = usize::MAX;

impl Trace {
    /// A recorder whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Trace { origin: Instant::now(), enabled, spans: Vec::new() }
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self) -> Self {
        Trace { origin: self.origin, enabled: self.enabled, spans: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn parent(parent: usize) -> Option<usize> {
        (parent != NO_SPAN).then_some(parent)
    }

    /// Records a span that ran from `start` to `end`; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        id: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: Self::parent(parent),
            id,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that ends at [`Trace::close`]; children name it as
    /// their parent.
    pub fn open(&mut self, name: &'static str, parent: usize, id: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, id, now, now)
    }

    /// Closes a span opened by [`Trace::open`].
    pub fn close(&mut self, span: usize) {
        if span != NO_SPAN {
            self.spans[span].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.time_ns(name, parent, id, f).0
    }

    /// Runs `f` inside a span and also returns its wall time in
    /// nanoseconds, recorded or not.
    pub fn time_ns<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, id, start, end);
        (out, (end - start).as_nanos() as f64)
    }

    /// Appends another recorder's spans, re-pointing their parents; its
    /// top-level spans become children of `parent`.
    pub fn absorb(&mut self, other: Trace, parent: usize) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map_or(Self::parent(parent), |p| Some(p + offset));
            s
        }));
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// For every span named `root`, the self time (in milliseconds) of
    /// each span name beneath it, summed — one map per unit of work.
    pub fn layer_ms_per_unit(&self, root: &str) -> Vec<BTreeMap<&'static str, f64>> {
        let selfs = self_times(&self.spans);
        let mut units: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                units.entry(i).or_default();
            }
            let mut up = s.parent;
            while let Some(p) = up {
                if self.spans[p].name == root {
                    *units.entry(p).or_default().entry(s.name).or_default() +=
                        selfs[i] as f64 / 1e6;
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        units.into_values().collect()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let root = t.open("unit", NO_SPAN, 0);
        assert_eq!(t.time("call", root, 0, || 7), 7);
        t.close(root);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn layer_totals_group_self_time_under_each_root() {
        let mut t = Trace::new(true);
        let origin = t.origin;
        let at = |ns| origin + std::time::Duration::from_nanos(ns);
        let u0 = t.record("unit", NO_SPAN, 0, at(0), at(10_000_000));
        let item = t.record("item", u0, 1, at(0), at(8_000_000));
        t.record("call", item, 1, at(1_000_000), at(3_000_000));
        t.record("call", item, 1, at(4_000_000), at(5_000_000));
        let mut other = t.fork();
        let u1 = other.record("unit", NO_SPAN, 0, at(20_000_000), at(21_000_000));
        other.record("call", u1, 2, at(20_000_000), at(20_500_000));
        t.absorb(other, NO_SPAN);
        let units = t.layer_ms_per_unit("unit");
        assert_eq!(units.len(), 2);
        assert_eq!(units[0]["call"], 3.0);
        assert_eq!(units[0]["item"], 5.0);
        assert_eq!(units[1]["call"], 0.5);
    }
}
