//! The benchmark's span recorder for traced runs.
//!
//! Spans live in memory — name, start, end, parent, the operation they
//! belong to, and how many calls of the named layer they cover — and are
//! written out once at the end as JSON lines. Analysis (self time,
//! per-call quantiles, coverage) happens in `perfbench/benchlib.py`.
//! A disabled recorder records nothing, so untraced runs pay one branch.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub units: u64,
}

pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans::with_origin(enabled, Instant::now())
    }

    /// A recorder sharing `origin`, so per-thread recorders merge onto one
    /// time axis.
    pub fn with_origin(enabled: bool, origin: Instant) -> Spans {
        Spans {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index for use as a parent
    /// (`usize::MAX` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        units: u64,
    ) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
            units,
        });
        self.spans.len() - 1
    }

    /// Opens a parent span whose end is filled in by [`Spans::close`].
    pub fn open(&mut self, name: &'static str, op: u64, start: Instant) -> usize {
        self.record(name, op, None, start, start, 1)
    }

    pub fn close(&mut self, index: usize, end: Instant) {
        if self.enabled {
            let end_ns = self.ns(end);
            self.spans[index].end_ns = end_ns;
        }
    }

    /// Appends another recorder's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"units\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.units
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut spans = Spans::new(false);
        let t = Instant::now();
        assert_eq!(spans.record("a", 0, None, t, t, 1), usize::MAX);
        assert!(spans.spans.is_empty());
    }

    #[test]
    fn absorb_rebases_parent_indices() {
        let origin = Instant::now();
        let mut a = Spans::with_origin(true, origin);
        let mut b = Spans::with_origin(true, origin);
        let t = origin + Duration::from_micros(5);
        a.record("root", 0, None, origin, t, 1);
        let p = b.open("root", 1, origin);
        b.record("child", 1, Some(p), origin, t, 1);
        b.close(p, t);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[1].end_ns, 5_000);
    }
}
