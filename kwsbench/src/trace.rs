//! In-memory span tracing and the benchmark's summary arithmetic.
//!
//! A [`Tracer`] keeps every span in a `Vec` while the workload runs and
//! writes them out once at the end. A span records its name, start, end,
//! parent span and the id of the window it belongs to; spans of one window
//! share that id. A span's self time is its duration minus the part of its
//! interval that its child spans cover.

use std::borrow::Cow;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub window: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span store with a shared time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` as nanoseconds since the origin (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span and returns its index, which children name as parent.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        window: u64,
    ) -> usize {
        self.spans.push(Span { name: name.into(), start_ns, end_ns, parent, window });
        self.spans.len() - 1
    }

    /// Sets the end of a span opened earlier with a provisional end.
    pub fn close(&mut self, span: usize, end_ns: u64) {
        self.spans[span].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let all = self_times(&self.spans);
        self.spans.iter().zip(all).filter(|(s, _)| s.name == name).map(|(_, t)| t as f64).collect()
    }

    /// Writes one JSON object per span, with its self time, to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"window\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.end_ns, span.window
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (lo, hi) = (span.start_ns, span.end_ns.max(span.start_ns));
            let mut covered = 0u64;
            let mut reach = lo;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.clamp(reach, hi), e.clamp(lo, hi));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (hi - lo) - covered
        })
        .collect()
}

/// Nearest-rank `q`-quantile of `values`, reported only when at least ten
/// samples lie beyond it; `None` when the sample cannot support it.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + 10).then(|| sorted[rank - 1])
}

/// Median of `values` (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=999).map(f64::from).collect();
        // Rank ceil(0.99 · 999) = 990 leaves only 9 samples beyond.
        assert_eq!(percentile(&values, 0.99), None);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.99), Some(990.0));
        assert_eq!(percentile(&values, 0.5), Some(500.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 10], 0.0), None);
        assert_eq!(percentile(&[3.0; 11], 0.0), Some(3.0));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_nested_children() {
        let mut t = Tracer::new();
        let root = t.record("window", 0, 100, None, 7);
        // Two overlapping children cover [10, 50); a third covers [60, 70).
        let a = t.record("feed", 10, 40, Some(root), 7);
        t.record("feed", 30, 50, Some(root), 7);
        t.record("flush", 60, 70, Some(root), 7);
        // A grandchild counts against its parent only.
        t.record("mfcc", 12, 20, Some(a), 7);
        // A child running past its parent is clipped to the parent.
        let b = t.record("late", 90, 130, Some(root), 7);
        let selfs = self_times(t.spans());
        assert_eq!(selfs[root], 100 - 40 - 10 - 10);
        assert_eq!(selfs[a], 30 - 8);
        assert_eq!(selfs[b], 40);
        assert_eq!(t.self_times_of("mfcc"), vec![8.0]);
        assert_eq!(t.durations("feed"), vec![30.0, 20.0]);
    }

    #[test]
    fn closing_a_span_sets_its_end() {
        let mut t = Tracer::new();
        let s = t.record("window", 5, 5, None, 1);
        t.close(s, 25);
        assert_eq!(t.spans()[s].duration_ns(), 20);
    }
}
