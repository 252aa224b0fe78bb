//! In-memory spans recorded around the benchmark's calls into each crate,
//! and the self-time arithmetic that turns them into per-layer figures.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the recorder's origin;
/// `parent` indexes the enclosing span in the same recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `uarch.roi_run`.
    pub name: &'static str,
    /// Start, in ns since the origin.
    pub start_ns: u64,
    /// End, in ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Work done inside the span, as counted by the recorder's work
    /// counter (0 without one).
    pub work: u64,
}

/// Records nested spans and named counts for one cell (one request).
/// Spans are opened and closed on one thread, so children nest strictly.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    work: Option<fn() -> u64>,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Recorder {
    /// A recorder timing relative to `origin`, shared by all recorders of
    /// one pass so their spans line up.
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            work: None,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A recorder that also reads the monotonic counter `work` (e.g. the
    /// calling thread's retired instructions) at each span boundary.
    pub fn with_work(origin: Instant, work: fn() -> u64) -> Self {
        Recorder {
            work: Some(work),
            ..Recorder::new(origin)
        }
    }

    fn work_now(&self) -> u64 {
        self.work.map_or(0, |f| f())
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Run `f` inside a span named `name`; spans `f` opens on the
    /// recorder it is handed become children of this one.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        let work0 = self.work_now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            work: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].work = self.work_now() - work0;
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Add `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    /// The recorded spans and counts.
    pub fn finish(self) -> (Vec<Span>, BTreeMap<&'static str, u64>) {
        (self.spans, self.counts)
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// child time outside the parent ignored).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            children[p].push((a, b));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self work of each span: its work minus its direct children's. Spans
/// from one recorder nest strictly, so the children's work lies inside.
pub fn self_work(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.work).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.work);
        }
    }
    out
}

/// Self time (ns) and self work, summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for ((s, t), w) in spans.iter().zip(self_times(spans)).zip(self_work(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += t;
        e.1 += w;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            work: end_ns - start_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("cell", 0, 100, None),
            span("warmup", 10, 40, Some(0)),
            span("roi", 50, 90, Some(0)),
            span("inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        assert_eq!(self_work(&spans), vec![30, 20, 40, 10]);
        let by_name = self_by_name(&spans);
        assert_eq!(by_name["cell"], (30, 30));
        assert_eq!(by_name["warmup"], (20, 20));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)),
            span("c", 190, 260, Some(0)),
            span("d", 50, 105, Some(0)),
        ];
        // Covered: [100,105) + [110,170) + [190,200) = 75 of 100.
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn same_name_self_times_add_up() {
        let spans = vec![
            span("cell", 0, 10, None),
            span("cell", 20, 35, None),
            span("x", 22, 30, Some(1)),
        ];
        assert_eq!(self_by_name(&spans)["cell"], (17, 17));
    }

    #[test]
    fn recorder_reads_the_work_counter_at_span_boundaries() {
        use std::cell::Cell;
        thread_local!(static TICKS: Cell<u64> = const { Cell::new(0) });
        fn tick() -> u64 {
            TICKS.with(|t| {
                t.set(t.get() + 1);
                t.get()
            })
        }
        let mut rec = Recorder::with_work(Instant::now(), tick);
        rec.span("outer", |rec| rec.span("inner", |_| ()));
        let (spans, _) = rec.finish();
        // Reads: outer start 1, inner 2..3, outer end 4.
        assert_eq!(spans[0].work, 3);
        assert_eq!(spans[1].work, 1);
        assert_eq!(self_work(&spans), vec![2, 1]);
    }

    #[test]
    fn recorder_nests_spans_and_sums_counts() {
        let mut rec = Recorder::new(Instant::now());
        let v = rec.span("outer", |rec| {
            rec.span("inner", |_| ());
            rec.count("n", 2);
            7
        });
        rec.span("next", |_| ());
        rec.count("n", 3);
        assert_eq!(v, 7);
        let (spans, counts) = rec.finish();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner", Some(0)), ("next", None)]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(counts["n"], 5);
    }
}
