//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end (nanoseconds since the tracer was
//! created) and the index of the span that was open when it started. The
//! benchmark records spans around every call it makes into a layer's
//! public functions; nothing inside the program is instrumented. With the
//! tracer off, [`Tracer::enter`]/[`Tracer::exit`] cost one branch, so the
//! untraced and traced runs share one code path wherever they can.
//!
//! Span names are `layer` or `layer.function` (`service.paths.build`,
//! `topo.channels`); a layer's figures aggregate every span whose name is
//! the layer or starts with `layer.`.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer` or `layer.function`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span opened with [`Tracer::enter`]; close it with [`Tracer::exit`].
#[derive(Debug)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<u32>);

/// A clock shared with worker threads, which collect their spans locally
/// and hand them back through [`Tracer::adopt`].
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    on: bool,
}

impl Clock {
    /// ns since the tracer's origin (0 when tracing is off).
    pub fn now(&self) -> u64 {
        if self.on {
            u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
        } else {
            0
        }
    }

    /// Runs `f`, appending a `(name, start, end)` row to `out` when on.
    pub fn time<R>(
        &self,
        out: &mut Vec<(&'static str, u64, u64)>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = self.now();
        let r = f();
        out.push((name, start, self.now()));
        r
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Self {
        Self {
            clock: Clock {
                origin: Instant::now(),
                on,
            },
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.clock.on
    }

    /// The shared clock for worker threads.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.clock.on {
            return Open(None);
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            start: self.clock.now(),
            end: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.clock.now();
            debug_assert_eq!(self.stack.last(), Some(&idx), "spans close in order");
            self.stack.pop();
            self.spans[idx as usize].end = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Adds spans recorded elsewhere (worker threads, or stage timings
    /// reported by the program) as children of the innermost open span.
    pub fn adopt(&mut self, rows: impl IntoIterator<Item = (&'static str, u64, u64)>) {
        if !self.clock.on {
            return;
        }
        let parent = self.stack.last().copied();
        self.spans
            .extend(rows.into_iter().map(|(name, start, end)| Span {
                name,
                start,
                end,
                parent,
            }));
    }

    /// Adds `(name, seconds)` stage rows as consecutive children of the
    /// most recently closed top-level-or-nested span named `parent_name`.
    pub fn adopt_stages(&mut self, parent_name: &'static str, stages: &[(&'static str, f64)]) {
        if !self.clock.on {
            return;
        }
        let Some(pidx) = self.spans.iter().rposition(|s| s.name == parent_name) else {
            return;
        };
        let mut at = self.spans[pidx].start;
        for &(name, secs) in stages {
            let end = at + (secs * 1e9) as u64;
            self.spans.push(Span {
                name,
                start: at,
                end,
                parent: Some(pidx as u32),
            });
            at = end;
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (children from worker threads may overlap).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
                for (a, b) in kids {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur().saturating_sub(covered)
            })
            .collect()
    }

    /// Per-name totals: `(count, total duration ns, total self ns)`.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur();
            e.2 += own;
        }
        out
    }

    /// Writes the spans as tab-separated `index name start_ns end_ns
    /// parent` rows.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{i}\t{}\t{}\t{}\t{parent}", s.name, s.start, s.end)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![Span {
            name: "p",
            start: 0,
            end: 100,
            parent: None,
        }];
        t.stack.push(0);
        t.adopt([("a", 10, 40), ("b", 30, 50), ("c", 80, 120)]);
        // Children cover [10, 50) and [80, 100): 60 of the parent's 100 ns.
        assert_eq!(t.self_times()[0], 40);
        assert_eq!(t.by_name()["b"], (1, 20, 20));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let open = t.enter("x");
        t.exit(open);
        t.adopt([("y", 0, 1)]);
        assert!(t.spans().is_empty());
    }
}
