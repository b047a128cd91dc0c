//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer is wrapped in a span:
//! name, start, end, parent span and job id. Spans stay in memory until
//! the run ends, are then written out as CSV, and the per-layer metrics
//! are derived from them as self times: a span's duration minus the
//! durations of its direct children. A disabled tracer records nothing,
//! so the untraced run pays one branch per call site.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub job: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-threaded span recorder; each load thread owns one and the
/// run merges them with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// Spans reserved up front so recording does not reallocate in the
    /// measured window of a normal run.
    const CAPACITY: usize = 1 << 16;

    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::with_capacity(if enabled { Self::CAPACITY } else { 0 }),
            open: Vec::new(),
        }
    }

    /// A tracer sharing this one's clock and switch, for another thread.
    pub fn sibling(&self) -> Self {
        Tracer::new(self.epoch, self.enabled)
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, job: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(Instant::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `call` inside a span, keeping its result observable so the
    /// optimizer cannot drop the work.
    pub fn time<R>(&mut self, name: &'static str, job: u64, call: impl FnOnce() -> R) -> R {
        let id = self.enter(name, job);
        let result = std::hint::black_box(call());
        self.exit(id);
        result
    }

    /// Records a span whose ends were observed elsewhere (a job's due
    /// time and its completion), returning its index for children.
    pub fn record(
        &mut self,
        name: &'static str,
        job: u64,
        start: Instant,
        end: Instant,
        parent: u32,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            job,
        });
        id
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != ROOT {
                span.parent += offset;
            }
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the durations of its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != ROOT {
                let parent = &mut self_ns[span.parent as usize];
                *parent = parent.saturating_sub(span.duration_ns());
            }
        }
        self_ns
    }

    /// Self times of every span called `name`, in nanoseconds.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(span, _)| span.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Writes every span as CSV, creating the parent directory.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("index,name,job,parent,start_ns,end_ns,self_ns\n");
        for (index, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if span.parent == ROOT {
                String::new()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{index},{},{},{parent},{},{},{self_ns}",
                span.name, span.job, span.start_ns, span.end_ns
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch, true);
        let ms = |n: u64| epoch + std::time::Duration::from_millis(n);
        let job = tracer.record("job", 7, ms(0), ms(10), ROOT);
        let submit = tracer.record("submit", 7, ms(0), ms(4), job);
        tracer.record("inner", 7, ms(1), ms(2), submit);
        assert_eq!(tracer.self_ns(), vec![6_000_000, 3_000_000, 1_000_000]);
        assert_eq!(tracer.self_times("job"), vec![6e6]);
    }

    #[test]
    fn nested_enter_exit_links_parents_and_absorb_rebases_them() {
        let epoch = Instant::now();
        let mut main = Tracer::new(epoch, true);
        main.time("a", 0, || ());
        let mut other = main.sibling();
        let outer = other.enter("outer", 1);
        other.time("inner", 1, || ());
        other.exit(outer);
        main.absorb(other);
        let spans = main.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, ROOT);
        assert_eq!(spans[2].parent, 1, "re-based onto the merged index");
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), false);
        assert_eq!(tracer.time("a", 0, || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
