//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call it makes into a library layer in a
//! span named `<layer>.<call>`. Spans are kept in memory and written
//! out once, when the job ends. With tracing off, [`Tracer::span`]
//! only calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: name, start and end relative to the tracer's
/// origin, and the index of the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    /// Recorded spans, and the indices of the spans still open.
    state: RefCell<(Vec<Span>, Vec<usize>)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::new((Vec::new(), Vec::new())),
        }
    }

    /// Runs `f` inside a span called `name`. Spans that `f` opens on
    /// this tracer become its children.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let (spans, open) = &mut *self.state.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: open.last().copied(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let (spans, open) = &mut *self.state.borrow_mut();
        open.pop();
        spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Total duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.state
            .borrow()
            .0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let state = self.state.borrow();
        let spans = &state.0;
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        out
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .state
            .borrow()
            .0
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                     \"parent\": {parent}}}",
                    s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}
