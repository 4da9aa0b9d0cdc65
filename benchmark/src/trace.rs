//! In-memory spans recorded around calls into each layer, written out as
//! Chrome trace-event JSON (which Perfetto and `chrome://tracing` open).
//!
//! Spans are recorded from the benchmark's own files, around the public
//! calls it makes into each module; nothing inside the program is
//! instrumented. A disabled recorder does no clock reads at all, so the
//! same replay code runs traced and untraced and the difference between
//! the two is the tracing overhead.

use std::time::Instant;

/// The module layer a span belongs to: one trace track each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The benchmark's own rep and call boundaries.
    Bench,
    /// `core::native` pipeline (`run_pipeline`).
    Pipeline,
    /// `core::native` expert store (build and fetches).
    Store,
    /// `moe` attention block.
    Attention,
    /// `moe` gate: pre-MoE norm and routing.
    Gate,
    /// `moe` experts over the `tensor` kernels.
    Experts,
    /// `moe` combine of expert outputs.
    Combine,
    /// `moe` embedding and logits.
    EmbedLogits,
    /// `core::engine` plus `sim` (one span per `Engine::run`).
    Engine,
    /// `serve` loops (one span per serve call).
    Serve,
    /// `serve::metrics`.
    Metrics,
}

impl Track {
    const ALL: [Track; 11] = [
        Track::Bench,
        Track::Pipeline,
        Track::Store,
        Track::Attention,
        Track::Gate,
        Track::Experts,
        Track::Combine,
        Track::EmbedLogits,
        Track::Engine,
        Track::Serve,
        Track::Metrics,
    ];

    fn label(self) -> &'static str {
        match self {
            Track::Bench => "benchmark",
            Track::Pipeline => "core::native pipeline",
            Track::Store => "core::native store",
            Track::Attention => "moe attention",
            Track::Gate => "moe gate",
            Track::Experts => "moe experts + tensor kernels",
            Track::Combine => "moe combine",
            Track::EmbedLogits => "moe embed + logits",
            Track::Engine => "core::engine + sim",
            Track::Serve => "serve",
            Track::Metrics => "serve::metrics",
        }
    }

    fn tid(self) -> usize {
        self as usize + 1
    }
}

/// One recorded call: name, track, start and end (ns since the recorder
/// was made), and the span that enclosed it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call went into.
    pub track: Track,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (inert when the recorder is off).
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span with Recorder::end"]
pub struct Open(Option<usize>);

impl Open {
    /// The span's index (`None` when the recorder is off).
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

/// Span recorder. Spans nest: a span opened while another is open
/// records it as its parent.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder; `on == false` records nothing and reads no clock.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, track: Track) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            track,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans closed out of order");
        self.spans[idx].end_ns = end;
    }

    /// Records an already-measured span under the innermost open span.
    pub fn record(&mut self, name: &'static str, track: Track, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            track,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.stack.last().copied(),
        };
        self.spans.push(span);
    }

    /// Total ns of the spans named `name` that descend from span `root`
    /// (or of all of them, with `root == None`).
    pub fn total_ns(&self, name: &str, root: Option<usize>) -> u64 {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, s)| s.name == name && root.is_none_or(|r| self.descends(*i, r)))
            .map(|(_, s)| s.ns())
            .sum()
    }

    fn descends(&self, mut idx: usize, root: usize) -> bool {
        loop {
            if idx == root {
                return true;
            }
            match self.spans[idx].parent {
                Some(p) => idx = p,
                None => return false,
            }
        }
    }

    /// The spans of the subtree under `root` (all spans with `None`) as
    /// Chrome trace-event JSON: one complete ("X") event per span on its
    /// layer's track, each carrying its own id and its parent's id.
    pub fn chrome_json(&self, root: Option<usize>) -> String {
        let mut events = Vec::new();
        for t in Track::ALL {
            let tid = t.tid();
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.label()
            ));
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_sort_index\",\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            if root.is_some_and(|r| !self.descends(i, r)) {
                continue;
            }
            let parent = s
                .parent
                .map_or(String::new(), |p| format!(",\"parent\":{p}"));
            events.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i}{parent}}}}}",
                s.track.tid(),
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total_by_subtree() {
        let mut rec = Recorder::new(true);
        let rep = rec.begin("rep", Track::Bench);
        let a = rec.begin("attn", Track::Attention);
        rec.end(a);
        let a = rec.begin("attn", Track::Attention);
        rec.end(a);
        rec.end(rep);
        let other = rec.begin("attn", Track::Attention);
        rec.end(other);
        let root = rep.index();
        assert_eq!(rec.spans[1].parent, root);
        assert_eq!(rec.spans[3].parent, None);
        let all = rec.total_ns("attn", None);
        let under = rec.total_ns("attn", root);
        assert_eq!(all, under + rec.spans[3].ns());
        let json = rec.chrome_json(root);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.begin("x", Track::Bench);
        rec.end(s);
        assert!(rec.spans.is_empty());
    }
}
