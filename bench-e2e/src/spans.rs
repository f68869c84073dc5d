//! Outside-in spans for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer
//! (name, start, end, parent) and keeps them in memory; they are written
//! out once the run ends. A layer's self time is its span's duration
//! minus the durations of its child spans. With the log disabled every
//! call is a plain timer, so the untraced run pays nothing for it.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the log was created.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-boundary name, e.g. `sim.run`.
    pub name: &'static str,
    /// Index of the cell the span belongs to, if any.
    pub cell: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in [`SpanLog::spans`].
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log that records spans when `enabled` and only times otherwise.
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggling the log inside a span");
        self.enabled = on;
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the spans opened before its matching
    /// [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, cell: Option<usize>) -> Instant {
        if self.enabled {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                cell,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
        }
        Instant::now()
    }

    /// Closes the innermost open span; returns the seconds since `start`.
    pub fn close(&mut self, start: Instant) -> f64 {
        let secs = start.elapsed().as_secs_f64();
        if self.enabled {
            let end_ns = self.now_ns();
            let idx = self.open.pop().expect("close without open");
            self.spans[idx].end_ns = end_ns;
        }
        secs
    }

    /// Times `f` as one span; returns its result and its seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        cell: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.open(name, cell);
        let r = f();
        (r, self.close(start))
    }

    /// Self time of span `idx`: its duration minus its children's.
    pub fn self_seconds(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::seconds)
            .sum();
        self.spans[idx].seconds() - children
    }

    /// The spans as JSON Lines (`name`, `cell`, `start_ns`, `end_ns`,
    /// `parent`), for writing out when the run ends.
    pub fn to_jsonl(&self, cell_names: &[String]) -> String {
        use pms_trace::Json;
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Null, |v| Json::UInt(v as u64));
            let line = Json::obj([
                ("id", Json::UInt(i as u64)),
                ("name", Json::str(s.name)),
                (
                    "cell",
                    s.cell
                        .map_or(Json::Null, |c| Json::str(cell_names[c].clone())),
                ),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                ("parent", opt(s.parent)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut log = SpanLog::new(true);
        let root = log.open("rep", None);
        log.time("a", Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.time("b", Some(1), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.close(root);
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let children = spans[1].seconds() + spans[2].seconds();
        assert!((log.self_seconds(0) - (spans[0].seconds() - children)).abs() < 1e-12);
        assert!(log.self_seconds(0) >= 0.0);
        assert_eq!(log.self_seconds(1), spans[1].seconds());
    }

    #[test]
    fn disabled_log_only_times() {
        let mut log = SpanLog::new(false);
        let ((), secs) = log.time("a", None, || {});
        assert!(secs >= 0.0);
        assert!(log.spans().is_empty());
    }
}
