//! Host wall-clock spans recorded by the benchmark around its own calls
//! into the runtime's public API.
//!
//! A span is opened with [`Tracer::begin`] and closed with [`Tracer::end`];
//! [`Tracer::call`] wraps one call. Spans nest through an explicit stack,
//! so every span knows the span that caused it. Each carries a request id
//! (round, launch or replay index). Nothing is recorded while the
//! tracer is disabled, and spans stay in memory until the run ends, when
//! they are aggregated per name and written out as Chrome trace JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer's epoch.
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Handle of an open span; `None` when tracing was off at `begin`.
#[must_use]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    pub count: usize,
    /// Sum of durations.
    pub busy: f64,
    /// Sum of durations minus the part covered by direct children.
    pub self_time: f64,
    pub durs: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggling tracing inside a span");
        self.enabled = on;
    }

    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let t = self.epoch.elapsed().as_secs_f64();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: t,
            end: f64::NAN,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open` and any span still open inside it (left open when an
    /// error returned early).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let t = self.epoch.elapsed().as_secs_f64();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end = t;
            if top == idx {
                return;
            }
        }
        panic!("span {idx} closed twice");
    }

    /// Run `f` and return its result with its wall time in seconds. The
    /// wall time is measured whether or not tracing is on; a span is
    /// recorded only when it is.
    pub fn call<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name, req);
        let t0 = Instant::now();
        let out = f();
        let dt = t0.elapsed().as_secs_f64();
        self.end(open);
        (out, dt)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Aggregate closed spans by name.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_time) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.busy += s.dur();
            a.self_time += s.dur() - kids;
            a.durs.push(s.dur());
        }
        out
    }

    /// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"host wall\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start * 1e6,
                s.dur() * 1e6,
                s.req
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let outer = tr.begin("round", 0);
        let ((), _) = tr.call("runtime.launch", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.end(outer);
        let agg = tr.aggregate();
        let round = &agg["round"];
        let launch = &agg["runtime.launch"];
        assert!((round.busy - round.self_time - launch.busy).abs() < 1e-12);
        assert!(launch.busy >= 0.002);
        assert!(tr.to_chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn end_closes_spans_left_open_inside() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        let outer = tr.begin("round", 0);
        let _inner = tr.begin("state.checkpoint_to", 0);
        tr.end(outer);
        assert!(tr.spans().iter().all(|s| s.end.is_finite()));
        tr.set_enabled(false);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut tr = Tracer::new();
        let ((), dt) = tr.call("runtime.launch", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(dt >= 0.001);
        assert!(tr.spans().is_empty());
    }
}
