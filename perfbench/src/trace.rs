//! Spans the benchmark records around its own calls into the engine in
//! traced passes. They are kept in memory and written out when the run
//! ends; self time and residue are computed from them.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub pass: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work only traced passes do (re-running a simulation to time it);
    /// left out of the traced pass's wall time.
    pub probe: bool,
    /// A `RoundTrace` phase: its duration is the engine's own timing,
    /// laid out back to back from the start of its step span.
    pub derived: bool,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// In-memory span recorder. `open` nests under the innermost open span.
pub struct Tracer {
    origin: Instant,
    pass: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Tags the spans recorded from now on with `pass`.
    pub fn begin_pass(&mut self, pass: usize) {
        assert!(self.stack.is_empty(), "a pass starts with no open span");
        self.pass = pass;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, probe: bool) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            pass: self.pass,
            name,
            start_ns,
            end_ns: start_ns,
            probe,
            derived: false,
        });
        let id = self.spans.len() - 1;
        self.stack.push(id);
        id
    }

    /// Opens a span around a call into the engine.
    pub fn open(&mut self, name: &'static str) -> usize {
        self.push(name, false)
    }

    /// Opens a span around measurement-only work (see [`Span::probe`]).
    pub fn open_probe(&mut self, name: &'static str) -> usize {
        self.push(name, true)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now();
    }

    /// Closes every open span, as after an operation that panicked.
    pub fn close_all(&mut self) {
        while let Some(&id) = self.stack.last() {
            self.close(id);
        }
    }

    /// Adds `phases` (name, milliseconds) as derived children of the
    /// closed span `parent`, back to back from its start.
    pub fn phases(&mut self, parent: usize, phases: &[(&'static str, f64)]) {
        let mut at = self.spans[parent].start_ns;
        for &(name, ms) in phases {
            let end = at + (ms * 1e6).round() as u64;
            self.spans.push(Span {
                parent: Some(parent),
                pass: self.pass,
                name,
                start_ns: at,
                end_ns: end,
                probe: false,
                derived: true,
            });
            at = end;
        }
    }

    /// Σ duration of the probe spans directly under `parent`, in
    /// milliseconds.
    pub fn probe_ms(&self, parent: usize) -> f64 {
        self.spans[parent + 1..]
            .iter()
            .filter(|s| s.probe && s.parent == Some(parent))
            .map(Span::ms)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Σ duration of the spans named `name` in `pass`, in milliseconds.
    pub fn total_ms(&self, pass: usize, name: &str) -> f64 {
        let sum: f64 = self
            .spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(Span::ms)
            .sum();
        // An empty f64 sum is -0.0; report absent spans as 0.
        sum + 0.0
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// The spans as CSV, one line each, with their self time.
    pub fn to_csv(&self) -> String {
        let own = self.self_ms();
        let mut out = String::from("id,parent,pass,name,start_us,end_us,self_us,probe,derived\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{:.3},{:.3},{:.3},{},{}",
                s.pass,
                s.name,
                s.start_ns as f64 * 1e-3,
                s.end_ns as f64 * 1e-3,
                own[i] * 1e3,
                s.probe,
                s.derived
            );
        }
        out
    }
}

/// Calls `f`, inside a span named `name` when tracing.
pub fn timed<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => {
            let id = t.open(name);
            let v = f();
            t.close(id);
            v
        }
        None => f(),
    }
}
