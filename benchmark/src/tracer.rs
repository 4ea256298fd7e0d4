//! The benchmark's span tracer.
//!
//! This PR measures every layer from outside: a span is recorded around
//! each call into a library crate's public function. Spans stay in
//! memory and are written out once, at exit. A disabled tracer records
//! nothing, so the end-to-end run pays one branch per call site.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `core.execute`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The pass the span belongs to (spans of one pass share it).
    pub pass: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Spans recorded from now on belong to pass `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    /// Runs `f` inside a span named `name`. `f` gets the tracer back so
    /// it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of it that its
    /// child spans cover. Children of one parent never overlap (one
    /// thread, stack discipline), so their cover is the sum of their
    /// durations.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let cover: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_ns)
            .sum();
        self.spans[idx].duration_ns() - cover
    }

    /// Runs `f` inside a span named `name` and also says how many
    /// seconds it took, whether or not spans are being recorded.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let t0 = Instant::now();
        let out = self.span(name, f);
        (out, t0.elapsed().as_secs_f64())
    }

    /// Seconds per pass, in pass order, summed by `ns_of` over the spans
    /// named `name`.
    fn seconds_per_pass_by(&self, name: &str, ns_of: impl Fn(usize, &Span) -> u64) -> Vec<f64> {
        let mut by_pass: BTreeMap<u32, u64> = BTreeMap::new();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            *by_pass.entry(s.pass).or_default() += ns_of(i, s);
        }
        by_pass.into_values().map(|ns| ns as f64 / 1e9).collect()
    }

    /// Seconds spent in spans named `name`, per pass, in pass order.
    pub fn seconds_per_pass(&self, name: &str) -> Vec<f64> {
        self.seconds_per_pass_by(name, |_, s| s.duration_ns())
    }

    /// Median over passes of the seconds spent in spans named `name`;
    /// 0 when no such span was recorded.
    pub fn median_s(&self, name: &str) -> f64 {
        median_or_zero(&self.seconds_per_pass(name))
    }

    /// Median duration in seconds of one span named `name`, over every
    /// such span recorded; 0 when there is none.
    pub fn median_call_s(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect();
        median_or_zero(&v)
    }

    /// Like [`Tracer::median_s`] over self time instead of duration.
    pub fn median_self_s(&self, name: &str) -> f64 {
        median_or_zero(&self.seconds_per_pass_by(name, |i, _| self.self_ns(i)))
    }

    /// The spans as a JSON array, for `trace-<workload>.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"pass\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.pass,
                if i + 1 < self.spans.len() { "," } else { "" },
            ));
        }
        out.push_str("]\n");
        out
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        crate::stats::median(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new(true);
        t.span("parent", |t| {
            spin(200_000);
            t.span("child_a", |t| {
                spin(300_000);
                t.span("grandchild", |_| spin(100_000));
            });
            t.span("child_b", |_| spin(400_000));
        });
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(
            s[2].parent,
            Some(1),
            "grandchild hangs off child_a, not the root"
        );
        assert_eq!(s[3].parent, Some(0));
        // Exact identity, not a tolerance: self = duration − Σ direct children.
        assert_eq!(
            t.self_ns(0),
            s[0].duration_ns() - s[1].duration_ns() - s[3].duration_ns()
        );
        assert_eq!(t.self_ns(1), s[1].duration_ns() - s[2].duration_ns());
        assert_eq!(
            t.self_ns(2),
            s[2].duration_ns(),
            "a leaf's self time is its duration"
        );
        // And the spin floors hold: the parent spent ≥ 200 µs on its own.
        assert!(t.self_ns(0) >= 200_000);
        assert!(t.self_ns(1) >= 300_000);
        // Children nest inside the parent's interval.
        assert!(s[1].start_ns >= s[0].start_ns && s[3].end_ns <= s[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_body() {
        let mut t = Tracer::new(false);
        let x = t.span("a", |t| t.span("b", |_| 7));
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.median_s("a"), 0.0);
    }

    #[test]
    fn per_pass_totals_group_by_pass_id() {
        let mut t = Tracer::new(true);
        for pass in 0..3 {
            t.set_pass(pass);
            t.span("x", |_| spin(50_000));
            t.span("x", |_| spin(50_000));
        }
        let per = t.seconds_per_pass("x");
        assert_eq!(per.len(), 3);
        assert!(per.iter().all(|&s| s >= 100e-6));
        assert!(t.median_s("x") >= 100e-6);
        assert!(t.median_self_s("x") >= 100e-6);
        let doc = t.to_json();
        assert_eq!(doc.matches("\"name\": \"x\"").count(), 6);
        assert!(disagg_obs::json::parse(&doc).is_ok());
    }
}
