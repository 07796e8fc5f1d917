//! Spans recorded from outside the program: around calls into its public
//! functions, and around every model call through [`TimedClient`]. All spans
//! stay in memory until the run ends.

use crate::probe::Cpu;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use zeroed_criteria::CriteriaSet;
use zeroed_llm::{
    AttributeContext, DistributionAnalysis, FaultKind, Guideline, LlmClient, TokenLedger,
};
use zeroed_table::Table;

/// One finished span. `parent` is 0 for a root. `cpu` is process CPU over the
/// span, recorded only for spans on the benchmark thread while nothing else
/// of the benchmark runs.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub cpu: Option<Cpu>,
}

impl Span {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, so children can name a parent that is still open.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn offset(&self, t: Instant) -> Duration {
        t.duration_since(self.epoch)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Records `f` as span `id` with wall and process CPU time.
    pub fn time_as<T>(&self, id: u64, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let cpu0 = Cpu::now();
        let t0 = Instant::now();
        let value = f();
        let t1 = Instant::now();
        self.push(Span {
            id,
            parent,
            name,
            start: self.offset(t0),
            end: self.offset(t1),
            cpu: Some(Cpu::now().since(cpu0)),
        });
        value
    }

    /// [`Tracer::time_as`] under a fresh id.
    pub fn time<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        self.time_as(self.new_id(), name, parent, f)
    }

    /// Records `f` with wall time only (for calls made on worker threads,
    /// where process CPU would include every other thread).
    fn time_wall<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = f();
        let t1 = Instant::now();
        self.push(Span {
            id: self.new_id(),
            parent,
            name,
            start: self.offset(t0),
            end: self.offset(t1),
            cpu: None,
        });
        value
    }

    /// Every span recorded so far, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans() {
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}}}\n",
                s.id,
                s.parent,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            ));
        }
        out
    }
}

/// A forwarding [`LlmClient`] that records one span per model call under
/// `parent`. Every trait method forwards, the defaulted ones too, so request
/// keys, injected faults and mangling are those of the wrapped client.
pub struct TimedClient<'a> {
    inner: &'a dyn LlmClient,
    tracer: &'a Tracer,
    parent: u64,
}

impl<'a> TimedClient<'a> {
    pub fn new(inner: &'a dyn LlmClient, tracer: &'a Tracer, parent: u64) -> Self {
        Self {
            inner,
            tracer,
            parent,
        }
    }

    fn call<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.time_wall(name, self.parent, f)
    }
}

/// Prefix shared by every model-call span name.
pub const CALL_PREFIX: &str = "llm.";

impl LlmClient for TimedClient<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn ledger(&self) -> &TokenLedger {
        self.inner.ledger()
    }

    fn generate_criteria(&self, ctx: &AttributeContext<'_>) -> CriteriaSet {
        self.call("llm.generate_criteria", || {
            self.inner.generate_criteria(ctx)
        })
    }

    fn analyze_distribution(&self, ctx: &AttributeContext<'_>) -> DistributionAnalysis {
        self.call("llm.analyze_distribution", || {
            self.inner.analyze_distribution(ctx)
        })
    }

    fn generate_guideline(
        &self,
        ctx: &AttributeContext<'_>,
        analysis: &DistributionAnalysis,
    ) -> Guideline {
        self.call("llm.generate_guideline", || {
            self.inner.generate_guideline(ctx, analysis)
        })
    }

    fn label_batch(
        &self,
        ctx: &AttributeContext<'_>,
        guideline: Option<&Guideline>,
        rows: &[usize],
    ) -> Vec<bool> {
        self.call("llm.label_batch", || {
            self.inner.label_batch(ctx, guideline, rows)
        })
    }

    fn refine_criteria(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        error_examples: &[String],
        existing: &CriteriaSet,
    ) -> CriteriaSet {
        self.call("llm.refine_criteria", || {
            self.inner
                .refine_criteria(ctx, clean_examples, error_examples, existing)
        })
    }

    fn augment_errors(
        &self,
        ctx: &AttributeContext<'_>,
        clean_examples: &[String],
        count: usize,
    ) -> Vec<String> {
        self.call("llm.augment_errors", || {
            self.inner.augment_errors(ctx, clean_examples, count)
        })
    }

    fn detect_tuple(&self, table: &Table, row: usize) -> Vec<bool> {
        self.call("llm.detect_tuple", || self.inner.detect_tuple(table, row))
    }

    fn cache_identity(&self) -> &str {
        self.inner.cache_identity()
    }

    fn request_salt(&self, table: &Table, column: Option<usize>, rows: &[usize]) -> u64 {
        self.inner.request_salt(table, column, rows)
    }

    fn note_reask(&self, salt: u64, attempt: u32) {
        self.inner.note_reask(salt, attempt)
    }

    fn injected_fault(&self, salt: u64) -> Option<FaultKind> {
        self.inner.injected_fault(salt)
    }
}
