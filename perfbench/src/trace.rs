//! In-memory span recorder for the traced replay.
//!
//! Spans live in the benchmark, around each call it makes into a layer
//! of the program; nothing is recorded inside the program. A span has a
//! name (the operation, e.g. `hid.retrain`), an optional label (the
//! detector family), its start and end, the thread it ran on and the
//! span that caused it. Counters are recorded at the same boundaries so
//! that ratios are formed where the work happens.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique within one [`Tracer`].
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Operation name, `layer.op`.
    pub name: &'static str,
    /// Optional sub-label (detector family).
    pub label: Option<&'static str>,
    /// Small per-process thread number.
    pub thread: usize,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The innermost open span of the calling thread.
fn innermost() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Collects spans and counters from every thread of a replay.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    counters: Mutex<BTreeMap<String, f64>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span whose parent is the innermost open span of this
    /// thread. It closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.open(name, None, innermost())
    }

    fn open(
        &self,
        name: &'static str,
        label: Option<&'static str>,
        parent: Option<u64>,
    ) -> Span<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        Span {
            tracer: self,
            id,
            parent,
            name,
            label,
            start_ns: self.now_ns(),
        }
    }

    /// Runs `f`, timed as one span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name);
        f()
    }

    /// Runs `f`, timed as one labelled span.
    pub fn time_labeled<R>(
        &self,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let _span = self.open(name, Some(label), innermost());
        f()
    }

    /// Adds `value` to a named counter.
    pub fn count(&self, name: &str, value: f64) {
        let mut counters = self.counters.lock().expect("counter map poisoned");
        *counters.entry(name.to_string()).or_insert(0.0) += value;
    }

    /// The program's order-preserving `par_map`, with one
    /// `core.parallel` span on the caller and one `core.parallel.job`
    /// span around each job on whichever thread runs it.
    ///
    /// Per call it also counts the jobs' busy time, the longest job (the
    /// call's critical path) and the idle time `threads × wall − busy`.
    pub fn par_map<T, U, F>(&self, items: Vec<T>, threads: usize, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        let call = self.span("core.parallel");
        let parent = call.id;
        let wall = Instant::now();
        // (busy seconds, longest job seconds)
        let jobs = Mutex::new((0.0f64, 0.0f64));
        let out = cr_spectre_core::par_map(items, threads, |item| {
            let _job = self.open("core.parallel.job", None, Some(parent));
            let t0 = Instant::now();
            let result = f(item);
            let secs = t0.elapsed().as_secs_f64();
            let mut jobs = jobs.lock().expect("job totals poisoned");
            jobs.0 += secs;
            jobs.1 = jobs.1.max(secs);
            result
        });
        let wall = wall.elapsed().as_secs_f64();
        drop(call);
        let (busy, critical) = jobs.into_inner().expect("job totals poisoned");
        self.count("core.parallel.calls", 1.0);
        self.count("core.parallel.busy_s", busy);
        self.count("core.parallel.critical_s", critical);
        self.count(
            "core.parallel.idle_s",
            (threads as f64 * wall - busy).max(0.0),
        );
        out
    }

    /// Everything recorded so far, in closing order.
    pub fn finish(self) -> (Vec<SpanRec>, BTreeMap<String, f64>) {
        (
            self.spans.into_inner().expect("span list poisoned"),
            self.counters.into_inner().expect("counter map poisoned"),
        )
    }
}

/// An open span; records itself when dropped.
#[derive(Debug)]
pub struct Span<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    label: Option<&'static str>,
    start_ns: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&self.id) {
                stack.pop();
            }
        });
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name: self.name,
            label: self.label,
            thread: THREAD.with(|t| *t),
            start_ns: self.start_ns,
            end_ns,
        };
        // A poisoned list only means another span's recorder panicked;
        // losing this record then is harmless, and Drop must not panic.
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(rec);
        }
    }
}
