//! Spans around public calls, and a counting allocator for per-span
//! peak memory.
//!
//! The benchmark wraps each call it makes into a layer in a span (name,
//! start, end, parent, optional request id). Spans stay in memory and
//! are written out as JSON lines when the run ends. A span's self time
//! is its duration minus the time its direct children cover.
//!
//! The allocator counts live heap bytes and their high-water mark only
//! while counting is switched on ([`Tracer::new`] switches it on for a
//! traced run); otherwise every call forwards straight to the system
//! allocator after one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::Instant;

use rtbh_json::Json;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The benchmark binary's global allocator: the system allocator plus,
/// while counting is on, live-byte and high-water counters. The counters
/// are statistics that publish no other data, hence `Relaxed`.
pub struct CountingAlloc;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        if COUNTING.load(Ordering::Relaxed) {
            shrank(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && COUNTING.load(Ordering::Relaxed) {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Switches allocation counting on or off (a traced run switches it
/// off around the untraced half of its overhead comparison).
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Live bytes counted so far (frees of blocks allocated before counting
/// started can drive it below zero; only differences are meaningful).
fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live count.
fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

fn peak() -> i64 {
    PEAK.load(Ordering::Relaxed)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `align` or `serve.answer`.
    pub name: String,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request id (serve spans), if any.
    pub request: Option<u64>,
    /// Peak heap bytes above the live count at span start.
    pub peak_bytes: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder. Spans nest by call structure on the
/// thread that owns the tracer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, i64)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer with allocation counting switched on.
    pub fn new() -> Tracer {
        COUNTING.store(true, Ordering::Relaxed);
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.span_req(name, None, f)
    }

    /// Runs `f` inside a span carrying a request id.
    pub fn span_req<R>(
        &mut self,
        name: &str,
        request: Option<u64>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let parent = self.open.last().map(|&(i, _)| i);
        let idx = self.spans.len();
        let base = live();
        // The enclosing span's peak so far must survive the reset below.
        self.fold_peak_into_open();
        reset_peak();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
            peak_bytes: 0,
        });
        self.open.push((idx, base));
        let out = f(self);
        let end = self.now_ns();
        self.fold_peak_into_open();
        self.open.pop();
        self.spans[idx].end_ns = end;
        reset_peak();
        out
    }

    /// Folds the current high-water mark into every open span.
    fn fold_peak_into_open(&mut self) {
        let p = peak();
        for &(i, base) in &self.open {
            let above = (p - base).max(0) as u64;
            if above > self.spans[i].peak_bytes {
                self.spans[i].peak_bytes = above;
            }
        }
    }

    /// Durations (s) of every span called `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Peak heap MB above span start of every span called `name`.
    pub fn peak_mb(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.peak_bytes as f64 / (1 << 20) as f64)
            .collect()
    }

    /// Self time (s) of span `i`: its duration minus its direct children's.
    pub fn self_secs(&self, i: usize) -> f64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let s = &self.spans[i];
        (s.end_ns - s.start_ns).saturating_sub(children) as f64 / 1e9
    }

    /// Self times (s) of every span called `name`.
    pub fn self_secs_of(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_secs(i))
            .collect()
    }

    /// Total self time (s) per span name.
    pub fn self_totals(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for i in 0..self.spans.len() {
            *out.entry(self.spans[i].name.clone()).or_insert(0.0) += self.self_secs(i);
        }
        out
    }

    /// The spans as JSON lines (one object per span, in start order).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut fields = vec![
                ("id".to_string(), Json::U64(i as u64)),
                ("name".to_string(), Json::Str(s.name.clone())),
                ("start_ns".to_string(), Json::U64(s.start_ns)),
                ("end_ns".to_string(), Json::U64(s.end_ns)),
                (
                    "self_ns".to_string(),
                    Json::U64((self.self_secs(i) * 1e9) as u64),
                ),
                ("peak_bytes".to_string(), Json::U64(s.peak_bytes)),
            ];
            fields.push((
                "parent".to_string(),
                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
            ));
            if let Some(r) = s.request {
                fields.push(("request".to_string(), Json::U64(r)));
            }
            out.push_str(&rtbh_json::to_string(&Json::Obj(fields)));
            out.push('\n');
        }
        out
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        COUNTING.store(false, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new();
        t.span("job", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.span("b", |t| {
                t.span("b.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(10))
                })
            });
        });
        let job = t.spans.iter().position(|s| s.name == "job").unwrap();
        let b = t.spans.iter().position(|s| s.name == "b").unwrap();
        assert_eq!(t.spans[b].parent, Some(job));
        assert!(t.self_secs(job) < 0.01, "job self {}", t.self_secs(job));
        assert!(t.self_secs(b) < 0.005, "b self {}", t.self_secs(b));
        assert!(t.secs("job")[0] >= 0.03);
        assert_eq!(t.to_jsonl().lines().count(), 4);
    }
}
