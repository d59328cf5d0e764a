//! Spans recorded by the benchmark around each call into a layer.
//!
//! A span holds its name, start, end, parent and a request id (an
//! activation id or an executor job id). Spans stay in memory and are
//! written out as Chrome trace-event JSON when the run ends. Spans inside
//! the program itself are out of scope: these are measured from outside,
//! at the layer boundaries the public API exposes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rustwren_core::{RemoteFn, SimCloud, TaskCtx, Value};

use crate::host;

/// Span name of a user function body, recorded by [`TimedFn`].
pub const USER_CALL: &str = "workloads.call";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, starting at 1.
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    /// What was called, as `layer.call`.
    pub name: &'static str,
    /// Host nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Host nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Activation id or executor job id; 0 when the span has none.
    pub req: u64,
    /// On-CPU nanoseconds of the calling thread, for user function bodies.
    pub cpu_ns: u64,
    /// Virtual nanoseconds the span covers, for user function bodies.
    pub virt_ns: u64,
}

impl Span {
    /// Host seconds the span covers.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder shared by the client and the simulated
/// activations of one traced repetition.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// The client-side span (submit or gather) user calls run under: the
    /// sim kernel runs one simulated thread at a time, and user bodies only
    /// run while the client is blocked inside one of these calls.
    client: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started but not ended.
#[derive(Debug)]
#[must_use = "an open span records nothing until it is closed"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    req: u64,
}

impl Open {
    /// This span's id, for use as a parent.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Sets the request id once the call has returned it.
    pub fn set_req(&mut self, req: u64) {
        self.req = req;
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            client: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    pub fn open(&self, name: &'static str, parent: u64, req: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
            req,
        }
    }

    /// Ends a span and records it.
    pub fn close(&self, open: Open, cpu_ns: u64, virt_ns: u64) {
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
            req: open.req,
            cpu_ns,
            virt_ns,
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Every span recorded so far, in the order they ended.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Runs `f` inside a span when tracing, and bare otherwise.
pub fn scope<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(t) = tracer else { return f() };
    let open = t.open(name, parent, req);
    let out = f();
    t.close(open, 0, 0);
    out
}

/// Like [`scope`], for a client call (submit or gather): user bodies that
/// start while it runs take it as their parent.
pub fn client<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: u64,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    let Some(t) = tracer else { return f() };
    let open = t.open(name, parent, req);
    let before = t.client.swap(open.id, Ordering::Relaxed);
    let out = f();
    t.client.store(before, Ordering::Relaxed);
    t.close(open, 0, 0);
    out
}

/// A registry entry wrapped to record a span around each user body, with
/// the calling thread's on-CPU time: a `charge` parks the simulated thread,
/// so modelled compute does not count, only the host work of the body.
pub struct TimedFn {
    inner: Arc<dyn RemoteFn>,
    tracer: Arc<Tracer>,
}

impl RemoteFn for TimedFn {
    fn call(&self, ctx: &TaskCtx, input: Value) -> Result<Value, String> {
        let parent = self.tracer.client.load(Ordering::Relaxed);
        let open = self.tracer.open(USER_CALL, parent, ctx.activation_id().0);
        let (cpu0, virt0) = (host::thread_cpu_ns(), ctx.now());
        let out = self.inner.call(ctx, input);
        let virt = ctx.now().duration_since(virt0).as_nanos() as u64;
        self.tracer.close(open, host::thread_cpu_ns() - cpu0, virt);
        out
    }

    fn code_size(&self) -> u64 {
        self.inner.code_size()
    }
}

/// Re-registers every function in `cloud`'s registry behind a [`TimedFn`],
/// keeping each one's modelled code size.
pub fn wrap_registry(cloud: &SimCloud, tracer: &Arc<Tracer>) {
    let registry = cloud.registry();
    for name in registry.names() {
        let inner = registry.get(&name).expect("a listed name is registered");
        registry.register(
            &name,
            TimedFn {
                inner,
                tracer: Arc::clone(tracer),
            },
        );
    }
}

/// Host time of each span not covered by its children: the self time.
/// Children may overlap each other (user bodies interleave in host time
/// while their `charge`s wait), so coverage is the union of their
/// intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete event per span, with its parent, request id,
/// self time and on-CPU time in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"self_us\":{:.3},\"cpu_us\":{:.3}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.req,
            selfs[&s.id] as f64 / 1e3,
            s.cpu_ns as f64 / 1e3,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            req: 0,
            cpu_ns: 0,
            virt_ns: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            span(4, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        // Children cover 10..60 and 90..100 of the parent.
        assert_eq!(selfs[&1], 40);
        assert_eq!(selfs[&2], 30);
    }
}
