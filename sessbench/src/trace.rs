//! In-memory span recording and the self-time analysis of a traced run.
//!
//! Spans are recorded from the benchmark's own code only: around each
//! session, each client-side crypto call and each RPC (generator
//! thread), inside a `Service` wrapper (daemon compute threads), and
//! inside backend wrappers around the stores (see `layers`). With one
//! session in flight, every daemon-side span nests by time inside the
//! single open RPC span, so parents are recovered from the timeline
//! alone and no identifiers cross the wire.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{mean, percentile};

/// An RPC as the client issues it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Display,
    Verify,
    Upload,
    Fetch,
    LogAccess,
    DhReserve,
    DhFill,
    DhGet,
}

impl Endpoint {
    pub const ALL: [Endpoint; 8] = [
        Endpoint::Display,
        Endpoint::Verify,
        Endpoint::Upload,
        Endpoint::Fetch,
        Endpoint::LogAccess,
        Endpoint::DhReserve,
        Endpoint::DhFill,
        Endpoint::DhGet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Display => "display",
            Endpoint::Verify => "verify",
            Endpoint::Upload => "upload",
            Endpoint::Fetch => "fetch",
            Endpoint::LogAccess => "log_access",
            Endpoint::DhReserve => "dh_reserve",
            Endpoint::DhFill => "dh_fill",
            Endpoint::DhGet => "dh_get",
        }
    }
}

/// A client-side protocol step (the receiver's or sharer's local crypto).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    C1Upload,
    C1Answer,
    C1Access,
    /// All of `SocialPuzzleApp::receive_c2`; its RPCs are child spans.
    C2Receive,
}

impl Step {
    pub const ALL: [Step; 4] = [Step::C1Upload, Step::C1Answer, Step::C1Access, Step::C2Receive];

    pub fn name(self) -> &'static str {
        match self {
            Step::C1Upload => "c1.upload",
            Step::C1Answer => "c1.answer",
            Step::C1Access => "c1.access",
            Step::C2Receive => "c2.receive",
        }
    }
}

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One whole session (generator thread).
    Session,
    /// A client-side protocol step.
    Client(Step),
    /// One RPC round trip as the client sees it.
    Rpc(Endpoint),
    /// `Service::handle` on a daemon compute thread.
    Handler,
    /// One store call made by a service; `true` for calls that mutate
    /// (and so append to the log on a durable backend).
    Backend { mutates: bool },
}

impl Kind {
    /// Tie-break for spans starting on the same nanosecond: outer first.
    fn depth(self) -> u8 {
        match self {
            Kind::Session => 0,
            Kind::Client(_) | Kind::Rpc(_) => 1,
            Kind::Handler => 2,
            Kind::Backend { .. } => 3,
        }
    }

    fn label(self) -> String {
        match self {
            Kind::Session => "session".into(),
            Kind::Client(s) => format!("client.{}", s.name()),
            Kind::Rpc(e) => format!("rpc.{}", e.name()),
            Kind::Handler => "handler".into(),
            Kind::Backend { mutates: true } => "backend.mutate".into(),
            Kind::Backend { mutates: false } => "backend.read".into(),
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    kind: Kind,
    start: u64,
    end: u64,
}

/// The span sink shared by the generator and the daemon-side wrappers.
/// Off, [`Tracer::span`] costs one relaxed load.
#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { on: AtomicBool::new(false), epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f`, recording its interval as a `kind` span while tracing
    /// is on.
    pub fn span<R>(&self, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.on.load(Ordering::Relaxed) {
            return f();
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.lock().expect("span sink poisoned by a panicking thread").push(Span {
            kind,
            start,
            end,
        });
        out
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned by a panicking thread"))
    }
}

/// Per-layer self time of one session, in nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
struct SessionSelf {
    total: u64,
    bench: u64,
    client: u64,
    transport: u64,
    handler: u64,
    backend: u64,
}

/// The layers a session's time is split into; each is the summed self
/// time of one span kind.
pub const LAYERS: [&str; 5] = ["bench", "client", "transport", "handler", "backend"];

/// Timings of one endpoint across the traced window, in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct EndpointTimes {
    pub rpc: Vec<u64>,
    pub handler: Vec<u64>,
    pub transport: Vec<u64>,
}

/// Everything the traced run reports, derived from the spans.
#[derive(Debug, Default)]
pub struct Analysis {
    pub sessions: usize,
    /// Spans that did not nest inside their enclosing span (clock or
    /// attribution anomalies); expected to be zero.
    pub misnested: usize,
    /// Mean self time per layer (in `LAYERS` order) over the sessions
    /// whose duration lies in the middle decile, so the layers add up to
    /// a typical session.
    pub median_band_self_ns: [f64; 5],
    pub median_band_session_ns: f64,
    pub endpoints: Vec<(Endpoint, EndpointTimes)>,
    /// Self time of each client step (RPCs it issues are subtracted).
    pub steps: Vec<(Step, Vec<u64>)>,
    pub backend_mutate_ns: Vec<u64>,
    pub rpc_ns: Vec<u64>,
    pub handler_ns: Vec<u64>,
    pub transport_ns: Vec<u64>,
}

impl Analysis {
    pub fn endpoint(&self, e: Endpoint) -> Option<&EndpointTimes> {
        self.endpoints.iter().find(|(k, _)| *k == e).map(|(_, t)| t)
    }

    pub fn step(&self, s: Step) -> Option<&[u64]> {
        self.steps.iter().find(|(k, _)| *k == s).map(|(_, t)| t.as_slice())
    }
}

/// Rebuilds the span tree from the timeline and folds it into
/// per-session, per-layer and per-endpoint self times.
pub fn analyze(mut spans: Vec<Span>) -> Analysis {
    spans.sort_by(|a, b| {
        a.start.cmp(&b.start).then(b.end.cmp(&a.end)).then(a.kind.depth().cmp(&b.kind.depth()))
    });
    let n = spans.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut child_ns = vec![0u64; n];
    let mut root: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut out = Analysis::default();
    for i in 0..n {
        let s = spans[i];
        while let Some(&top) = stack.last() {
            if spans[top].start <= s.start && s.end <= spans[top].end {
                break;
            }
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            parent[i] = Some(p);
            child_ns[p] += s.end - s.start;
            root[i] = root[p];
        } else if s.kind == Kind::Session {
            root[i] = Some(i);
        }
        stack.push(i);
    }

    let mut per_session: Vec<(usize, SessionSelf)> = Vec::new();
    let mut session_slot = vec![usize::MAX; n];
    for (i, s) in spans.iter().enumerate() {
        if s.kind == Kind::Session && parent[i].is_none() {
            session_slot[i] = per_session.len();
            per_session.push((i, SessionSelf { total: s.end - s.start, ..SessionSelf::default() }));
        }
    }

    let mut endpoints: Vec<(Endpoint, EndpointTimes)> =
        Endpoint::ALL.iter().map(|&e| (e, EndpointTimes::default())).collect();
    let mut steps: Vec<(Step, Vec<u64>)> = Step::ALL.iter().map(|&s| (s, Vec::new())).collect();
    for (i, s) in spans.iter().enumerate() {
        let Some(r) = root[i] else { continue };
        let dur = s.end - s.start;
        let self_ns = match dur.checked_sub(child_ns[i]) {
            Some(v) => v,
            None => {
                out.misnested += 1;
                0
            }
        };
        let layer = &mut per_session[session_slot[r]].1;
        match s.kind {
            Kind::Session => layer.bench += self_ns,
            Kind::Client(step) => {
                layer.client += self_ns;
                steps
                    .iter_mut()
                    .find(|(k, _)| *k == step)
                    .expect("every step listed")
                    .1
                    .push(self_ns);
            }
            Kind::Rpc(e) => {
                layer.transport += self_ns;
                let t = &mut endpoints.iter_mut().find(|(k, _)| *k == e).expect("listed").1;
                t.rpc.push(dur);
                t.transport.push(self_ns);
                out.rpc_ns.push(dur);
                out.transport_ns.push(self_ns);
            }
            Kind::Handler => {
                layer.handler += self_ns;
                out.handler_ns.push(dur);
                match parent[i].map(|p| spans[p].kind) {
                    Some(Kind::Rpc(e)) => endpoints
                        .iter_mut()
                        .find(|(k, _)| *k == e)
                        .expect("listed")
                        .1
                        .handler
                        .push(dur),
                    _ => out.misnested += 1,
                }
            }
            Kind::Backend { mutates } => {
                layer.backend += self_ns;
                if mutates {
                    out.backend_mutate_ns.push(dur);
                }
                if !matches!(parent[i].map(|p| spans[p].kind), Some(Kind::Handler)) {
                    out.misnested += 1;
                }
            }
        }
    }

    out.sessions = per_session.len();
    let mut by_total: Vec<SessionSelf> = per_session.iter().map(|(_, s)| *s).collect();
    by_total.sort_by_key(|s| s.total);
    if !by_total.is_empty() {
        let lo = by_total.len() * 45 / 100;
        let hi = (by_total.len() * 55 / 100).max(lo + 1).min(by_total.len());
        let band = &by_total[lo..hi];
        let pick = |f: fn(&SessionSelf) -> u64| mean(&band.iter().map(f).collect::<Vec<_>>());
        out.median_band_self_ns = [
            pick(|s| s.bench),
            pick(|s| s.client),
            pick(|s| s.transport),
            pick(|s| s.handler),
            pick(|s| s.backend),
        ];
        out.median_band_session_ns = pick(|s| s.total);
    }
    out.endpoints = endpoints;
    out.steps = steps;
    out
}

/// Writes every span as one JSON line (`kind`, `start_ns`, `end_ns`),
/// for offline inspection.
///
/// # Errors
///
/// Returns the I/O error.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"kind\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.kind.label(),
            s.start,
            s.end
        )?;
    }
    w.flush()
}

/// Median of `ns` in microseconds (0 for no samples).
pub fn p50_us(ns: &[u64]) -> f64 {
    percentile(ns, 50.0) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start: u64, end: u64) -> Span {
        Span { kind, start, end }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // A session with one RPC (handler and one store read inside) and
        // one client step, recorded out of order as threads would.
        let a = analyze(vec![
            span(Kind::Handler, 20, 40),
            span(Kind::Session, 0, 100),
            span(Kind::Backend { mutates: false }, 25, 30),
            span(Kind::Client(Step::C1Answer), 60, 70),
            span(Kind::Rpc(Endpoint::Display), 10, 50),
        ]);
        assert_eq!(a.sessions, 1);
        assert_eq!(a.misnested, 0);
        // bench, client, transport, handler, backend
        assert_eq!(a.median_band_self_ns, [50.0, 10.0, 20.0, 15.0, 5.0]);
        let display = a.endpoint(Endpoint::Display).expect("listed");
        assert_eq!((display.rpc.as_slice(), display.handler.as_slice()), (&[40][..], &[20][..]));
        assert_eq!(display.transport, vec![20]);
    }

    #[test]
    fn client_step_self_time_excludes_its_rpcs() {
        // `receive_c2`: one client span with an RPC (and its handler)
        // inside.
        let a = analyze(vec![
            span(Kind::Session, 0, 100),
            span(Kind::Client(Step::C2Receive), 5, 95),
            span(Kind::Rpc(Endpoint::Fetch), 10, 40),
            span(Kind::Handler, 15, 30),
        ]);
        assert_eq!(a.misnested, 0);
        assert_eq!(a.step(Step::C2Receive), Some(&[60][..]));
        assert_eq!(a.median_band_self_ns, [10.0, 60.0, 15.0, 15.0, 0.0]);
    }

    #[test]
    fn handler_outside_an_rpc_is_flagged() {
        let a = analyze(vec![span(Kind::Session, 0, 100), span(Kind::Handler, 10, 20)]);
        assert_eq!(a.misnested, 1);
    }
}
