//! A forwarding [`Overlay`] proxy that times every call crossing into
//! the simulator.
//!
//! [`TracedOverlay`] wraps a factory-built overlay and forwards *every*
//! trait method — including those with default bodies — to the wrapped
//! value, so the program it drives is exactly the unwrapped one. Each
//! forwarded call is one span, charged to a [`Layer`]. Cursors handed
//! out by [`Overlay::lookup_begin`] are wrapped in a `TracedCursor`
//! that times [`LookupCursor::step`] the same way.
//!
//! The churn engine's self time is then the `run_churn` span minus the
//! child spans recorded here, minus the proxy's own clock reads.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dht_core::audit::{AuditReport, AuditScope};
use dht_core::corrupt::{CorruptionPlan, CorruptionReport};
use dht_core::lookup::{LookupOutcome, LookupTrace};
use dht_core::net::NetConditions;
use dht_core::obs::{PhaseAccountant, SinkHandle};
use dht_core::overlay::{NodeToken, Overlay};
use dht_core::sim::{CursorStep, LookupCursor, WalkEffects};
use rand::RngCore;

/// The layer a forwarded call is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// [`Overlay::lookup_batch`] and [`Overlay::lookup`]: whole walks.
    Lookup,
    /// [`LookupCursor::step`]: one hop of a suspended walk.
    Step,
    /// [`Overlay::apply_walk_effects`].
    Effects,
    /// [`Overlay::owner_of`]: the store's ownership index.
    OwnerOf,
    /// [`Overlay::stabilize_node`], [`Overlay::stabilize`] and
    /// [`Overlay::repair_node`].
    Stabilize,
    /// [`Overlay::join`].
    Join,
    /// [`Overlay::leave`] and [`Overlay::fail`].
    Leave,
    /// [`Overlay::audit_state`].
    Audit,
    /// Everything else: accessors, `contains`, `random_node`,
    /// `lookup_begin`, the other cursor methods.
    Other,
}

const LAYERS: usize = 9;

/// Calls and busy nanoseconds of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Forwarded calls.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub ns: u64,
}

/// Everything one traced overlay recorded.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    layers: [Span; LAYERS],
    /// Hops of the traces [`Overlay::lookup_batch`]/[`Overlay::lookup`]
    /// returned (the divisor of ns per hop for whole walks).
    pub walk_hops: u64,
    /// Lookups those calls returned.
    pub walk_lookups: u64,
    /// Nodes the audits checked.
    pub audit_nodes: u64,
    /// `Found` lookups that ended somewhere other than `owner_of` of
    /// their key, as checked independently by the proxy.
    pub owner_mismatches: u64,
    /// Nanoseconds the proxy spent on its own bookkeeping outside any
    /// span (tallying returned traces).
    pub proxy_ns: u64,
    /// Name of the most recently forwarded method.
    pub last_call: &'static str,
}

impl Spans {
    /// The span of one layer.
    #[must_use]
    pub fn get(&self, layer: Layer) -> Span {
        self.layers[layer as usize]
    }

    /// Calls and time summed over every layer: all the time the traced
    /// caller spent inside the program.
    #[must_use]
    pub fn total(&self) -> Span {
        self.layers.iter().fold(Span::default(), |acc, s| Span {
            calls: acc.calls + s.calls,
            ns: acc.ns + s.ns,
        })
    }

    /// What was recorded after `earlier`, a snapshot of the same spans.
    #[must_use]
    pub fn since(&self, earlier: &Spans) -> Spans {
        let mut out = self.clone();
        for (span, old) in out.layers.iter_mut().zip(&earlier.layers) {
            span.calls -= old.calls;
            span.ns -= old.ns;
        }
        out.walk_hops -= earlier.walk_hops;
        out.walk_lookups -= earlier.walk_lookups;
        out.audit_nodes -= earlier.audit_nodes;
        out.owner_mismatches -= earlier.owner_mismatches;
        out.proxy_ns -= earlier.proxy_ns;
        out
    }

    fn add(&mut self, layer: Layer, method: &'static str, ns: u64) {
        self.last_call = method;
        let span = &mut self.layers[layer as usize];
        span.calls += 1;
        span.ns += ns;
    }
}

pub(crate) type Shared = Rc<RefCell<Spans>>;

/// Runs `f` as one span of `layer`, recorded under `method`.
pub(crate) fn timed<R>(
    spans: &Shared,
    layer: Layer,
    method: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let started = Instant::now();
    let out = f();
    let ns = started.elapsed().as_nanos() as u64;
    spans.borrow_mut().add(layer, method, ns);
    out
}

/// Overlay proxy: forwards every call to `inner`, timing each one.
pub struct TracedOverlay {
    inner: Box<dyn Overlay>,
    spans: Shared,
    check_owners: bool,
}

impl TracedOverlay {
    /// Wraps `inner`. With `check_owners`, every lookup the proxy sees
    /// is also resolved through an independent [`Overlay::owner_of`]
    /// call (timed as [`Layer::OwnerOf`]) and a `Found` outcome that
    /// ended elsewhere is counted into [`Spans::owner_mismatches`].
    #[must_use]
    pub fn new(inner: Box<dyn Overlay>, check_owners: bool) -> Self {
        Self {
            inner,
            spans: Rc::default(),
            check_owners,
        }
    }

    /// A snapshot of what has been recorded so far.
    #[must_use]
    pub fn spans(&self) -> Spans {
        self.spans.borrow().clone()
    }

    fn time<R>(&self, layer: Layer, method: &'static str, f: impl FnOnce(&dyn Overlay) -> R) -> R {
        timed(&self.spans, layer, method, || f(&*self.inner))
    }

    fn time_mut<R>(
        &mut self,
        layer: Layer,
        method: &'static str,
        f: impl FnOnce(&mut dyn Overlay) -> R,
    ) -> R {
        let inner = &mut *self.inner;
        timed(&self.spans, layer, method, || f(inner))
    }

    fn record_walks(&self, reqs: &[(NodeToken, u64)], traces: &[LookupTrace]) {
        {
            let started = Instant::now();
            let hops: u64 = traces.iter().map(|t| t.path_len() as u64).sum();
            let mut spans = self.spans.borrow_mut();
            spans.walk_lookups += traces.len() as u64;
            spans.walk_hops += hops;
            spans.proxy_ns += started.elapsed().as_nanos() as u64;
        }
        if self.check_owners {
            for (&(_, key), trace) in reqs.iter().zip(traces) {
                let owner = self.owner_of(key);
                if trace.outcome == LookupOutcome::Found && owner != Some(trace.terminal) {
                    self.spans.borrow_mut().owner_mismatches += 1;
                }
            }
        }
    }
}

impl Overlay for TracedOverlay {
    fn name(&self) -> String {
        self.time(Layer::Other, "name", |o| o.name())
    }

    fn len(&self) -> usize {
        self.time(Layer::Other, "len", |o| o.len())
    }

    fn is_empty(&self) -> bool {
        self.time(Layer::Other, "is_empty", |o| o.is_empty())
    }

    fn degree_bound(&self) -> Option<usize> {
        self.time(Layer::Other, "degree_bound", |o| o.degree_bound())
    }

    fn node_tokens(&self) -> Vec<NodeToken> {
        self.time(Layer::Other, "node_tokens", |o| o.node_tokens())
    }

    fn random_node(&self, rng: &mut dyn RngCore) -> Option<NodeToken> {
        self.time(Layer::Other, "random_node", |o| o.random_node(rng))
    }

    fn key_id(&self, raw_key: u64) -> u64 {
        self.time(Layer::Other, "key_id", |o| o.key_id(raw_key))
    }

    fn owner_of(&self, raw_key: u64) -> Option<NodeToken> {
        self.time(Layer::OwnerOf, "owner_of", |o| o.owner_of(raw_key))
    }

    fn lookup(&mut self, src: NodeToken, raw_key: u64) -> LookupTrace {
        let trace = self.time_mut(Layer::Lookup, "lookup", |o| o.lookup(src, raw_key));
        self.record_walks(&[(src, raw_key)], std::slice::from_ref(&trace));
        trace
    }

    fn lookup_batch(&mut self, reqs: &[(NodeToken, u64)], jobs: usize) -> Vec<LookupTrace> {
        let traces = self.time_mut(Layer::Lookup, "lookup_batch", |o| {
            o.lookup_batch(reqs, jobs)
        });
        self.record_walks(reqs, &traces);
        traces
    }

    fn join(&mut self, rng: &mut dyn RngCore) -> Option<NodeToken> {
        self.time_mut(Layer::Join, "join", |o| o.join(rng))
    }

    fn leave(&mut self, node: NodeToken) -> bool {
        self.time_mut(Layer::Leave, "leave", |o| o.leave(node))
    }

    fn fail(&mut self, node: NodeToken) -> bool {
        self.time_mut(Layer::Leave, "fail", |o| o.fail(node))
    }

    fn stabilize(&mut self) {
        self.time_mut(Layer::Stabilize, "stabilize", |o| o.stabilize());
    }

    fn stabilize_node(&mut self, node: NodeToken) {
        self.time_mut(Layer::Stabilize, "stabilize_node", |o| {
            o.stabilize_node(node)
        });
    }

    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        let report = self.time(Layer::Audit, "audit_state", |o| o.audit_state(scope));
        self.spans.borrow_mut().audit_nodes += report.checked_nodes() as u64;
        report
    }

    fn corrupt_state(&mut self, plan: &CorruptionPlan) -> CorruptionReport {
        self.time_mut(Layer::Other, "corrupt_state", |o| o.corrupt_state(plan))
    }

    fn repair_node(&mut self, node: NodeToken) -> u64 {
        self.time_mut(Layer::Stabilize, "repair_node", |o| o.repair_node(node))
    }

    fn query_loads(&self) -> Vec<u64> {
        self.time(Layer::Other, "query_loads", |o| o.query_loads())
    }

    fn reset_query_loads(&mut self) {
        self.time_mut(Layer::Other, "reset_query_loads", |o| o.reset_query_loads());
    }

    fn state_bytes(&self) -> usize {
        self.time(Layer::Other, "state_bytes", |o| o.state_bytes())
    }

    fn bytes_per_node(&self) -> f64 {
        self.time(Layer::Other, "bytes_per_node", |o| o.bytes_per_node())
    }

    fn net_conditions(&self) -> NetConditions {
        self.time(Layer::Other, "net_conditions", |o| o.net_conditions())
    }

    fn set_net_conditions(&mut self, net: NetConditions) {
        self.time_mut(Layer::Other, "set_net_conditions", |o| {
            o.set_net_conditions(net)
        });
    }

    fn trace_sink(&self) -> SinkHandle {
        self.time(Layer::Other, "trace_sink", |o| o.trace_sink())
    }

    fn set_trace_sink(&mut self, sink: SinkHandle) {
        self.time_mut(Layer::Other, "set_trace_sink", |o| o.set_trace_sink(sink));
    }

    fn phase_accountant(&self) -> PhaseAccountant {
        self.time(Layer::Other, "phase_accountant", |o| o.phase_accountant())
    }

    fn set_phase_accountant(&mut self, acct: PhaseAccountant) {
        self.time_mut(Layer::Other, "set_phase_accountant", |o| {
            o.set_phase_accountant(acct)
        });
    }

    fn maintenance_msgs(&self, node: NodeToken) -> u64 {
        self.time(Layer::Other, "maintenance_msgs", |o| {
            o.maintenance_msgs(node)
        })
    }

    fn contains(&self, node: NodeToken) -> bool {
        self.time(Layer::Other, "contains", |o| o.contains(node))
    }

    fn as_any(&self) -> &dyn Any {
        // Not timed: only ever called from inside a cursor's step, whose
        // span already covers it. Forwarded so the wrapped cursor
        // downcasts to the concrete overlay, not to the proxy.
        self.inner.as_any()
    }

    fn lookup_begin(&mut self, src: NodeToken, raw_key: u64) -> Box<dyn LookupCursor> {
        let inner = self.time_mut(Layer::Other, "lookup_begin", |o| {
            o.lookup_begin(src, raw_key)
        });
        Box::new(TracedCursor {
            inner,
            spans: Rc::clone(&self.spans),
            key: self.check_owners.then_some(raw_key),
            owner_at_end: None,
        })
    }

    fn apply_walk_effects(&mut self, fx: WalkEffects) {
        self.time_mut(Layer::Effects, "apply_walk_effects", |o| {
            o.apply_walk_effects(fx)
        });
    }
}

/// Cursor proxy: times [`LookupCursor::step`] (and, at a lower
/// granularity, the other cursor calls) into the owning proxy's spans.
struct TracedCursor {
    inner: Box<dyn LookupCursor>,
    spans: Shared,
    /// The walk's key, when the owning proxy checks owners.
    key: Option<u64>,
    /// `owner_of(key)` at the instant the walk terminated.
    owner_at_end: Option<Option<NodeToken>>,
}

impl LookupCursor for TracedCursor {
    fn current(&self) -> NodeToken {
        timed(&self.spans, Layer::Other, "current", || {
            self.inner.current()
        })
    }

    fn is_finished(&self) -> bool {
        timed(&self.spans, Layer::Other, "is_finished", || {
            self.inner.is_finished()
        })
    }

    fn step(&mut self, net: &dyn Overlay) -> CursorStep {
        let inner = &mut self.inner;
        let step = timed(&self.spans, Layer::Step, "step", || inner.step(net));
        if let (Some(key), CursorStep::Finished { .. }) = (self.key, step) {
            // `net` is the proxy, so this check is timed as OwnerOf.
            self.owner_at_end = Some(net.owner_of(key));
        }
        step
    }

    fn strand(&mut self) {
        let inner = &mut self.inner;
        timed(&self.spans, Layer::Other, "strand", || inner.strand());
    }

    fn finish(self: Box<Self>) -> (LookupTrace, WalkEffects) {
        let Self {
            inner,
            spans,
            owner_at_end,
            ..
        } = *self;
        let (trace, fx) = timed(&spans, Layer::Other, "finish", || inner.finish());
        if let Some(owner) = owner_at_end {
            if trace.outcome == LookupOutcome::Found && owner != Some(trace.terminal) {
                spans.borrow_mut().owner_mismatches += 1;
            }
        }
        (trace, fx)
    }
}
