//! Wall-clock benchmark of the overlay simulator.
//!
//! Three workloads, each over all eight overlay kinds, driven only
//! through the simulator's public entry points
//! ([`build_overlay_spaced`], [`Overlay`], [`dht_core::sim::LookupCursor`]
//! and [`run_churn`]):
//!
//! * [`Workload::Route`] (`route-250k`) — closed-loop uniform lookups
//!   through [`Overlay::lookup_batch`] on a static 250,000-node network
//!   per kind, all eight held at once and measured in interleaved
//!   rounds;
//! * [`Workload::Churn`] (`churn-2k`) — the paper's §4.4 cell at its
//!   most aggressive rate under [`TimeModel::Rounds`];
//! * [`Workload::Inflight`] (`inflight-10k`) — continuous-time churn on
//!   a lossy network with the online audit on.
//!
//! The churn workloads run one cell per kind per round, in rounds
//! that interleave the kinds, so every kind's samples spread over the
//! whole run.
//!
//! An untraced pass gives the end-to-end metrics. With tracing on, a
//! second pass over the same inputs runs each overlay inside a
//! [`TracedOverlay`] proxy and gives the per-layer metrics; the two
//! passes' outcome digests must agree.

pub mod proxy;

use std::time::{Duration, Instant};

use dht_core::lookup::{LookupOutcome, LookupTrace};
use dht_core::net::{FaultPlan, NetConditions, RetryPolicy};
use dht_core::overlay::{NodeToken, Overlay};
use dht_core::rng::stream_indexed;
use dht_sim::churn::{run_churn, ChurnOutcome, ChurnParams, StabilizePhase, TimeModel};
use dht_sim::factory::{build_overlay_spaced, OverlayKind, ALL_KINDS};
use rand::Rng;

pub use proxy::{Layer, Span, Spans, TracedOverlay};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `route-250k`: static-network lookups.
    Route,
    /// `churn-2k`: §4.4 churn under lockstep rounds.
    Churn,
    /// `inflight-10k`: continuous-time churn with suspended lookups.
    Inflight,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Route, Workload::Churn, Workload::Inflight];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Route => "route-250k",
            Workload::Churn => "churn-2k",
            Workload::Inflight => "inflight-10k",
        }
    }

    /// Parses [`Workload::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Short metric-name slug of a kind.
#[must_use]
pub fn slug(kind: OverlayKind) -> &'static str {
    match kind {
        OverlayKind::Cycloid7 => "cycloid7",
        OverlayKind::Cycloid11 => "cycloid11",
        OverlayKind::Viceroy => "viceroy",
        OverlayKind::Koorde => "koorde",
        OverlayKind::KoordeBestFit => "koorde-bf",
        OverlayKind::Chord => "chord",
        OverlayKind::Pastry => "pastry",
        OverlayKind::Can => "can2",
    }
}

/// Network sizes and amounts of work. [`Sizes::full`] is the benchmark;
/// [`Sizes::tiny`] keeps the same shape at a size tests can afford.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Nodes per `route-250k` network.
    pub route_nodes: usize,
    /// Lookups per timed `lookup_batch` call on `route-250k`.
    pub route_batch: usize,
    /// Rounds on `route-250k`: each round gives every kind an equal
    /// time slice of at least one batch.
    pub route_rounds: usize,
    /// Starting nodes of a `churn-2k` network.
    pub churn_nodes: usize,
    /// Lookups per `churn-2k` cell.
    pub churn_lookups: usize,
    /// Starting nodes of an `inflight-10k` network.
    pub inflight_nodes: usize,
    /// Lookups per `inflight-10k` cell.
    pub inflight_lookups: usize,
    /// Untimed-work builds per kind on the churn workloads, whose
    /// median is the kind's set-up time.
    pub setup_builds: usize,
}

impl Sizes {
    /// The benchmark's sizes. `route-250k` holds all eight networks at
    /// once (about 0.7 GB of routing state, beyond the 300 MiB L3 of the
    /// reference host) so that it can interleave them; eight
    /// million-node networks would need about 3 GB. A `churn-2k` cell is
    /// a quarter of the paper's 10,000-lookup cell, so a run fits
    /// several interleaved rounds.
    #[must_use]
    pub fn full() -> Self {
        Self {
            route_nodes: 250_000,
            route_batch: 32,
            route_rounds: 10,
            churn_nodes: 2048,
            churn_lookups: 2_500,
            inflight_nodes: 10_000,
            inflight_lookups: 6_000,
            setup_builds: 5,
        }
    }

    /// The same workloads at a size a test can run in seconds.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            route_nodes: 2_000,
            route_batch: 16,
            route_rounds: 2,
            churn_nodes: 128,
            churn_lookups: 150,
            inflight_nodes: 200,
            inflight_lookups: 150,
            setup_builds: 2,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Everything one benchmark run produced.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Simulated operations executed (lookups, joins, leaves,
    /// per-node stabilizations), over every pass.
    pub attempted: u64,
    /// Operations whose output check failed: a `Found` lookup that
    /// ended off its key's owner, a pass whose digest disagreed with
    /// another pass over the same inputs, or an audit violation.
    pub failed: u64,
    /// End-to-end metrics (always computed).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (computed only with tracing on).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines: digests and check results.
    pub log: Vec<String>,
}

impl RunReport {
    /// `true` iff every output check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Median of `xs` (mean of the middle two for even lengths); 0 when
/// empty.
#[must_use]
fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over 64-bit words: the outcome digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    fn trace(&mut self, t: &LookupTrace) {
        let outcome = match t.outcome {
            LookupOutcome::Found => 0,
            LookupOutcome::WrongOwner => 1,
            LookupOutcome::Stuck => 2,
            LookupOutcome::HopBudgetExhausted => 3,
        };
        self.words([
            outcome,
            t.path_len() as u64,
            t.terminal,
            u64::from(t.timeouts),
            u64::from(t.net.retries),
            t.net.latency_us,
        ]);
    }

    fn churn(&mut self, out: &ChurnOutcome, loads: &[u64]) {
        self.words(out.path_lens.iter().map(|&p| p as u64));
        self.words(out.timeouts.iter().copied());
        self.words(out.retries.iter().copied());
        self.words(out.latency_us.iter().copied());
        self.words(out.elapsed_us.iter().copied());
        self.words([
            out.failures as u64,
            out.stranded as u64,
            out.joins as u64,
            out.leaves as u64,
            out.stabilize_calls,
            out.final_size as u64,
            out.sim_end_us,
        ]);
        self.words(loads.iter().copied());
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A fixed integer loop, timed once per run: nanoseconds per
/// iteration. It does the same work on every commit, so it shows
/// machine-wide drift beside every other number.
#[must_use]
fn calibrate_ns() -> f64 {
    const ITERS: u64 = 20_000_000;
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    started.elapsed().as_nanos() as f64 / ITERS as f64
}

/// Nanoseconds a traced call costs *outside* its own span (the clock
/// read after the span closes, and the bookkeeping) — subtracted per
/// call when the engine's self time is computed.
fn span_overhead_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let spans = proxy::Shared::default();
    let started = Instant::now();
    for i in 0..CALLS {
        proxy::timed(&spans, Layer::Other, "calibration", || {
            std::hint::black_box(i)
        });
    }
    let total = started.elapsed().as_nanos() as f64;
    let inside = spans.borrow().total().ns as f64;
    ((total - inside) / CALLS as f64).max(0.0)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
#[must_use]
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn build_seed(seed: u64, workload: Workload, kind_idx: usize) -> u64 {
    let label = format!("perfbench/build/{}", workload.name());
    stream_indexed(seed, &label, kind_idx as u64).gen()
}

/// Timed build of one network.
fn build(kind: OverlayKind, nodes: usize, seed: u64) -> (Box<dyn Overlay>, f64) {
    let started = Instant::now();
    let net = build_overlay_spaced(kind, nodes, nodes, seed);
    (net, secs(started.elapsed()))
}

/// The measurements of one kind on one workload.
#[derive(Debug, Clone, Default)]
struct KindResult {
    /// Build times, s.
    setup_s: Vec<f64>,
    /// Wall time of each timed unit of work, s (untraced).
    unit_s: Vec<f64>,
    /// Operations in each timed unit.
    unit_ops: Vec<u64>,
    /// Operations of the (deterministic) work the failure ratio is
    /// taken over, and how many of them failed.
    ops: u64,
    failed_ops: u64,
    /// Output checks that failed.
    check_failures: u64,
    /// Untraced and (with tracing) traced outcome digests.
    digest: Digest,
    traced_digest: Option<Digest>,
    /// Wall time of the traced units, s.
    traced_unit_s: Vec<f64>,
    /// Per-layer figures of the traced pass.
    layers: Option<LayerFigures>,
    /// Simulated operations executed in every pass.
    executed_ops: u64,
}

impl KindResult {
    fn median_unit_s(&self) -> f64 {
        median(&self.unit_s)
    }

    fn ops_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .unit_s
            .iter()
            .zip(&self.unit_ops)
            .map(|(&s, &ops)| ratio(ops as f64, s))
            .collect();
        median(&rates)
    }
}

/// Per-layer figures of one kind (see `BENCHMARK.json` for the names).
#[derive(Debug, Clone, Copy, Default)]
struct LayerFigures {
    bytes_per_node: f64,
    hops_per_lookup: f64,
    ns_per_hop: f64,
    owner_of_ns: f64,
    stabilize_ns: f64,
    join_ns: f64,
    leave_ns: f64,
    audit_ns_per_node: f64,
    effects_ns: f64,
    self_ns_per_op: f64,
    retries_per_lookup: f64,
}

fn per_call(span: Span) -> f64 {
    ratio(span.ns as f64, span.calls as f64)
}

// ---------------------------------------------------------------- route

fn route_requests(
    net: &dyn Overlay,
    seed: u64,
    kind: OverlayKind,
    batch: u64,
    len: usize,
) -> Vec<(NodeToken, u64)> {
    let label = format!("perfbench/route/{}", slug(kind));
    let mut rng = stream_indexed(seed, &label, batch);
    (0..len)
        .map(|_| {
            let src = net
                .random_node(&mut rng)
                .expect("route network is populated");
            (src, rng.gen())
        })
        .collect()
}

/// Checks one batch's traces and folds them into `digest`: returns
/// (failed lookups, owner mismatches). The owner check resolves every
/// key through `owner_of` independently of the walk.
fn check_batch(
    net: &dyn Overlay,
    reqs: &[(NodeToken, u64)],
    traces: &[LookupTrace],
    digest: &mut Digest,
) -> (u64, u64) {
    let mut failed = 0;
    let mut mismatched = 0;
    for (&(_, key), t) in reqs.iter().zip(traces) {
        digest.trace(t);
        if t.outcome == LookupOutcome::Found {
            if net.owner_of(key) != Some(t.terminal) {
                mismatched += 1;
            }
        } else {
            failed += 1;
        }
    }
    (failed, mismatched)
}

/// One timed `lookup_batch` call of kind `kind_idx` on `net`, checked and
/// folded into `digest`: returns (wall time s, lookups, failed lookups,
/// owner mismatches).
fn route_batch(
    net: &mut dyn Overlay,
    kind_idx: usize,
    batch: u64,
    seed: u64,
    sizes: &Sizes,
    digest: &mut Digest,
) -> (f64, u64, u64, u64) {
    let reqs = route_requests(net, seed, ALL_KINDS[kind_idx], batch, sizes.route_batch);
    let started = Instant::now();
    let traces = net.lookup_batch(&reqs, 1);
    let elapsed = secs(started.elapsed());
    let (failed, mismatched) = check_batch(net, &reqs, &traces, digest);
    (elapsed, reqs.len() as u64, failed, mismatched)
}

/// `route-250k`: builds every kind's network, then runs rounds in which
/// each kind gets an equal time slice of closed-loop batches. Holding
/// all eight networks and interleaving them spreads each kind's samples
/// over the whole run, so host drift within a run hits every kind
/// alike. With `trace`, every network is then wrapped in the proxy and
/// the same schedule (batches per kind per round) is replayed, so both
/// passes see the same cache interleaving.
fn run_route(seed: u64, seconds: f64, sizes: &Sizes, trace: bool, results: &mut [KindResult]) {
    let kinds = ALL_KINDS.len();
    let mut nets: Vec<Box<dyn Overlay>> = Vec::with_capacity(kinds);
    for (kind_idx, res) in results.iter_mut().enumerate() {
        let seed = build_seed(seed, Workload::Route, kind_idx);
        let (net, built_s) = build(ALL_KINDS[kind_idx], sizes.route_nodes, seed);
        res.setup_s.push(built_s);
        nets.push(net);
    }

    let slice_s = seconds / (sizes.route_rounds * kinds) as f64;
    let mut schedule = vec![vec![0u64; kinds]; sizes.route_rounds];
    let mut next_batch = vec![0u64; kinds];
    for round in &mut schedule {
        for (kind_idx, net) in nets.iter_mut().enumerate() {
            let res = &mut results[kind_idx];
            let started = Instant::now();
            while round[kind_idx] == 0 || secs(started.elapsed()) < slice_s {
                let (elapsed, ops, failed, mismatched) = route_batch(
                    net.as_mut(),
                    kind_idx,
                    next_batch[kind_idx],
                    seed,
                    sizes,
                    &mut res.digest,
                );
                res.unit_s.push(elapsed);
                res.unit_ops.push(ops);
                res.ops += ops;
                res.executed_ops += ops;
                res.failed_ops += failed;
                res.check_failures += mismatched;
                round[kind_idx] += 1;
                next_batch[kind_idx] += 1;
            }
        }
    }
    if !trace {
        return;
    }

    let mut proxies: Vec<TracedOverlay> = nets
        .into_iter()
        .map(|net| TracedOverlay::new(net, false))
        .collect();
    let mut digests = vec![Digest::default(); kinds];
    let mut next_batch = vec![0u64; kinds];
    for round in &schedule {
        for (kind_idx, proxy) in proxies.iter_mut().enumerate() {
            let res = &mut results[kind_idx];
            for _ in 0..round[kind_idx] {
                let (elapsed, ops, _, mismatched) = route_batch(
                    proxy,
                    kind_idx,
                    next_batch[kind_idx],
                    seed,
                    sizes,
                    &mut digests[kind_idx],
                );
                res.traced_unit_s.push(elapsed);
                res.executed_ops += ops;
                res.check_failures += mismatched;
                next_batch[kind_idx] += 1;
            }
        }
    }
    for ((res, proxy), digest) in results.iter_mut().zip(&proxies).zip(digests) {
        res.traced_digest = Some(digest);
        let spans = proxy.spans();
        res.layers = Some(LayerFigures {
            bytes_per_node: proxy.bytes_per_node(),
            hops_per_lookup: ratio(spans.walk_hops as f64, spans.walk_lookups as f64),
            ns_per_hop: ratio(spans.get(Layer::Lookup).ns as f64, spans.walk_hops as f64),
            owner_of_ns: per_call(spans.get(Layer::OwnerOf)),
            ..LayerFigures::default()
        });
    }
}

// ---------------------------------------------------------------- churn

fn churn_params(workload: Workload, seed: u64, sizes: &Sizes) -> (usize, ChurnParams) {
    match workload {
        Workload::Churn => (
            sizes.churn_nodes,
            ChurnParams {
                lookup_rate: 1.0,
                churn_rate: 0.4,
                stabilization_period_secs: 30,
                lookups: sizes.churn_lookups,
                warmup_lookups: 0,
                audit: false,
                conditions: NetConditions::ideal(),
                jobs: 1,
                time: TimeModel::Rounds,
                phase: StabilizePhase::Hashed,
                ..ChurnParams::default()
            },
        ),
        Workload::Inflight => (
            sizes.inflight_nodes,
            ChurnParams {
                lookup_rate: 200.0,
                churn_rate: 2.0,
                stabilization_period_secs: 30,
                lookups: sizes.inflight_lookups,
                warmup_lookups: 0,
                audit: true,
                conditions: NetConditions::new(
                    FaultPlan::lossy(seed, 0.01),
                    RetryPolicy::standard(),
                ),
                jobs: 1,
                time: TimeModel::Continuous,
                phase: StabilizePhase::Hashed,
                ..ChurnParams::default()
            },
        ),
        Workload::Route => unreachable!("route-250k runs no churn"),
    }
}

/// Operations of one churn cell: lookups issued, joins, leaves and
/// per-node stabilizations.
fn churn_ops(out: &ChurnOutcome) -> u64 {
    (out.path_lens.len() + out.joins + out.leaves) as u64 + out.stabilize_calls
}

/// Output checks of one churn cell; returns the failed-check count.
fn check_churn(workload: Workload, out: &ChurnOutcome, log: &mut Vec<String>, who: &str) -> u64 {
    if workload != Workload::Inflight {
        return 0;
    }
    match &out.audit {
        Some(report) if report.is_clean() => 0,
        Some(report) => {
            log.push(format!("{who}: online audit reports violations:\n{report}"));
            report.violations().len() as u64
        }
        None => {
            log.push(format!("{who}: online audit did not run"));
            1
        }
    }
}

/// Set-up-time samples of a churn workload: builds whose networks are
/// dropped unused.
fn setup_samples(workload: Workload, kind_idx: usize, seed: u64, sizes: &Sizes) -> Vec<f64> {
    let (nodes, _) = churn_params(workload, seed, sizes);
    let kind = ALL_KINDS[kind_idx];
    (0..sizes.setup_builds)
        .map(|_| build(kind, nodes, build_seed(seed, workload, kind_idx)).1)
        .collect()
}

/// One churn cell on `net`: returns the outcome and the wall time of
/// `run_churn`.
fn churn_cell(
    net: &mut dyn Overlay,
    workload: Workload,
    kind_idx: usize,
    seed: u64,
    sizes: &Sizes,
) -> (ChurnOutcome, f64) {
    let (_, params) = churn_params(workload, seed, sizes);
    let label = format!("perfbench/churn/{}", workload.name());
    let mut rng = stream_indexed(seed, &label, kind_idx as u64);
    let started = Instant::now();
    let out = run_churn(net, params, &mut rng);
    (out, secs(started.elapsed()))
}

fn churn_digest(out: &ChurnOutcome, net: &dyn Overlay) -> Digest {
    let mut digest = Digest::default();
    digest.churn(out, &net.query_loads());
    digest
}

/// The untraced measured phase of a churn workload: rounds of one cell
/// per kind, while the next round is expected to end within the budget
/// (at least one round). Interleaving the kinds spreads each kind's
/// samples over the whole run, so host drift within a run hits every
/// kind alike. Every cell of a kind runs the same inputs, so all of
/// them must produce the same digest.
fn run_churn_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    results: &mut [KindResult],
    log: &mut Vec<String>,
) {
    let (nodes, _) = churn_params(workload, seed, sizes);
    let started = Instant::now();
    let mut round_s = 0.0;
    for round in 0.. {
        if round > 0 && secs(started.elapsed()) + round_s > seconds {
            break;
        }
        let round_started = Instant::now();
        for (kind_idx, res) in results.iter_mut().enumerate() {
            let kind = ALL_KINDS[kind_idx];
            let (mut net, built_s) = build(kind, nodes, build_seed(seed, workload, kind_idx));
            res.setup_s.push(built_s);
            let (out, run_s) = churn_cell(net.as_mut(), workload, kind_idx, seed, sizes);
            let digest = churn_digest(&out, net.as_ref());
            let ops = churn_ops(&out);
            res.unit_s.push(run_s);
            res.unit_ops.push(ops);
            res.executed_ops += ops;
            if round == 0 {
                res.digest = digest;
                res.ops = ops;
                res.failed_ops = out.failures as u64;
                res.check_failures += check_churn(workload, &out, log, slug(kind));
            } else if digest != res.digest {
                log.push(format!(
                    "{}: round {round} digest {digest} differs from round 0's {}",
                    slug(kind),
                    res.digest
                ));
                res.check_failures += 1;
            }
        }
        round_s = secs(round_started.elapsed());
    }
}

/// The traced pass of a churn workload for one kind: one cell on the
/// same inputs inside the proxy.
fn run_churn_traced(
    workload: Workload,
    kind_idx: usize,
    seed: u64,
    sizes: &Sizes,
    overhead_ns: f64,
    res: &mut KindResult,
    log: &mut Vec<String>,
) {
    let (nodes, _) = churn_params(workload, seed, sizes);
    let kind = ALL_KINDS[kind_idx];
    let (net, _) = build(kind, nodes, build_seed(seed, workload, kind_idx));
    let mut proxy = TracedOverlay::new(net, true);
    let bytes_per_node = proxy.bytes_per_node();
    let before = proxy.spans();
    let (out, run_s) = churn_cell(&mut proxy, workload, kind_idx, seed, sizes);
    // Everything recorded inside the run_churn span, before the
    // digest's own query_loads() call.
    let spans = proxy.spans().since(&before);
    res.traced_unit_s.push(run_s);
    res.traced_digest = Some(churn_digest(&out, &proxy));
    res.executed_ops += churn_ops(&out);
    res.check_failures += check_churn(workload, &out, log, &format!("{} traced", slug(kind)));
    if spans.owner_mismatches > 0 {
        log.push(format!(
            "{} traced: {} Found lookups ended off their key's owner",
            slug(kind),
            spans.owner_mismatches
        ));
        res.check_failures += spans.owner_mismatches;
    }

    let children = spans.total();
    let self_ns = (run_s * 1e9
        - children.ns as f64
        - children.calls as f64 * overhead_ns
        - spans.proxy_ns as f64)
        .max(0.0);
    let lookups = out.path_lens.len() as f64;
    let hops: usize = out.path_lens.iter().sum();
    let ns_per_hop = match workload {
        Workload::Inflight => per_call(spans.get(Layer::Step)),
        _ => ratio(spans.get(Layer::Lookup).ns as f64, spans.walk_hops as f64),
    };
    res.layers = Some(LayerFigures {
        bytes_per_node,
        hops_per_lookup: ratio(hops as f64, lookups),
        ns_per_hop,
        owner_of_ns: per_call(spans.get(Layer::OwnerOf)),
        stabilize_ns: per_call(spans.get(Layer::Stabilize)),
        join_ns: per_call(spans.get(Layer::Join)),
        leave_ns: per_call(spans.get(Layer::Leave)),
        audit_ns_per_node: ratio(spans.get(Layer::Audit).ns as f64, spans.audit_nodes as f64),
        effects_ns: per_call(spans.get(Layer::Effects)),
        self_ns_per_op: ratio(self_ns, churn_ops(&out) as f64),
        retries_per_lookup: ratio(out.retries.iter().sum::<u64>() as f64, lookups),
    });
}

// ---------------------------------------------------------------- identity

/// The outcome of one kind's fixed work on a workload — what a traced
/// run must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// Path length of every lookup.
    pub path_lens: Vec<usize>,
    /// Simulated latency of every lookup, µs.
    pub latencies_us: Vec<u64>,
    /// Lookups that did not end `Found` (stranded ones included).
    pub failures: usize,
    /// Per-node stabilization routines invoked.
    pub stabilize_calls: u64,
    /// Final per-node query-load table.
    pub query_loads: Vec<u64>,
    /// The run's outcome digest.
    pub digest: Digest,
}

/// Runs one kind's fixed work on `workload` — `route_rounds` lookup
/// batches on `route-250k`, one churn cell otherwise — on a fresh
/// network, inside a [`TracedOverlay`] when `traced`.
#[must_use]
pub fn observe(
    workload: Workload,
    kind_idx: usize,
    seed: u64,
    sizes: &Sizes,
    traced: bool,
) -> Observed {
    let kind = ALL_KINDS[kind_idx];
    let nodes = match workload {
        Workload::Route => sizes.route_nodes,
        _ => churn_params(workload, seed, sizes).0,
    };
    let (net, _) = build(kind, nodes, build_seed(seed, workload, kind_idx));
    let mut net: Box<dyn Overlay> = if traced {
        Box::new(TracedOverlay::new(net, true))
    } else {
        net
    };
    match workload {
        Workload::Route => {
            let mut obs = Observed {
                path_lens: Vec::new(),
                latencies_us: Vec::new(),
                failures: 0,
                stabilize_calls: 0,
                query_loads: Vec::new(),
                digest: Digest::default(),
            };
            for b in 0..sizes.route_rounds as u64 {
                let reqs = route_requests(net.as_ref(), seed, kind, b, sizes.route_batch);
                let traces = net.lookup_batch(&reqs, 1);
                let (failed, _) = check_batch(net.as_ref(), &reqs, &traces, &mut obs.digest);
                obs.failures += failed as usize;
                obs.path_lens
                    .extend(traces.iter().map(LookupTrace::path_len));
                obs.latencies_us
                    .extend(traces.iter().map(|t| t.net.latency_us));
            }
            obs.query_loads = net.query_loads();
            obs
        }
        _ => {
            let (out, _) = churn_cell(net.as_mut(), workload, kind_idx, seed, sizes);
            Observed {
                digest: churn_digest(&out, net.as_ref()),
                query_loads: net.query_loads(),
                failures: out.failures,
                stabilize_calls: out.stabilize_calls,
                latencies_us: out.latency_us,
                path_lens: out.path_lens,
            }
        }
    }
}

// ---------------------------------------------------------------- run

/// Runs `workload` with inputs drawn from `seed`, measuring for about
/// `seconds`. With `trace`, a traced pass over the same inputs follows
/// and the per-layer metrics are filled in.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, sizes: &Sizes) -> RunReport {
    let calib_ns = calibrate_ns();
    let mut log = Vec::new();
    let mut results = vec![KindResult::default(); ALL_KINDS.len()];

    match workload {
        Workload::Route => run_route(seed, seconds, sizes, trace, &mut results),
        Workload::Churn | Workload::Inflight => {
            for (kind_idx, res) in results.iter_mut().enumerate() {
                res.setup_s = setup_samples(workload, kind_idx, seed, sizes);
            }
            run_churn_untraced(workload, seed, seconds, sizes, &mut results, &mut log);
            if trace {
                let overhead_ns = span_overhead_ns();
                for (kind_idx, res) in results.iter_mut().enumerate() {
                    run_churn_traced(workload, kind_idx, seed, sizes, overhead_ns, res, &mut log);
                }
            }
        }
    }

    let mut report = RunReport::default();
    for (kind, res) in ALL_KINDS.iter().zip(&results) {
        report.attempted += res.executed_ops;
        report.failed += res.check_failures;
        let traced = match res.traced_digest {
            None => String::new(),
            Some(traced) if traced == res.digest => format!(" traced={traced} match"),
            Some(traced) => {
                report.failed += 1;
                format!(" traced={traced} MISMATCH")
            }
        };
        log.push(format!(
            "digest {} {} {}{traced} failed_ops={}/{}",
            workload.name(),
            slug(*kind),
            res.digest,
            res.failed_ops,
            res.ops
        ));
    }
    log.push(format!("fail_ratio {}", fail_ratio(&results)));
    log.push(format!("calib_ns {calib_ns}"));
    report.log = log;
    report.end_to_end = end_to_end_metrics(&results);
    if trace {
        report.per_layer = per_layer_metrics(&results, calib_ns);
    }
    report
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn end_to_end_metrics(results: &[KindResult]) -> Vec<Metric> {
    let setup_s: f64 = results.iter().map(|r| median(&r.setup_s)).sum();
    let run_s: f64 = results.iter().map(KindResult::median_unit_s).sum();
    let mut out = vec![metric("setup_s", "s", setup_s), metric("run_s", "s", run_s)];
    for (kind, res) in ALL_KINDS.iter().zip(results) {
        out.push(metric(
            format!("ops_per_s.{}", slug(*kind)),
            "ops/s",
            res.ops_per_s(),
        ));
    }
    out.push(metric("peak_rss_mib", "MiB", peak_rss_mib()));
    out.push(metric("success_ratio", "ratio", 1.0 - fail_ratio(results)));
    out
}

/// Failed operations over attempted operations, taken per kind and
/// averaged with equal weight, so that a kind's speed (which sets how
/// many lookups `route-250k` fits into its time slice) does not weigh
/// its failures.
fn fail_ratio(results: &[KindResult]) -> f64 {
    results
        .iter()
        .map(|r| ratio(r.failed_ops as f64, r.ops as f64))
        .sum::<f64>()
        / results.len() as f64
}

fn per_layer_metrics(results: &[KindResult], calib_ns: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    let figures: Vec<LayerFigures> = results
        .iter()
        .map(|r| r.layers.unwrap_or_default())
        .collect();
    type Pick = fn(&KindResult, &LayerFigures) -> f64;
    let table: [(&str, &'static str, Pick); 12] = [
        ("factory.build_s", "s", |r, _| median(&r.setup_s)),
        ("overlay.bytes_per_node", "count", |_, f| f.bytes_per_node),
        ("sim.hops_per_lookup", "count", |_, f| f.hops_per_lookup),
        ("sim.ns_per_hop", "ns", |_, f| f.ns_per_hop),
        ("store.owner_of_ns", "ns", |_, f| f.owner_of_ns),
        ("maint.stabilize_ns", "ns", |_, f| f.stabilize_ns),
        ("maint.join_ns", "ns", |_, f| f.join_ns),
        ("maint.leave_ns", "ns", |_, f| f.leave_ns),
        ("audit.ns_per_node", "ns", |_, f| f.audit_ns_per_node),
        ("sim.effects_ns", "ns", |_, f| f.effects_ns),
        ("churn.self_ns_per_op", "ns", |_, f| f.self_ns_per_op),
        ("net.retries_per_lookup", "count", |_, f| {
            f.retries_per_lookup
        }),
    ];
    for (prefix, unit, pick) in table {
        for ((kind, res), fig) in ALL_KINDS.iter().zip(results).zip(&figures) {
            out.push(metric(
                format!("{prefix}.{}", slug(*kind)),
                unit,
                pick(res, fig),
            ));
        }
    }
    let untraced: f64 = results.iter().map(KindResult::median_unit_s).sum();
    let traced: f64 = results.iter().map(|r| median(&r.traced_unit_s)).sum();
    out.push(metric(
        "trace.overhead",
        "ratio",
        ratio(traced, untraced) - 1.0,
    ));
    out.push(metric("host.calib_ns", "ns", calib_ns));
    out
}

/// Renders the result line: one JSON object with `correct`,
/// `attempted`, `failed` and the chosen metrics.
#[must_use]
pub fn result_json(report: &RunReport, trace: bool) -> String {
    let metrics = if trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        body.join(", ")
    )
}
