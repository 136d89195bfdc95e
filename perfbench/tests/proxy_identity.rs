//! The traced pass must run exactly the program the untraced pass runs:
//! the proxy forwards every `Overlay` method, so wrapping a network
//! changes no outcome.

use dht_core::audit::AuditScope;
use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy};
use dht_core::net::{FaultPlan, NetConditions, RetryPolicy};
use dht_core::obs::{PhaseAccountant, RingBufferSink, SinkHandle};
use dht_core::overlay::Overlay;
use dht_sim::factory::{build_overlay_spaced, ALL_KINDS};
use perfbench::{observe, slug, Layer, Sizes, TracedOverlay, Workload};

#[test]
fn traced_and_untraced_runs_agree_for_every_kind_on_every_workload() {
    let sizes = Sizes::tiny();
    for workload in Workload::ALL {
        for (kind_idx, kind) in ALL_KINDS.iter().enumerate() {
            let plain = observe(workload, kind_idx, 7, &sizes, false);
            let traced = observe(workload, kind_idx, 7, &sizes, true);
            let who = format!("{} {}", workload.name(), slug(*kind));
            assert!(!plain.path_lens.is_empty(), "{who}: no lookups ran");
            assert_eq!(plain.path_lens, traced.path_lens, "{who}: path lengths");
            assert_eq!(plain.latencies_us, traced.latencies_us, "{who}: latencies");
            assert_eq!(plain.failures, traced.failures, "{who}: failures");
            assert_eq!(
                plain.stabilize_calls, traced.stabilize_calls,
                "{who}: stabilize calls"
            );
            assert_eq!(plain.query_loads, traced.query_loads, "{who}: query loads");
            assert_eq!(plain.digest, traced.digest, "{who}: digest");
            if workload != Workload::Route {
                assert!(plain.stabilize_calls > 0, "{who}: no maintenance ran");
            }
        }
    }
}

/// Calls `f` on the proxy and checks it crossed into the program exactly
/// once, through the method named `what`. A method the proxy failed to
/// forward would run the trait's default body on the proxy, whose calls
/// back into other trait methods (`contains` into `node_tokens`, `fail`
/// into `leave`, `stabilize_node` into `stabilize`, `lookup_batch` into
/// `lookup`, ...) would be recorded instead, or as further spans.
fn one_span<R>(
    traced: &mut TracedOverlay,
    what: &str,
    f: impl FnOnce(&mut TracedOverlay) -> R,
) -> R {
    let before = traced.spans().total().calls;
    let out = f(traced);
    let spans = traced.spans();
    let calls = spans.total().calls - before;
    assert_eq!((calls, spans.last_call), (1, what), "{what}");
    out
}

/// Every method with a default body is forwarded: it records one span
/// and gives the wrapped overlay's answer, not the default's.
#[test]
fn proxy_forwards_methods_with_default_bodies() {
    for kind in ALL_KINDS {
        let who = slug(kind);
        let mut plain = build_overlay_spaced(kind, 96, 128, 3);
        let mut traced = TracedOverlay::new(build_overlay_spaced(kind, 96, 128, 3), false);
        let tokens = plain.node_tokens();
        assert_eq!(tokens, traced.node_tokens(), "{who}");
        let absent = (0..).find(|t| !tokens.contains(t)).unwrap();

        // Accessors: a default getter would report the ideal network and
        // disabled handles whatever was set.
        let lossy = NetConditions::new(FaultPlan::lossy(5, 0.1), RetryPolicy::standard());
        plain.set_net_conditions(lossy);
        one_span(&mut traced, "set_net_conditions", |t| {
            t.set_net_conditions(lossy)
        });
        let got = one_span(&mut traced, "net_conditions", |t| t.net_conditions());
        assert_eq!(got, lossy, "{who}");
        assert_eq!(got, plain.net_conditions(), "{who}");
        let sink = SinkHandle::new(RingBufferSink::new(4));
        one_span(&mut traced, "set_trace_sink", |t| t.set_trace_sink(sink));
        assert!(
            one_span(&mut traced, "trace_sink", |t| t.trace_sink()).is_enabled(),
            "{who}"
        );
        traced.set_trace_sink(SinkHandle::disabled());
        one_span(&mut traced, "set_phase_accountant", |t| {
            t.set_phase_accountant(PhaseAccountant::enabled());
        });
        let acct = one_span(&mut traced, "phase_accountant", |t| t.phase_accountant());
        assert!(acct.is_enabled(), "{who}");
        traced.set_phase_accountant(PhaseAccountant::disabled());

        assert!(
            !one_span(&mut traced, "is_empty", |t| t.is_empty()),
            "{who}"
        );
        let bytes = one_span(&mut traced, "state_bytes", |t| t.state_bytes());
        assert_eq!(bytes, plain.state_bytes(), "{who}");
        let per_node = one_span(&mut traced, "bytes_per_node", |t| t.bytes_per_node());
        assert_eq!(
            per_node.to_bits(),
            plain.bytes_per_node().to_bits(),
            "{who}"
        );
        assert!(per_node > 0.0, "{who}");
        for &t in &tokens[..8] {
            let msgs = one_span(&mut traced, "maintenance_msgs", |o| o.maintenance_msgs(t));
            assert_eq!(msgs, plain.maintenance_msgs(t), "{who}");
            assert!(
                one_span(&mut traced, "contains", |o| o.contains(t)),
                "{who}"
            );
        }
        assert!(
            !one_span(&mut traced, "contains", |o| o.contains(absent)),
            "{who}"
        );
        let reqs: Vec<_> = tokens[..4]
            .iter()
            .map(|&t| (t, t.wrapping_mul(31)))
            .collect();
        let a = plain.lookup_batch(&reqs, 1);
        let b = one_span(&mut traced, "lookup_batch", |t| t.lookup_batch(&reqs, 1));
        let paths = |v: &[dht_core::lookup::LookupTrace]| -> Vec<(usize, u64)> {
            v.iter().map(|t| (t.path_len(), t.terminal)).collect()
        };
        assert_eq!(paths(&a), paths(&b), "{who}");

        // Mutators: the same calls leave both networks in the same state.
        let plan = CorruptionPlan::new(CorruptionStrategy::RandomizeLinks, 0.5, 9);
        let report = one_span(&mut traced, "corrupt_state", |t| t.corrupt_state(&plan));
        assert_eq!(report, plain.corrupt_state(&plan), "{who}");
        for &t in &tokens[..8] {
            let fixed = one_span(&mut traced, "repair_node", |o| o.repair_node(t));
            assert_eq!(fixed, plain.repair_node(t), "{who}");
        }
        for &t in &tokens[8..16] {
            plain.stabilize_node(t);
            one_span(&mut traced, "stabilize_node", |o| o.stabilize_node(t));
        }
        assert!(plain.fail(tokens[20]), "{who}");
        assert!(
            one_span(&mut traced, "fail", |t| t.fail(tokens[20])),
            "{who}"
        );
        assert!(plain.leave(tokens[21]), "{who}");
        assert!(
            one_span(&mut traced, "leave", |t| t.leave(tokens[21])),
            "{who}"
        );
        let audit = one_span(&mut traced, "audit_state", |t| {
            t.audit_state(AuditScope::Full)
        });
        assert_eq!(
            audit.to_string(),
            plain.audit_state(AuditScope::Full).to_string(),
            "{who}"
        );
        assert_eq!(plain.node_tokens(), traced.node_tokens(), "{who}");
        assert_eq!(plain.query_loads(), traced.query_loads(), "{who}");
        assert_eq!(traced.spans().get(Layer::Leave).calls, 2, "{who}");
    }
}
