//! A tiny-size run of every workload emits every metric `BENCHMARK.json`
//! names, with its unit, and passes its own output checks.

use perfbench::{result_json, run, Metric, Sizes, Workload};

const KINDS: [&str; 8] = [
    "cycloid7",
    "cycloid11",
    "viceroy",
    "koorde",
    "koorde-bf",
    "chord",
    "pastry",
    "can2",
];

fn expected_end_to_end() -> Vec<(String, &'static str)> {
    let mut out = vec![("setup_s".to_string(), "s"), ("run_s".to_string(), "s")];
    out.extend(KINDS.iter().map(|k| (format!("ops_per_s.{k}"), "ops/s")));
    out.push(("peak_rss_mib".into(), "MiB"));
    out.push(("success_ratio".into(), "ratio"));
    out
}

fn expected_per_layer() -> Vec<(String, &'static str)> {
    let families = [
        ("factory.build_s", "s"),
        ("overlay.bytes_per_node", "count"),
        ("sim.hops_per_lookup", "count"),
        ("sim.ns_per_hop", "ns"),
        ("store.owner_of_ns", "ns"),
        ("maint.stabilize_ns", "ns"),
        ("maint.join_ns", "ns"),
        ("maint.leave_ns", "ns"),
        ("audit.ns_per_node", "ns"),
        ("sim.effects_ns", "ns"),
        ("churn.self_ns_per_op", "ns"),
        ("net.retries_per_lookup", "count"),
    ];
    let mut out: Vec<(String, &'static str)> = families
        .iter()
        .flat_map(|(f, u)| KINDS.iter().map(move |k| (format!("{f}.{k}"), *u)))
        .collect();
    out.push(("trace.overhead".into(), "ratio"));
    out.push(("host.calib_ns".into(), "ns"));
    out
}

fn names_units(metrics: &[Metric]) -> Vec<(String, &'static str)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit)).collect()
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with a
/// plain scan (the section's entries are flat objects).
fn manifest_section(section: &str) -> Vec<(String, String)> {
    let manifest = include_str!("../../BENCHMARK.json");
    let start = manifest
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').unwrap() + 1;
        let close = open + rest[open..].find('"').unwrap();
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn manifest_lists_exactly_the_emitted_metrics() {
    let owned = |v: Vec<(String, &str)>| -> Vec<(String, String)> {
        v.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    };
    assert_eq!(manifest_section("end_to_end"), owned(expected_end_to_end()));
    assert_eq!(manifest_section("per_layer"), owned(expected_per_layer()));
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        let report = run(workload, 3, 0.05, true, &Sizes::tiny());
        let who = workload.name();
        assert!(report.correct(), "{who}: {:#?}", report.log);
        assert!(report.attempted > 0, "{who}");
        assert_eq!(
            names_units(&report.end_to_end),
            expected_end_to_end(),
            "{who}"
        );
        assert_eq!(
            names_units(&report.per_layer),
            expected_per_layer(),
            "{who}"
        );
        for m in &report.end_to_end {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{who}: {} = {}",
                m.name,
                m.value
            );
        }
        for m in &report.per_layer {
            assert!(m.value.is_finite(), "{who}: {} = {}", m.name, m.value);
        }
        let digests = report
            .log
            .iter()
            .filter(|l| l.starts_with("digest "))
            .count();
        assert_eq!(digests, 8, "{who}: one digest line per kind");
        assert!(report.log.iter().all(|l| !l.contains("MISMATCH")), "{who}");

        for trace in [false, true] {
            let line = result_json(&report, trace);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(!line.contains('\n'));
        }
    }
}
