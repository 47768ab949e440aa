//! The benchmark's own checks: a seed fixes every sim-time metric,
//! counter and op outcome, at any data-plane thread count; and the
//! metrics a run prints are exactly those `BENCHMARK.json` lists.

use rackbench::gen::Scale;
use rackbench::layers;
use rackbench::run::{run, Opts, CONTRACT_E2E};
use rackbench::workload::{Workload, DEFAULT_THREADS};

/// Small enough for a debug build, big enough to seal, burn, evict,
/// fetch and audit at least one full array.
const SMALL: Scale = Scale {
    ingest_ops: 120,
    archive_files: 40,
    cold_reads: 100,
};

fn opts(workload: Workload, threads: usize, traced: bool, scale: Scale) -> Opts {
    Opts {
        workload,
        seed: 5,
        seconds: 0.0,
        traced,
        threads,
        scale,
    }
}

/// Runs every workload at the default thread count and at 1 thread:
/// every repetition of both runs must give the same fingerprint (op
/// outcomes, sim latencies, counters), every deterministic metric must
/// match bit for bit, and no read may return wrong bytes.
fn assert_thread_invariant(scale: Scale) {
    for w in Workload::ALL {
        let two = run(opts(w, DEFAULT_THREADS, false, scale)).expect("run at default threads");
        let one = run(opts(w, 1, false, scale)).expect("run at 1 thread");
        assert!(
            two.fingerprint().is_some(),
            "{}: repetitions differ",
            w.name()
        );
        assert_eq!(
            two.deterministic_view(),
            one.deterministic_view(),
            "{}: 1 vs {DEFAULT_THREADS} data-plane threads",
            w.name()
        );
        assert_eq!(two.wrong_reads + one.wrong_reads, 0, "{}", w.name());
    }
}

#[test]
fn same_seed_same_outcomes_at_any_thread_count() {
    assert_thread_invariant(SMALL);
}

/// The same check at the scale the benchmark runs at. It takes minutes;
/// run it with `cargo test --release -- --ignored`.
#[test]
#[ignore]
fn same_seed_same_outcomes_at_any_thread_count_full_scale() {
    assert_thread_invariant(Scale::FULL);
}

/// Metric names of one section (`"end_to_end"` or `"per_layer"`) of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn printed_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), CONTRACT_E2E);
    for w in Workload::ALL {
        let traced = run(opts(w, DEFAULT_THREADS, true, SMALL)).expect("traced run");
        let e2e: Vec<&str> = traced.end_to_end().iter().map(|m| m.name).collect();
        for name in CONTRACT_E2E {
            assert!(e2e.contains(&name), "{} lacks {name}", w.name());
        }
        let names: Vec<&str> = layers::per_layer(&traced).iter().map(|m| m.name).collect();
        assert_eq!(declared("per_layer"), names, "{}", w.name());
    }
}
