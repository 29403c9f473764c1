//! Report-schema corpus test: every committed `results/*.json`, the
//! repo-root `BENCH_*.json` perf reports, and a freshly built
//! `serve_fleet` artifact must all carry an integer `schema_version` at
//! the top level and contain only finite numbers — the class of bug where
//! a writer ships a bare array or a NaN flattens to `null` is caught here
//! for *all* writers at once, not ad hoc per artifact.

use at_bench::report::{envelope, validate_artifact, RESULTS_SCHEMA_VERSION};
use serde::Value;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // crates/bench -> crates -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("bench crate must live two levels below the repo root")
        .to_path_buf()
}

fn load(path: &Path) -> Value {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("unreadable artifact {}: {e}", path.display()));
    serde_json::from_str(&raw)
        .unwrap_or_else(|e| panic!("unparseable artifact {}: {e:?}", path.display()))
}

/// Every committed artifact under `results/` conforms to the schema.
#[test]
fn committed_results_corpus_conforms() {
    let dir = repo_root().join("results");
    let mut checked = 0usize;
    let entries = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing results/ corpus at {}: {e}", dir.display()));
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let value = load(&path);
        validate_artifact(&value).unwrap_or_else(|e| {
            panic!("schema violation in {}: {e}", path.display());
        });
        checked += 1;
    }
    assert!(
        checked >= 17,
        "corpus shrank: expected ≥17 committed artifacts, found {checked}"
    );
}

/// Any `BENCH_*.json` perf reports at the repo root conform too (the
/// corpus is allowed to be empty on a fresh checkout — benches write these
/// locally and in CI).
#[test]
fn bench_reports_conform() {
    let root = repo_root();
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("repo root must be readable")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let value = load(&path);
        validate_artifact(&value)
            .unwrap_or_else(|e| panic!("schema violation in {}: {e}", path.display()));
    }
}

/// A freshly built (small) `serve_fleet` artifact passes validation
/// before it is ever written — the writer-side guarantee, not just the
/// committed-corpus one.
#[test]
fn fresh_serve_fleet_artifact_conforms() {
    let artifact = at_bench::serve_fleet::build_artifact(2_000, 2, 7);
    let tree = envelope(at_bench::serve_fleet::artifact_value(&artifact));
    validate_artifact(&tree).expect("fresh serve_fleet artifact must conform");
    // The envelope must be a no-op: the artifact is already versioned.
    let pairs = tree.as_object().unwrap();
    assert!(pairs.iter().any(
        |(k, v)| k == "schema_version" && v.as_f64() == Some(f64::from(RESULTS_SCHEMA_VERSION))
    ));
    assert!(
        !pairs.iter().any(|(k, _)| k == "data"),
        "a versioned artifact must not get double-wrapped"
    );
}

/// Same writer-side guarantee for the chaos campaign: a freshly built
/// (small) `fleet_chaos` artifact validates, is not double-wrapped, and
/// carries zero unaccounted requests even at toy scale.
#[test]
fn fresh_fleet_chaos_artifact_conforms() {
    let artifact = at_bench::fleet_chaos::build_artifact(2_000, 2, 7);
    let tree = envelope(at_bench::fleet_chaos::artifact_value(&artifact));
    validate_artifact(&tree).expect("fresh fleet_chaos artifact must conform");
    let pairs = tree.as_object().unwrap();
    assert!(pairs.iter().any(
        |(k, v)| k == "schema_version" && v.as_f64() == Some(f64::from(RESULTS_SCHEMA_VERSION))
    ));
    assert!(pairs.iter().any(|(k, _)| k == "availability_pct"));
    assert!(pairs
        .iter()
        .any(|(k, v)| k == "requests_unaccounted" && v.as_f64() == Some(0.0)));
    assert!(
        !pairs.iter().any(|(k, _)| k == "data"),
        "a versioned artifact must not get double-wrapped"
    );
}

/// Same writer-side guarantee for the kernel micro-benchmark: a freshly
/// built (tiny) artifact validates and carries the host stamp, the
/// headline speedup fields and the batch-16 zoo conv rows.
#[test]
fn fresh_bench_kernels_artifact_conforms() {
    let artifact = at_bench::bench_kernels::build_artifact(16, 1);
    let tree = envelope(at_bench::bench_kernels::artifact_value(&artifact));
    validate_artifact(&tree).expect("fresh bench_kernels artifact must conform");
    let pairs = tree.as_object().unwrap();
    assert!(pairs.iter().any(
        |(k, v)| k == "schema_version" && v.as_f64() == Some(f64::from(RESULTS_SCHEMA_VERSION))
    ));
    assert!(pairs.iter().any(|(k, _)| k == "host"));
    assert!(pairs.iter().any(|(k, _)| k == "headline_matmul_speedup"));
    let zoo_rows = artifact.conv.iter().filter(|r| r.input[0] == 16).count();
    assert_eq!(zoo_rows, 5, "the batch-16 zoo conv shapes");
    let one_channel_filters = artifact.conv.iter().filter(|r| r.weight[1] == 1).count();
    assert_eq!(
        one_channel_filters, 3,
        "the depthwise and LeNet conv shapes"
    );
    assert!(
        !pairs.iter().any(|(k, _)| k == "data"),
        "a versioned artifact must not get double-wrapped"
    );
}

/// Same writer-side guarantee for the SDC campaign: a freshly built
/// (small) `fleet_sdc` artifact validates, is not double-wrapped, and
/// carries zero unaccounted requests and the headline coverage fields
/// even at toy scale.
#[test]
fn fresh_fleet_sdc_artifact_conforms() {
    let artifact = at_bench::fleet_sdc::build_artifact(2_000, 2, 7, 1, 32);
    let tree = envelope(at_bench::fleet_sdc::artifact_value(&artifact));
    validate_artifact(&tree).expect("fresh fleet_sdc artifact must conform");
    let pairs = tree.as_object().unwrap();
    assert!(pairs.iter().any(
        |(k, v)| k == "schema_version" && v.as_f64() == Some(f64::from(RESULTS_SCHEMA_VERSION))
    ));
    assert!(pairs.iter().any(|(k, _)| k == "availability_pct"));
    assert!(pairs.iter().any(|(k, _)| k == "fleet_detection_pct"));
    assert!(pairs.iter().any(|(k, _)| k == "kernel"));
    assert!(pairs.iter().any(|(k, _)| k == "overhead"));
    assert!(pairs
        .iter()
        .any(|(k, v)| k == "requests_unaccounted" && v.as_f64() == Some(0.0)));
    assert!(
        !pairs.iter().any(|(k, _)| k == "data"),
        "a versioned artifact must not get double-wrapped"
    );
}
