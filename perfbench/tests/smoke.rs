//! A short run of every workload, untraced and traced, against a freshly
//! built release `spg`: each must pass its output checks and print the
//! metrics it owes. Run with `cargo test --release` (debug builds make
//! the in-process training and replay too slow for a smoke test).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Mutex, OnceLock};

/// Runs share `perfbench/out/` and the CPU, so they go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const END_TO_END: [&str; 5] = [
    "setup_s",
    "p50_ms",
    "p90_ms",
    "throughput_per_s",
    "reward_mean",
];

/// Build the release `spg` binary next to this test's own target dir.
fn spg() -> &'static Path {
    static SPG: OnceLock<PathBuf> = OnceLock::new();
    SPG.get_or_init(|| {
        let exe = PathBuf::from(env!("CARGO_BIN_EXE_perfbench"));
        let target = exe
            .parent()
            .and_then(Path::parent)
            .expect("binary lives in <target>/<profile>/")
            .to_path_buf();
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--quiet", "--bin", "spg"])
            .current_dir(root())
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building spg failed");
        target.join("release").join("spg")
    })
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// Run one workload; returns the parsed last stdout line.
fn run(workload: &str, trace: bool) -> serde_json::Value {
    let _one_at_a_time = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "2"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--spg")
        .arg(spg())
        .arg("--root")
        .arg(root())
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

fn check(workload: &str) {
    let v = run(workload, false);
    assert!(matches!(
        v.field("correct"),
        Ok(serde_json::Value::Bool(true))
    ));
    let metrics = v.field("metrics").expect("metrics");
    for name in END_TO_END {
        let value = metrics
            .field(name)
            .and_then(|m| m.field("value"))
            .unwrap_or_else(|_| panic!("{workload}: missing {name}"));
        let value: f64 = serde::Deserialize::deserialize(value).expect("a number");
        assert!(value > 0.0, "{workload}: {name} = {value}");
    }
    let v = run(workload, true);
    let metrics = v.field("metrics").expect("metrics");
    for name in ["trace.overhead_pct", "replay.requests", "gen.lag_p90_ms"] {
        assert!(
            metrics.field(name).is_ok(),
            "{workload}: traced run lacks {name}"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn alloc_large_smoke() {
    check("alloc-large");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn alloc_small_hot_smoke() {
    check("alloc-small-hot");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn realloc_drift_smoke() {
    check("realloc-drift");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "run with --release")]
fn train_large_smoke() {
    check("train-large");
}
