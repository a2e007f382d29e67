//! Golden regression: a fixed-seed 64-flow shared-bottleneck serving run
//! must reproduce the checked-in flow-table digest exactly. The runtime's
//! determinism contract says the digest is byte-identical at any
//! `SAGE_THREADS`, so `scripts/check.sh` runs this test under both
//! `SAGE_THREADS=1` and `SAGE_THREADS=4` against the same golden file.
//!
//! When a numeric change is *intentional*, regenerate with:
//!
//! ```text
//! SAGE_REGEN_GOLDEN=1 cargo test -p sage-serve --test serve_golden
//! ```

use sage_core::model::{NetConfig, SageModel};
use sage_gr::{GrConfig, STATE_DIM};
use sage_netsim::ManyFlowScenario;
use sage_serve::{run_many_flow, ServeConfig, ServeMode};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_64flow.txt")
}

fn run() -> String {
    let mut sc = ManyFlowScenario::shared_bottleneck(64, 4, 42);
    sc.secs = 3.0; // smoke-sized: ~300 monitor ticks
    let cfg = NetConfig {
        enc1: 8,
        gru: 8,
        enc2: 8,
        fc: 8,
        residual_blocks: 1,
        critic_hidden: 8,
        ..NetConfig::default()
    };
    let model = Arc::new(SageModel::new(
        cfg,
        vec![0.0; STATE_DIM],
        vec![1.0; STATE_DIM],
        7,
    ));
    let report = run_many_flow(
        &sc,
        model,
        GrConfig::default(),
        ServeConfig {
            mode: ServeMode::Batched,
            threads: 0, // resolve from SAGE_THREADS: check.sh varies it
            ..ServeConfig::default()
        },
    );
    let mut out = String::new();
    writeln!(out, "digest {:016x}", report.digest).unwrap();
    writeln!(out, "flows {}", report.stats.len()).unwrap();
    writeln!(out, "nn_actions {}", report.serve.nn_actions).unwrap();
    writeln!(out, "fallback_actions {}", report.serve.fallback_actions).unwrap();
    writeln!(out, "admitted {}", report.serve.admitted).unwrap();
    let delivered: u64 = report.stats.iter().map(|s| s.delivered_bytes).sum();
    writeln!(out, "delivered_bytes {delivered}").unwrap();
    out
}

#[test]
fn serve_64_flow_digest_matches_golden() {
    let got = run();
    let path = golden_path();
    if sage_util::env_cfg::regen_golden() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             SAGE_REGEN_GOLDEN=1 cargo test -p sage-serve --test serve_golden",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "golden mismatch: if the numeric change is intentional, regenerate \
         with SAGE_REGEN_GOLDEN=1 cargo test -p sage-serve --test serve_golden"
    );
}
