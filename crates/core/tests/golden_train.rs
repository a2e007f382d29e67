//! Golden regression test: a fixed-seed miniature training run (tiny net,
//! two Set I environments) must reproduce the checked-in loss trajectory
//! bit-for-bit and the exact final policy digest. Any change to the
//! simulator, the collector, the autodiff engine, the optimiser or the CRR
//! trainer that alters numerics shows up here first.
//!
//! When a numeric change is *intentional*, regenerate the golden file with:
//!
//! ```text
//! SAGE_REGEN_GOLDEN=1 cargo test -p sage-core --test golden_train
//! ```
//!
//! and commit the updated `tests/golden/train_*.txt` alongside the change.
//! `train_tiny_bc.txt` is the same run in behavioural-cloning mode
//! (`bc_only: true`: constant filter, no critic); `train_tiny_refresh.txt`
//! runs 12 steps at `target_period: 3`, so four target refreshes fall inside
//! it (the other two, and the benchmark's 20 steps, stay below the default
//! period of 100 and never see a step after `copy_values_from`).
//! `train_default.txt` runs 3 steps of the shipped shapes — `NetConfig::default()`,
//! batch 16, unroll 8 — whose product tiles (48, 64, 41 and 3 columns) and
//! eight-row critic fold the tiny net never reaches.

use sage_collector::{collect_pool, training_envs};
use sage_core::{CrrConfig, CrrTrainer, NetConfig};
use sage_gr::GrConfig;
use sage_util::crc32;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// The tiny network the miniature runs train.
fn tiny_net() -> NetConfig {
    NetConfig {
        enc1: 8,
        gru: 8,
        enc2: 8,
        fc: 8,
        residual_blocks: 1,
        critic_hidden: 16,
        atoms: 11,
        ..NetConfig::default()
    }
}

/// A miniature run: deterministic pool from two Set I + one Set II env,
/// `steps` gradient steps of `cfg`.
fn run(cfg: CrrConfig, steps: usize) -> String {
    let envs = training_envs(2, 1, 2.0, 13);
    let pool = collect_pool(
        &envs,
        &["cubic", "vegas"],
        GrConfig::default(),
        4,
        |_, _| {},
    );
    let mut tr = CrrTrainer::new(cfg, &pool);
    // Loss values are recorded as raw f64 bits (hex): the contract is exact
    // reproduction, not approximate similarity.
    let mut out = String::new();
    for step in 0..steps {
        let m = tr.train_step(&pool);
        writeln!(
            out,
            "step {step} policy {:016x} critic {:016x}",
            m.policy_loss.to_bits(),
            m.critic_loss.to_bits()
        )
        .unwrap();
    }
    let digest = crc32(&tr.model().to_bytes().expect("model serialises"));
    writeln!(out, "model_crc32 {digest:08x}").unwrap();
    out
}

/// The tiny network's run, in CRR or BC mode.
fn tiny(bc_only: bool, target_period: u64) -> CrrConfig {
    CrrConfig {
        net: tiny_net(),
        batch: 8,
        unroll: 4,
        seed: 17,
        bc_only,
        target_period,
        ..CrrConfig::default()
    }
}

fn check(file: &str, cfg: CrrConfig, steps: usize) {
    let got = run(cfg, steps);
    let path = golden_path(file);
    if sage_util::env_cfg::regen_golden() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with \
             SAGE_REGEN_GOLDEN=1 cargo test -p sage-core --test golden_train",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "golden mismatch: if the numeric change is intentional, regenerate \
         with SAGE_REGEN_GOLDEN=1 cargo test -p sage-core --test golden_train"
    );
}

#[test]
fn miniature_training_run_matches_golden() {
    check("train_tiny.txt", tiny(false, 100), 8);
}

#[test]
fn miniature_bc_run_matches_golden() {
    check("train_tiny_bc.txt", tiny(true, 100), 8);
}

#[test]
fn miniature_run_across_target_refreshes_matches_golden() {
    check("train_tiny_refresh.txt", tiny(false, 3), 12);
}

#[test]
fn default_width_training_run_matches_golden() {
    let cfg = CrrConfig {
        net: NetConfig::default(),
        batch: 16,
        unroll: 8,
        seed: 17,
        ..CrrConfig::default()
    };
    check("train_default.txt", cfg, 3);
}
