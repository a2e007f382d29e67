//! Evaluation-matrix rank-regression gate.
//!
//! A fixed sub-matrix — every scenario family, six heuristics plus the
//! committed learned policy, one seed — runs through `run_matrix` and its
//! serialised report is compared against the pinned golden in
//! `tests/golden/matrix_golden.json`:
//!
//! * per-scenario scheme *ranking order* must match exactly — any rank
//!   inversion fails the gate with no tolerance;
//! * per-cell score/goodput/delay/fairness must stay within the
//!   `MatrixTolerance` bounds, and survival must not change.
//!
//! Every quantity is deterministic at any `SAGE_THREADS`, so
//! `scripts/check.sh` runs the gate at two thread counts. After an
//! *intentional* simulator/policy/scoring change, re-record with:
//!
//! ```text
//! SAGE_REGEN_GOLDEN=1 cargo test -p sage-bench --release --test matrix_gate
//! ```

use sage_bench::{default_gr, model_path, SEED};
use sage_core::SageModel;
use sage_eval::matrix::{
    compare_to_golden, matrix_json, run_matrix, scenario_fairness, scenarios_adversarial,
    scenarios_fault, scenarios_internet, scenarios_multihop, scenarios_set12, MatrixSpec,
    MatrixTolerance,
};
use sage_eval::runner::Contender;
use sage_util::Json;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/matrix_golden.json")
}

/// The gate sub-matrix: small enough for CI, wide enough that every
/// scenario family contributes at least one ranking to the golden.
fn gate_spec() -> MatrixSpec {
    let model = Arc::new(
        SageModel::load_file(&model_path("sage"))
            .expect("artifacts/sage.model is committed; the matrix gate needs it"),
    );
    let secs = 4.0;
    let mut scenarios = scenarios_set12(2, 1, secs, 21);
    scenarios.extend(scenarios_fault(Some(&["clean", "blackout"]), 6.0));
    scenarios.extend(scenarios_internet(1, secs, SEED));
    scenarios.extend(scenarios_adversarial(secs));
    scenarios.extend(scenarios_multihop(secs));
    scenarios.push(scenario_fairness(3, 12.0, 3.0));
    // High-contention cell: 64 self-flows piling onto one bottleneck with a
    // near-simultaneous start, pinning Jain fairness under contention per PR.
    scenarios.push(scenario_fairness(64, 8.0, 0.05));
    MatrixSpec {
        schemes: vec![
            Contender::Model {
                name: "sage",
                model,
                gr_cfg: default_gr(),
            },
            Contender::Heuristic("cubic"),
            Contender::Heuristic("bbr2"),
            Contender::Heuristic("vegas"),
            Contender::Heuristic("westwood"),
            Contender::Heuristic("copa"),
            Contender::Heuristic("newreno"),
        ],
        scenarios,
        seeds: vec![SEED],
        alpha: 2.0,
        threads: 0, // resolve from SAGE_THREADS: check.sh varies it
    }
}

#[test]
fn matrix_rankings_match_golden() {
    let spec = gate_spec();
    let report = run_matrix(&spec, |_, _| {});
    let current = matrix_json(&spec, &report);
    let path = golden_path();
    if sage_util::env_cfg::regen_golden() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{current}\n")).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); record with SAGE_REGEN_GOLDEN=1 \
             cargo test -p sage-bench --release --test matrix_gate",
            path.display()
        )
    });
    let golden = Json::parse(&want).expect("matrix_golden.json parses");
    let tol = MatrixTolerance::default();
    let violations = compare_to_golden(&current, &golden, &tol);
    assert!(
        violations.is_empty(),
        "evaluation matrix regressed vs golden ({} violations):\n{}",
        violations.len(),
        violations.join("\n")
    );

    // Negative control: a seeded rank inversion in the golden MUST trip the
    // gate, proving the comparison actually inspects the ranking order.
    let mut broken = golden.clone();
    if let Json::Obj(top) = &mut broken {
        let Some(Json::Arr(ranks)) = top.get_mut("rankings") else {
            panic!("golden rankings section missing");
        };
        let Some(Json::Obj(r0)) = ranks.first_mut() else {
            panic!("golden rankings empty");
        };
        let Some(Json::Arr(order)) = r0.get_mut("order") else {
            panic!("golden ranking order missing");
        };
        assert!(order.len() >= 2, "gate needs at least two schemes");
        order.swap(0, 1);
    }
    let caught = compare_to_golden(&current, &broken, &tol);
    assert!(
        caught.iter().any(|v| v.contains("rank inversion")),
        "seeded rank inversion was not detected: {caught:?}"
    );
}
