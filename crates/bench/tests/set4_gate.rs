//! Set IV golden gate: the pinned hardest scenarios must not regress.
//!
//! Two regression families, both compared against the recorded baselines in
//! `tests/golden/set4_baselines.json`:
//!
//! * the pinned adversarial genomes from `sage_eval::set4` — the learned
//!   policy's regret vs the heuristic roster must not rise by more than the
//!   tolerance above its baseline;
//! * the 64-flow shared-bottleneck serving case (the Jain ~0.4 fairness
//!   finding) — fairness and aggregate goodput must not drop below their
//!   baselines by more than the tolerance, and the policy (not the heuristic
//!   fallback) must decide at least 95% of the actions.
//!
//! Every quantity here is deterministic at any `SAGE_THREADS`, so
//! `scripts/check.sh` runs the gate at two thread counts. After an
//! *intentional* policy/simulator change, re-record with:
//!
//! ```text
//! SAGE_REGEN_GOLDEN=1 cargo test -p sage-bench --release --test set4_gate
//! ```

use sage_bench::{default_gr, model_path, SEED};
use sage_core::SageModel;
use sage_eval::runner::Contender;
use sage_eval::set4::{eval_pinned, pinned_scenarios, Set4Tolerance};
use sage_eval::{jain_fairness, AdvOutcome};
use sage_netsim::ManyFlowScenario;
use sage_serve::{run_many_flow, ServeConfig, ServeMode};
use sage_util::Json;
use std::path::PathBuf;
use std::sync::Arc;

/// Same roster the adversarial search ranks against (see `adv_search`).
const ROSTER: [&str; 4] = ["cubic", "bbr2", "vegas", "newreno"];

fn baselines_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/set4_baselines.json")
}

fn fairness_case(model: Arc<SageModel>) -> (f64, f64) {
    let mut sc = ManyFlowScenario::shared_bottleneck(64, 4, SEED);
    sc.secs = 3.0; // gate-sized; the full benchmark runs longer
    let report = run_many_flow(
        &sc,
        model,
        default_gr(),
        ServeConfig {
            mode: ServeMode::Batched,
            threads: 0, // resolve from SAGE_THREADS: check.sh varies it
            seed: SEED,
            ..ServeConfig::default()
        },
    );
    let (nn, fallback) = (report.serve.nn_actions, report.serve.fallback_actions);
    assert!(
        fallback * 20 <= nn + fallback,
        "64-flow fallback share above 5%: {fallback} of {} actions",
        nn + fallback
    );
    let jain = jain_fairness(&report.learned_goodputs());
    let total: f64 = report.stats.iter().map(|s| s.avg_goodput_mbps).sum();
    (jain, total / sc.total_mbps())
}

fn current() -> (Vec<AdvOutcome>, f64, f64) {
    let model = Arc::new(
        SageModel::load_file(&model_path("sage"))
            .expect("artifacts/sage.model is committed; the Set IV gate needs it"),
    );
    let target = Contender::Model {
        name: "sage",
        model: model.clone(),
        gr_cfg: default_gr(),
    };
    let roster: Vec<Contender> = ROSTER.into_iter().map(Contender::Heuristic).collect();
    let outcomes = eval_pinned(&target, &roster, SEED, 0);
    let (jain, goodput_frac) = fairness_case(model);
    (outcomes, jain, goodput_frac)
}

fn to_json(outcomes: &[AdvOutcome], jain: f64, goodput_frac: f64) -> Json {
    Json::obj(vec![
        (
            "fairness64",
            Json::obj(vec![
                ("jain", Json::Num(jain)),
                ("goodput_frac", Json::Num(goodput_frac)),
            ]),
        ),
        (
            "adv",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Json::obj(vec![
                            ("id", Json::str(o.id.clone())),
                            ("regret", Json::Num(o.regret)),
                            ("fairness", Json::Num(o.fairness)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[test]
fn set4_pinned_scenarios_within_tolerance() {
    let (outcomes, jain, goodput_frac) = current();
    assert_eq!(outcomes.len(), pinned_scenarios().len());
    let path = baselines_path();
    if sage_util::env_cfg::regen_golden() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(
            &path,
            format!("{}\n", to_json(&outcomes, jain, goodput_frac)),
        )
        .unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing baselines {} ({e}); record with SAGE_REGEN_GOLDEN=1 \
             cargo test -p sage-bench --release --test set4_gate",
            path.display()
        )
    });
    let want = Json::parse(&want).expect("set4_baselines.json parses");
    let tol = Set4Tolerance::default();

    // Fairness case: Jain and aggregate goodput must not regress.
    let base = want.get("fairness64").expect("fairness64 baseline");
    let base_jain = base.get("jain").and_then(Json::as_f64).unwrap();
    let base_frac = base.get("goodput_frac").and_then(Json::as_f64).unwrap();
    assert!(
        jain >= base_jain - tol.fairness_abs,
        "64-flow Jain fairness regressed: {jain:.4} vs baseline {base_jain:.4} \
         (tolerance {})",
        tol.fairness_abs
    );
    assert!(
        goodput_frac >= base_frac - 0.15,
        "64-flow aggregate goodput regressed: {goodput_frac:.4} of link vs \
         baseline {base_frac:.4}"
    );

    // Pinned adversarial scenarios: regret must not rise past tolerance.
    let base_adv = want.get("adv").and_then(Json::as_arr).unwrap();
    assert_eq!(base_adv.len(), outcomes.len(), "pinned set changed: regen");
    for (b, o) in base_adv.iter().zip(&outcomes) {
        let id = b.get("id").and_then(Json::as_str).unwrap();
        assert_eq!(id, o.id, "pinned order/id drifted: regen baselines");
        let base_regret = b.get("regret").and_then(Json::as_f64).unwrap();
        assert!(
            o.regret <= base_regret + tol.regret_abs,
            "{id}: regret regressed to {:.4} (baseline {base_regret:.4}, \
             tolerance {})",
            o.regret,
            tol.regret_abs
        );
    }
}
