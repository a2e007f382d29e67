//! Every committed artifact must load with the loaders this tree ships: a
//! model or tree that sits under `artifacts/` but fails to parse silently
//! breaks whichever figure bin reaches for it next.

use sage_bench::{artifacts_dir, default_gr, model_path, SEED};
use sage_core::SageModel;
use sage_distill::{SymbolicModel, TreeConfig};
use sage_eval::matrix::{scenarios_fault, scenarios_set12};
use sage_eval::{agreement, harvest, AGREE_TOL_LR};
use std::sync::Arc;

#[test]
fn every_committed_model_and_tree_loads() {
    let dir = artifacts_dir();
    let mut models: Vec<_> = std::fs::read_dir(&dir)
        .expect("artifacts/ is committed")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "model"))
        .collect();
    models.sort();
    assert!(
        models.iter().any(|p| p.ends_with("sage.model")),
        "artifacts/sage.model is committed"
    );
    let mut failures: Vec<String> = models
        .iter()
        .filter_map(|p| {
            let e = SageModel::load_file(p).err()?;
            Some(format!("{}: {e}", p.display()))
        })
        .collect();
    let tree = dir.join("sage.tree");
    if let Err(e) = SymbolicModel::load_file(&tree) {
        failures.push(format!("{}: {e}", tree.display()));
    }
    assert!(
        failures.is_empty(),
        "committed artifacts that do not load:\n{}",
        failures.join("\n")
    );
}

/// The committed policy stays distillable at smoke scale: a depth-6 tree fit
/// on two Set I scenarios plus the clean baseline (3 s each) agrees with the
/// network on held-out clean links it never saw (measured: 96.1%).
#[test]
fn tiny_tree_from_the_committed_model_clears_the_fidelity_floor() {
    let model = Arc::new(SageModel::load_file(&model_path("sage")).expect("sage.model loads"));
    let scenarios = |grid_seed| {
        let mut s = scenarios_set12(2, 0, 3.0, grid_seed);
        s.extend(scenarios_fault(Some(&["clean"]), 3.0));
        s
    };
    let train = harvest(
        &model,
        default_gr(),
        &scenarios(SEED),
        SEED ^ 0xD157_1111,
        0,
    );
    let held = harvest(
        &model,
        default_gr(),
        &scenarios(SEED + 1),
        SEED ^ 0xD157_2222,
        0,
    );
    let cfg = TreeConfig {
        max_depth: 6,
        ..TreeConfig::default()
    };
    let tree = SymbolicModel::fit(&train, &cfg);
    let a = agreement(&tree, &held, AGREE_TOL_LR);
    assert!(a.rows > 0 && a.agree_rate >= 0.80, "{a:?}");
}
