//! Every committed artifact must load with the loaders this tree ships: a
//! model or tree that sits under `artifacts/` but fails to parse silently
//! breaks whichever figure bin reaches for it next.

use sage_bench::artifacts_dir;
use sage_core::SageModel;
use sage_distill::SymbolicModel;

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
