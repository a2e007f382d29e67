//! Symbolic policy distillation (ROADMAP item 4, after Sharan et al.,
//! "Symbolic Distillation for Learned TCP Congestion Control").
//!
//! The trained GRU+GMM policy costs a matrix forward per action; a depth-10
//! regression tree costs ~10 float compares. This crate fits a CART-style
//! tree to the policy's mean action over the raw 69-dim GR state
//! ([`tree::SymbolicModel`]), serialises it as a CRC-footered artifact
//! (same crash-safety contract as the model format), and deploys it as
//! [`policy::SymbolicPolicy`] — a `CongestionControl` implementation that
//! registers in `sage-heuristics` under the name `"sage-sym"` and serves as
//! the fast tier of the `sage-serve` runtime. The tree's outputs are raw
//! scaled-unit actions; bounding and enforcing them is the Execution
//! block's job (`sage_gr::action`), shared with the neural policy.
//!
//! Everything here is deterministic by construction: fitting breaks ties by
//! (feature index, threshold bits), inference is pure float compares, and
//! there is no wall-clock, no hashing and no ambient entropy anywhere.
//!
//! The crate deliberately depends only on `util`/`netsim`/`transport`/`gr`
//! (not on `core`/`collector`), so `sage-heuristics` can link it without a
//! dependency cycle; the dataset-harvesting glue that needs the neural model
//! lives in `sage-eval::distill`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod dataset;
pub mod policy;
pub mod tree;

pub use dataset::Dataset;
pub use policy::SymbolicPolicy;
pub use tree::{SymbolicModel, TreeConfig};

use std::sync::{Arc, RwLock};

/// Registry name of the distilled scheme.
pub const SYMBOLIC_SCHEME: &str = "sage-sym";

/// Default on-disk location of the distilled tree, relative to the
/// workspace root (`distill_report` writes it, the registry loads it).
pub const DEFAULT_TREE_FILE: &str = "artifacts/sage.tree";

static INSTALLED: RwLock<Option<Arc<SymbolicModel>>> = RwLock::new(None);

/// Install a fitted tree as the process-wide symbolic policy, so
/// `sage_heuristics::build("sage-sym", seed)` can construct
/// [`SymbolicPolicy`] instances without a filesystem round-trip (used by
/// `distill_report` right after fitting, and by tests).
pub fn install(model: Arc<SymbolicModel>) {
    *INSTALLED.write().unwrap_or_else(|e| e.into_inner()) = Some(model);
}

/// The currently installed tree, if any.
pub fn installed() -> Option<Arc<SymbolicModel>> {
    INSTALLED.read().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Resolve the symbolic policy's tree: the installed one, else a load from
/// `SAGE_TREE` (explicit path), else the committed `artifacts/sage.tree`.
/// A successful disk load installs the tree so later calls are free.
/// Returns `None` when no servable tree exists anywhere (a file tree must
/// read the `STATE_DIM`-wide GR state) — `build("sage-sym", _)` then
/// reports the scheme as unknown.
pub fn resolve() -> Option<Arc<SymbolicModel>> {
    if let Some(m) = installed() {
        return Some(m);
    }
    let candidates: Vec<std::path::PathBuf> = match sage_util::env_cfg::tree() {
        Some(p) => vec![std::path::PathBuf::from(p)],
        // Anchor on the workspace root (this crate sits at crates/distill)
        // so the lookup works from any test/bin working directory.
        None => vec![
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts/sage.tree"),
            std::path::PathBuf::from(DEFAULT_TREE_FILE),
        ],
    };
    for path in candidates {
        if let Some(m) = load_servable(&path) {
            let m = Arc::new(m);
            install(m.clone());
            return Some(m);
        }
    }
    None
}

/// The tree at `path`, if it loads and reads the GR state `sage-sym`
/// feeds it. A tree of another `dim` would index past the state on its
/// first tick, so it is refused with a warning.
fn load_servable(path: &std::path::Path) -> Option<SymbolicModel> {
    let m = SymbolicModel::load_file(path).ok()?;
    if m.dim != sage_gr::STATE_DIM {
        eprintln!(
            "[WARN] {}: the tree reads {} features but the GR state has {}; not serving it",
            path.display(),
            m.dim,
            sage_gr::STATE_DIM
        );
        return None;
    }
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_resolve_round_trip() {
        let ds = Dataset::from_rows(2, vec![(vec![0.0, 1.0], 1.0), (vec![1.0, 0.0], -1.0)]);
        let m = Arc::new(SymbolicModel::fit(&ds, &TreeConfig::default()));
        install(m.clone());
        let got = resolve().expect("installed tree resolves");
        assert_eq!(got.digest(), m.digest());
    }

    #[test]
    fn a_tree_of_another_dim_is_not_served() {
        // The target is the last feature's sign, so the root splits on it:
        // feature 99 of a 100-wide tree is past the 69-wide state.
        let tree_of = |dim: usize| {
            let mut rng = sage_util::Rng::new(dim as u64);
            let mut ds = Dataset::new(dim);
            for _ in 0..256 {
                let x: Vec<f64> = (0..dim).map(|_| rng.range(-1.0, 1.0)).collect();
                ds.push(&x, f64::from(u8::from(x[dim - 1] > 0.0)));
            }
            SymbolicModel::fit(&ds, &TreeConfig::default())
        };
        let dir = std::env::temp_dir();
        for (dim, served) in [
            (100, false),
            (sage_gr::STATE_DIM - 1, false),
            (sage_gr::STATE_DIM, true),
        ] {
            let tree = tree_of(dim);
            assert_eq!(tree.nodes[0].feat as usize, dim - 1);
            let path = dir.join(format!("sage_resolve_dim_{dim}.tree"));
            tree.save_file(&path).expect("tree saves");
            assert_eq!(load_servable(&path).is_some(), served, "dim {dim}");
            std::fs::remove_file(&path).ok();
        }
    }
}
