//! Symbolic policy distillation (ROADMAP item 4, after Sharan et al.,
//! "Symbolic Distillation for Learned TCP Congestion Control").
//!
//! The trained GRU+GMM policy costs a matrix forward per action; a depth-10
//! regression tree costs ~10 float compares. This crate fits a CART-style
//! tree to the policy's mean action over the raw 69-dim GR state
//! ([`tree::SymbolicModel`]) and deploys it as [`policy::SymbolicPolicy`] —
//! a `CongestionControl` implementation that registers in `sage-heuristics`
//! under the name `"sage-sym"` once [`install`]ed, and serves as the fast
//! tier of the `sage-serve` runtime. A tree lives only in the process that
//! fitted it; nothing reads one from disk. The tree's outputs are raw
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

static INSTALLED: RwLock<Option<Arc<SymbolicModel>>> = RwLock::new(None);

/// Install a fitted tree as the process-wide symbolic policy, so
/// `sage_heuristics::build("sage-sym", seed)` can construct
/// [`SymbolicPolicy`] instances from it.
pub fn install(model: Arc<SymbolicModel>) {
    *INSTALLED.write().unwrap_or_else(|e| e.into_inner()) = Some(model);
}

/// The currently installed tree, if any; with none, `build("sage-sym", _)`
/// reports the scheme as unknown.
pub fn installed() -> Option<Arc<SymbolicModel>> {
    INSTALLED.read().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_resolve_round_trip() {
        let ds = Dataset::from_rows(2, vec![(vec![0.0, 1.0], 1.0), (vec![1.0, 0.0], -1.0)]);
        let m = Arc::new(SymbolicModel::fit(&ds, &TreeConfig::default()));
        install(m.clone());
        let got = installed().expect("the installed tree");
        assert_eq!(got.digest(), m.digest());
    }
}
