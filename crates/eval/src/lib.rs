//! Evaluation machinery: the score/winner/winning-rate terminology of §5.1
//! and Appendix D, the evaluation matrix — [`run_matrix`] is the one runner
//! that rolls a [`Contender`] through an environment; leagues, the Set III
//! summary and the adversarial search are views over its cells — the cosine
//! Distance/Similarity metrics of §7.1/§7.2, and a small exact t-SNE for
//! Fig. 16.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod adversary;
pub mod distill;
pub mod league;
pub mod matrix;
pub mod runner;
pub mod score;
pub mod set3;
pub mod similarity;
pub mod tsne;

pub use distill::{agreement, harvest, Agreement, AGREE_TOL_LR};

pub use adversary::{
    decode, evaluate_candidate, genome_digest, report_json, search, AdvConfig, AdvOutcome,
    AdvReport, GENOME_DIM,
};
pub use league::{rank_league, LeagueEntry};
pub use matrix::{
    league_scores, matrix_json, rankings, run_matrix, scenario_fairness, scenarios_adversarial,
    scenarios_fault, scenarios_internet, scenarios_multihop, scenarios_set12, Family, MatrixCell,
    MatrixReport, MatrixSpec, ScenarioRank, ScenarioSpec,
};
pub use runner::Contender;
pub use score::{interval_scores, jain_fairness, RunScore, ScoreKind};
pub use set3::{scenario_grid, summarise, FaultScenario, Set3Summary};
pub use similarity::{cosine_distance, cosine_similarity, transition_vectors, DistanceIndex};
