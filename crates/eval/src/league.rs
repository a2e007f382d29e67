//! Winners and winning rates (Appendix D): in every (environment, interval)
//! cell, all schemes within the winning margin of the best score are
//! winners; a scheme's winning rate is its wins over the total number of
//! cells; leagues are ranked by winning rate.

use crate::score::{RunScore, ScoreKind};
use std::collections::BTreeMap;

/// One row of a league table.
#[derive(Debug, Clone, PartialEq)]
pub struct LeagueEntry {
    pub scheme: String,
    pub winning_rate: f64,
    pub wins: usize,
    pub cells: usize,
}

/// Scores contending in one (environment, interval) cell.
type CellEntries = Vec<(String, f64, ScoreKind)>;

/// Rank schemes by winning rate. `margin` is the winner tolerance (0.10 for
/// the default 10% rule, 0.05 for Appendix D.2's tighter margin).
pub fn rank_league(scores: &[RunScore], margin: f64) -> Vec<LeagueEntry> {
    // env -> interval -> (scheme, score, kind)
    let mut cells: BTreeMap<(String, usize), CellEntries> = BTreeMap::new();
    for rs in scores {
        for (i, &s) in rs.intervals.iter().enumerate() {
            cells
                .entry((rs.env_id.clone(), i))
                .or_default()
                .push((rs.scheme.clone(), s, rs.kind));
        }
    }
    let mut wins: BTreeMap<String, usize> = BTreeMap::new();
    let mut totals: BTreeMap<String, usize> = BTreeMap::new();
    for ((_env, _i), entries) in &cells {
        let kind = entries[0].2;
        let winners: Vec<&String> = match kind {
            ScoreKind::Power => {
                let best = entries
                    .iter()
                    .map(|e| e.1)
                    .fold(f64::NEG_INFINITY, f64::max);
                entries
                    .iter()
                    .filter(|e| e.1 >= best * (1.0 - margin) && best > 0.0)
                    .map(|e| &e.0)
                    .collect()
            }
            ScoreKind::Friendliness => {
                let best = entries.iter().map(|e| e.1).fold(f64::INFINITY, f64::min);
                // "at most margin worse than the best": multiplicative with a
                // small absolute tolerance so a perfect 0.0 does not make the
                // margin empty.
                let tol = best * (1.0 + margin) + 0.05;
                entries
                    .iter()
                    .filter(|e| e.1 <= tol)
                    .map(|e| &e.0)
                    .collect()
            }
        };
        for (scheme, _, _) in entries {
            *totals.entry(scheme.clone()).or_default() += 1;
        }
        for w in winners {
            *wins.entry(w.clone()).or_default() += 1;
        }
    }
    let mut out: Vec<LeagueEntry> = totals
        .into_iter()
        .map(|(scheme, cells)| {
            let w = wins.get(&scheme).copied().unwrap_or(0);
            LeagueEntry {
                winning_rate: w as f64 / cells as f64,
                wins: w,
                cells,
                scheme,
            }
        })
        .collect();
    // total_cmp orders identically to partial_cmp on the finite rates
    // produced above, without a panic path for NaN.
    out.sort_by(|a, b| b.winning_rate.total_cmp(&a.winning_rate));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(scheme: &str, env: &str, kind: ScoreKind, intervals: Vec<f64>) -> RunScore {
        RunScore {
            scheme: scheme.into(),
            env_id: env.into(),
            kind,
            intervals,
        }
    }

    #[test]
    fn single_clear_winner() {
        let scores = vec![
            rs("a", "e1", ScoreKind::Power, vec![10.0, 10.0]),
            rs("b", "e1", ScoreKind::Power, vec![5.0, 5.0]),
        ];
        let table = rank_league(&scores, 0.10);
        assert_eq!(table[0].scheme, "a");
        assert_eq!(table[0].winning_rate, 1.0);
        assert_eq!(table[1].winning_rate, 0.0);
    }

    #[test]
    fn margin_allows_ties() {
        let scores = vec![
            rs("a", "e1", ScoreKind::Power, vec![10.0]),
            rs("b", "e1", ScoreKind::Power, vec![9.5]),
            rs("c", "e1", ScoreKind::Power, vec![8.0]),
        ];
        let table = rank_league(&scores, 0.10);
        let get = |n: &str| table.iter().find(|e| e.scheme == n).unwrap().winning_rate;
        assert_eq!(get("a"), 1.0);
        assert_eq!(get("b"), 1.0, "within 10% of best");
        assert_eq!(get("c"), 0.0);
    }

    #[test]
    fn tighter_margin_drops_marginal_winner() {
        let scores = vec![
            rs("a", "e1", ScoreKind::Power, vec![10.0]),
            rs("b", "e1", ScoreKind::Power, vec![9.3]),
        ];
        assert_eq!(rank_league(&scores, 0.10)[1].winning_rate, 1.0);
        let tight = rank_league(&scores, 0.05);
        let b = tight.iter().find(|e| e.scheme == "b").unwrap();
        assert_eq!(b.winning_rate, 0.0);
    }

    #[test]
    fn friendliness_lower_is_better() {
        let scores = vec![
            rs("polite", "e1", ScoreKind::Friendliness, vec![0.5]),
            rs("hog", "e1", ScoreKind::Friendliness, vec![12.0]),
        ];
        let table = rank_league(&scores, 0.10);
        assert_eq!(table[0].scheme, "polite");
        assert_eq!(table[0].winning_rate, 1.0);
        assert_eq!(table[1].winning_rate, 0.0);
    }

    #[test]
    fn rate_counts_intervals_across_envs() {
        let scores = vec![
            rs("a", "e1", ScoreKind::Power, vec![10.0, 1.0]),
            rs("b", "e1", ScoreKind::Power, vec![1.0, 10.0]),
            rs("a", "e2", ScoreKind::Power, vec![10.0, 10.0]),
            rs("b", "e2", ScoreKind::Power, vec![1.0, 1.0]),
        ];
        let table = rank_league(&scores, 0.10);
        let a = table.iter().find(|e| e.scheme == "a").unwrap();
        let b = table.iter().find(|e| e.scheme == "b").unwrap();
        assert_eq!(a.cells, 4);
        assert_eq!(a.wins, 3);
        assert_eq!(b.wins, 1);
    }
}
