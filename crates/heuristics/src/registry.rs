//! Name-based construction of every heuristic scheme, and the canonical
//! lists used by the Policy Collector and the league experiments.

use crate::*;
use sage_transport::CongestionControl;

/// The 13 kernel schemes forming Sage's pool of policies (paper §5).
pub const POOL_SCHEMES: [&str; 13] = [
    "westwood",
    "cubic",
    "vegas",
    "yeah",
    "bbr2",
    "newreno",
    "illinois",
    "veno",
    "highspeed",
    "cdg",
    "htcp",
    "bic",
    "hybla",
];

/// The delay-based league of §6.3 (Sage is added by the caller).
pub fn delay_league_names() -> Vec<&'static str> {
    vec!["bbr2", "copa", "c2tcp", "ledbat", "vegas", "sprout"]
}

/// Names of all pool schemes.
pub fn pool_names() -> Vec<&'static str> {
    POOL_SCHEMES.to_vec()
}

/// Construct a scheme by name. `seed` feeds stochastic schemes (CDG).
/// Returns `None` for unknown names.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn CongestionControl>> {
    Some(match name {
        "newreno" => Box::new(newreno::NewReno::new()),
        "cubic" => Box::new(cubic::Cubic::new()),
        "bic" => Box::new(bic::Bic::new()),
        "vegas" => Box::new(vegas::Vegas::new()),
        "westwood" => Box::new(westwood::Westwood::new()),
        "yeah" => Box::new(yeah::Yeah::new()),
        "bbr2" => Box::new(bbr::Bbr::new()),
        "illinois" => Box::new(illinois::Illinois::new()),
        "veno" => Box::new(veno::Veno::new()),
        "highspeed" => Box::new(highspeed::HighSpeed::new()),
        "cdg" => Box::new(cdg::Cdg::new(seed)),
        "htcp" => Box::new(htcp::Htcp::new()),
        "hybla" => Box::new(hybla::Hybla::new()),
        "copa" => Box::new(copa::Copa::new()),
        "ledbat" => Box::new(ledbat::Ledbat::new()),
        "c2tcp" => Box::new(c2tcp::C2tcp::new()),
        "sprout" => Box::new(sprout::Sprout::new()),
        "vivace" => Box::new(vivace::Vivace::new()),
        "tick-aimd" => Box::new(fallback::TickAimd::new()),
        // The distilled symbolic policy: available once a tree fitted in
        // this process is installed. Deterministic, so `seed` is unused.
        "sage-sym" => {
            let tree = sage_distill::installed()?;
            Box::new(sage_distill::SymbolicPolicy::new(
                tree,
                sage_gr::GrConfig::default(),
            ))
        }
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pool_schemes_build() {
        for name in POOL_SCHEMES {
            let cca = build(name, 1).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(cca.name(), name);
            assert!(cca.cwnd_pkts() >= 2.0);
        }
    }

    #[test]
    fn delay_league_builds() {
        for name in delay_league_names() {
            assert!(build(name, 1).is_some(), "missing {name}");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(build("nonsense", 1).is_none());
    }
}
