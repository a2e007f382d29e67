//! Regenerate the paper's figures and tables under `artifacts/results/`:
//! `figures` runs every row of [`sage_bench::figures::TABLE`], `figures
//! <id>...` the named ones, `figures --list` prints the table. Each output is
//! indexed in `MANIFEST.json` with the artifacts and knobs that produced it;
//! the exit status is non-zero if any figure failed.

use sage_bench::figures::{list, Figure, TABLE};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print!("{}", list());
        return;
    }
    let named = |id: &String| {
        TABLE.iter().find(|f| f.id == id).unwrap_or_else(|| {
            let ids: Vec<_> = TABLE.iter().map(|f| f.id).collect();
            eprintln!("error: no figure {id:?}; one of {}", ids.join(" "));
            std::process::exit(2)
        })
    };
    let figs: Vec<&'static Figure> = match args.as_slice() {
        [] => TABLE.iter().collect(),
        ids => ids.iter().map(named).collect(),
    };
    let failed = sage_bench::ctx::run_figures(&sage_bench::artifacts_dir(), &figs);
    sage_obs::flush_trace();
    if failed > 0 {
        eprintln!("{failed} of {} figures FAILED", figs.len());
        std::process::exit(1);
    }
}
