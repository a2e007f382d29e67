//! `perf_ledger` — the repo's benchmark.
//!
//! Two ways to call it:
//!
//! * `perf_ledger --workload W --seed N --seconds S --trace 0|1` runs one
//!   workload (`pipeline`, or `layers` with its four parts in turn) once
//!   and prints, as the last line of standard output, one JSON
//!   object with `correct`, `attempted`, `failed` and `metrics` (the
//!   end-to-end metrics untraced, the per-layer metrics traced).
//! * `perf_ledger [--seed N] [--seconds S] [--trace]` runs the whole suite:
//!   `ROUNDS` rounds interleaved over the two workloads, one child process
//!   at a time, medians and quartiles over rounds, every check, and a
//!   non-zero exit if any check failed.
//!
//! See `benchmark/README.md` for what is measured and why.

mod ledger;
mod probes;
mod run;
mod span;
mod stats;
mod suite;
mod workloads;

use workloads::Scale;

/// Seconds one run measures; `BENCHMARK.json` records the same number.
pub const RUN_SECONDS: f64 = 50.0;
/// Runs of each workload in the suite; its medians are over this many.
pub const ROUNDS: usize = 3;
pub const DEFAULT_SEED: u64 = 2023;

pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: Option<String>,
    pub append_history: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf_ledger [--workload {}] [--seed N] [--seconds S] [--trace [0|1]]\n\
         \x20                  [--smoke] [--out FILE] [--append-history]",
        workloads::WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_cli(args: &[String]) -> Cli {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
        append_history: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("{arg} needs {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")),
            "--seed" => cli.seed = value("a number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => cli.seconds = value("a number").parse().unwrap_or_else(|_| usage()),
            "--out" => cli.out = Some(value("a file")),
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or bare `--trace`.
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--append-history" => cli.append_history = true,
            _ => usage(),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        usage();
    }
    cli
}

/// Run one workload in this process and print its result line last.
fn child(cli: &Cli, workload: &str) -> i32 {
    let args = run::Args {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: if cli.smoke { Scale::SMOKE } else { Scale::FULL },
    };
    let result = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return 1;
        }
    };
    if cli.trace {
        let path = suite::out_dir().join(format!("trace_{workload}.json"));
        let body = sage_util::Json::obj(vec![
            ("workload", sage_util::Json::str(workload)),
            ("seed", sage_util::Json::Num(cli.seed as f64)),
            ("spans", span::spans_json(&result.spans)),
        ]);
        if let Err(e) = suite::write_file(&path, &body.to_string()) {
            eprintln!("perf_ledger: {e}");
            return 1;
        }
        println!("trace: {} spans -> {}", result.spans.len(), path.display());
    }
    for (name, value, unit) in &result.metrics {
        println!("{workload:<10} {name:<34} {value:>16.4} {unit}");
    }
    if let Some(v) = result.detail.get("violations").and_then(|v| v.as_arr()) {
        for msg in v {
            println!("VIOLATION: {}", msg.as_str().unwrap_or("?"));
        }
    }
    println!("#detail {}", result.detail);
    println!("{}", result.result_line());
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_cli(&args);
    let code = match cli.workload.clone() {
        Some(w) => child(&cli, &w),
        None => suite::run(&cli),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Cli {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let c = cli(&[
            "--workload",
            "layers",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]);
        assert_eq!(c.workload.as_deref(), Some("layers"));
        assert_eq!((c.seed, c.seconds, c.trace), (9, 3.0, false));
        assert!(cli(&["--workload", "layers", "--trace", "1"]).trace);
    }

    #[test]
    fn suite_arguments_parse() {
        let c = cli(&["--trace", "--smoke", "--append-history"]);
        assert!(c.trace && c.smoke && c.append_history);
        assert_eq!((c.workload, c.seed), (None, DEFAULT_SEED));
        assert_eq!(cli(&[]).seconds, RUN_SECONDS);
    }
}
