//! The whole benchmark in one command: rounds interleaved over the two
//! workloads, one child process per (workload, round) so that the host's
//! slow periods spread evenly over workloads, each child's peak memory is
//! its own, and a crashed child is a failed check rather than a dead run.

use crate::ledger::{END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::WORKLOADS;
use crate::{Cli, ROUNDS};
use sage_util::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where runs leave their files. Nothing is written outside the package.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

pub fn write_file(path: &Path, body: &str) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, body)
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(package_dir())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Facts a number cannot be compared without.
fn host_facts() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // The level `sage_nn::infer::matmul` dispatches to: it takes the widest
    // of these that the CPU reports.
    #[cfg(target_arch = "x86_64")]
    let simd = if is_x86_feature_detected!("avx512f") {
        "avx512f"
    } else if is_x86_feature_detected!("avx2") {
        "avx2"
    } else {
        "scalar"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let simd = "scalar";
    let or_unknown = |s: Option<String>| Json::str(s.unwrap_or_else(|| "unknown".into()));
    Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("cpu", Json::str(cpu)),
        ("simd", Json::str(simd)),
        ("rustc", or_unknown(command_line("rustc", &["--version"]))),
        (
            "commit",
            or_unknown(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

struct ChildOut {
    result: Json,
    detail: Json,
}

impl ChildOut {
    /// The child's violated checks, if it reported any.
    fn failed_checks(&self) -> Option<String> {
        (self.result.get("correct").and_then(Json::as_bool) != Some(true)).then(|| {
            format!(
                "checks failed: {}",
                self.detail.get("violations").unwrap_or(&Json::Null)
            )
        })
    }
}

/// Run one workload in a child process and parse its last two lines.
fn spawn(cli: &Cli, workload: &str, trace: bool) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let parse = |line: Option<&str>, what: &str| {
        line.and_then(|l| Json::parse(l.trim_start_matches("#detail ")).ok())
            .ok_or_else(|| format!("{workload}: child printed no {what}"))
    };
    let result = parse(lines.next(), "result line")?;
    let detail = parse(lines.next(), "detail line")?;
    Ok(ChildOut { result, detail })
}

fn metric_of(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn summary(xs: &[f64], unit: &str) -> Json {
    let (q1, q3) = stats::quartiles(xs);
    Json::obj(vec![
        ("median", Json::Num(stats::median(xs))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("min", Json::Num(stats::min(xs))),
        ("max", Json::Num(stats::max(xs))),
        ("spread", Json::Num(stats::iqr_share(xs))),
        ("n", Json::Num(xs.len() as f64)),
        ("unit", Json::str(unit)),
    ])
}

pub fn run(cli: &Cli) -> i32 {
    let facts = host_facts();
    println!(
        "perf_ledger: seed {} rounds {} x {} s per workload",
        cli.seed, ROUNDS, cli.seconds
    );
    println!("host: {facts}");
    let mut problems: Vec<String> = Vec::new();

    // Untraced rounds, interleaved: round 0 of every workload, then round 1, ...
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut digests: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut ops: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for round in 0..ROUNDS {
        for w in WORKLOADS {
            match spawn(cli, w, false) {
                Ok(c) => {
                    for m in &END_TO_END {
                        match metric_of(&c.result, m.name) {
                            Some(v) if v.is_finite() => {
                                values.entry((w, m.name)).or_default().push(v)
                            }
                            _ => problems.push(format!("{w} round {round}: no {}", m.name)),
                        }
                    }
                    if let Some(msg) = c.failed_checks() {
                        problems.push(format!("{w} round {round}: {msg}"));
                    }
                    let num = |k: &str| c.result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    let e = ops.entry(w).or_default();
                    e.0 += num("attempted");
                    e.1 += num("failed");
                    let digest = c.detail.get("digest").and_then(Json::as_str).unwrap_or("?");
                    digests.entry(w).or_default().push(digest.to_string());
                    eprintln!(
                        "round {round} {w}: wall_s {:?}",
                        metric_of(&c.result, "wall_s")
                    );
                }
                Err(e) => problems.push(e),
            }
        }
    }

    println!(
        "\n{:<10}{:<21}{:<6}{:<7}{:<6}{:>14}{:>14}{:>14}{:>14}{:>3}",
        "workload", "metric", "unit", "better", "bound", "median", "q1", "q3", "min", "n"
    );
    let mut end_to_end = BTreeMap::new();
    for w in WORKLOADS {
        let mut per_metric = BTreeMap::new();
        for m in &END_TO_END {
            let xs = values.get(&(w, m.name)).cloned().unwrap_or_default();
            let (q1, q3) = stats::quartiles(&xs);
            println!(
                "{w:<10}{:<21}{:<6}{:<7}{:<6}{:>14.4}{q1:>14.4}{q3:>14.4}{:>14.4}{:>3}",
                m.name,
                m.unit,
                m.better,
                m.bound,
                stats::median(&xs),
                stats::min(&xs),
                xs.len()
            );
            per_metric.insert(m.name.to_string(), summary(&xs, m.unit));
        }
        let ds = digests.get(w).cloned().unwrap_or_default();
        if ds.iter().any(|d| *d != ds[0]) {
            problems.push(format!("{w}: output digest differs between rounds: {ds:?}"));
        }
        let (attempted, failed) = ops.get(w).copied().unwrap_or_default();
        println!(
            "{w:<10}fail_share {:.6} ({failed} of {attempted} operations)  digest {}",
            failed / attempted.max(1.0),
            ds.first().map_or("?", String::as_str)
        );
        per_metric.insert(
            "digest".into(),
            Json::str(ds.first().cloned().unwrap_or_default()),
        );
        per_metric.insert("attempted".into(), Json::Num(attempted));
        per_metric.insert("failed".into(), Json::Num(failed));
        end_to_end.insert(w.to_string(), Json::Obj(per_metric));
    }

    // One traced run per workload for the per-layer table.
    let mut per_layer = BTreeMap::new();
    if cli.trace {
        let mut columns: Vec<ChildOut> = Vec::new();
        for w in WORKLOADS {
            match spawn(cli, w, true) {
                Ok(c) => {
                    if let Some(msg) = c.failed_checks() {
                        problems.push(format!("{w} traced: {msg}"));
                    }
                    columns.push(c);
                }
                Err(e) => problems.push(e),
            }
        }
        if columns.len() == WORKLOADS.len() {
            print!("\n{:<34}{:<9}{:<7}", "per-layer metric", "unit", "better");
            for w in WORKLOADS {
                print!("{w:>14}");
            }
            println!();
            for m in &PER_LAYER {
                print!("{:<34}{:<9}{:<7}", m.name, m.unit, m.better);
                for c in &columns {
                    print!("{:>14.4}", metric_of(&c.result, m.name).unwrap_or(f64::NAN));
                }
                println!();
            }
            for (w, c) in WORKLOADS.iter().zip(&columns) {
                let metrics = c.result.get("metrics").cloned().unwrap_or(Json::Null);
                let row = Json::obj(vec![("metrics", metrics), ("detail", c.detail.clone())]);
                per_layer.insert(w.to_string(), row);
            }
            if let Some(probes) = columns[0].detail.get("probes").and_then(Json::as_arr) {
                println!("\nprobe notes (min of N; cv over the N):");
                for p in probes {
                    let s = |k: &str| p.get(k).and_then(Json::as_str).unwrap_or("");
                    let n = |k: &str| p.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                    println!(
                        "  {:<34} cv {:.3} n {:<4} {}",
                        s("name"),
                        n("cv"),
                        n("reps"),
                        s("note")
                    );
                }
            }
        }
    }

    let report = Json::obj(vec![
        ("suite", Json::str("perf_ledger")),
        ("host", facts),
        ("seed", Json::Num(cli.seed as f64)),
        ("rounds", Json::Num(ROUNDS as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("smoke", Json::Bool(cli.smoke)),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
    ]);
    if let Some(out) = &cli.out {
        match write_file(Path::new(out), &format!("{report}\n")) {
            Ok(()) => println!("\nreport: {out}"),
            Err(e) => problems.push(e),
        }
    }
    if cli.append_history {
        if let Err(e) = append_history(&report) {
            problems.push(e);
        }
    }

    for p in &problems {
        println!("FAILED: {p}");
    }
    if problems.is_empty() {
        println!("\nall checks passed");
        0
    } else {
        1
    }
}

/// One JSONL row per suite run: commit, host facts, every end-to-end
/// median with its quartiles.
fn append_history(report: &Json) -> Result<(), String> {
    let keep = ["host", "seed", "rounds", "seconds", "smoke", "end_to_end"];
    let row = Json::obj(
        keep.iter()
            .map(|k| (*k, report.get(k).cloned().unwrap_or(Json::Null)))
            .collect(),
    );
    let path = package_dir().join("history.jsonl");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open {}: {e}", path.display()))?;
    writeln!(f, "{row}").map_err(|e| format!("append {}: {e}", path.display()))?;
    println!("history: appended to {}", path.display());
    Ok(())
}
