//! Evaluation-matrix gate: a slice of the committed matrix, recomputed.
//!
//! The slice is cut from `matrix_spec` over the committed `sage.model`: one
//! scenario of every family and both 16-packet-buffer Set I cells with the
//! whole roster, and `fair-64flow` without `sage`, whose cell there alone
//! takes 49 s in debug (the release `figures matrix` run of
//! `scripts/check.sh` pins it byte for byte). It runs through `run_matrix`,
//! and then:
//!
//! * every cell must equal the cell of `artifacts/results/EVAL_matrix.json`
//!   with the same (scheme, scenario, seed), field for field;
//! * every scenario's ranking must be the committed one with the schemes the
//!   slice leaves out dropped (`crates/eval/tests/matrix_differential.rs`
//!   proves a cell does not depend on the roster).
//!
//! There is no tolerance. Every quantity is deterministic at any
//! `SAGE_THREADS`, so `scripts/check.sh` runs the gate at two thread counts.
//! A change that moves a cell regenerates the committed report with the
//! command in [`REGEN`].
//!
//! Upstream of every cell, [`every_builder_env_is_pinned_bit_for_bit`] folds
//! each environment the builders make — the three full Set I/II grids and
//! every scenario of `matrix_spec` — into one digest, field by field.

use sage_bench::matrix::matrix_spec;
use sage_bench::{artifacts_dir, learned, sage_model_path, GRID_SECS};
use sage_collector::{set1_flat_grid, set1_step_grid, set2_grid, EnvSpec};
use sage_core::SageModel;
use sage_eval::matrix::{matrix_json, run_matrix, MatrixSpec};
use sage_eval::runner::Contender;
use sage_gr::GrConfig;
use sage_util::{Fnv64, Json};
use std::collections::BTreeSet;
use std::sync::Arc;

const REGEN: &str = "regenerate with: cargo run --release -p sage-bench --bin figures -- matrix";

/// The slice's scenarios that run with the whole roster.
const SCENARIOS: [&str; 8] = [
    "s1-flat-bw12-rtt160-q16",
    "s1-flat-bw24-rtt10-q16",
    "s2-bw12-rtt160-q2",
    "s3-kitchen-sink",
    "cellular-0-cell-7mbps-43ms",
    "adv-467a5511a3",
    "mh-parking-cross",
    "fair-4flow",
];

/// The committed matrix restricted to the scenarios `ids`, without `skip`.
fn pick(spec: &MatrixSpec, ids: &[&str], skip: &[&str]) -> MatrixSpec {
    let slice = MatrixSpec {
        scenarios: spec
            .scenarios
            .iter()
            .filter(|s| ids.contains(&s.id()))
            .cloned()
            .collect(),
        schemes: spec
            .schemes
            .iter()
            .filter(|c| !skip.contains(&c.name()))
            .cloned()
            .collect(),
        ..spec.clone()
    };
    assert_eq!(
        slice.scenarios.len(),
        ids.len(),
        "{ids:?}: not all in matrix_spec"
    );
    slice
}

fn list<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key).and_then(Json::as_arr).unwrap_or(&[])
}

fn text<'a>(json: &'a Json, key: &str) -> &'a str {
    json.get(key).and_then(Json::as_str).unwrap_or("")
}

/// Every way the `runs` (`matrix_json` of slices) disagree with the
/// `committed` report.
fn mismatches(runs: &[Json], committed: &Json) -> Vec<String> {
    let key = |c: &Json| {
        let seed = c.get("seed").map(Json::to_string).unwrap_or_default();
        format!("{}/{}/{seed}", text(c, "scheme"), text(c, "scenario"))
    };
    let mut found = Vec::new();
    for run in runs {
        for cell in list(run, "cells") {
            let id = key(cell);
            let Some(want) = list(committed, "cells").iter().find(|c| key(c) == id) else {
                found.push(format!("{id}: no committed cell"));
                continue;
            };
            let (Json::Obj(want), Json::Obj(got)) = (want, cell) else {
                panic!("{id}: a cell is not an object");
            };
            let fields: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
            for field in fields {
                let [w, g] = [want, got].map(|c| c.get(field).map(Json::to_string));
                if w != g {
                    found.push(format!("{id}: {field} committed {w:?}, computed {g:?}"));
                }
            }
        }
        let schemes: Vec<&str> = list(run, "schemes")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        for rank in list(run, "rankings") {
            let scenario = text(rank, "scenario");
            let order = |r: &Json| -> Vec<String> {
                let names = list(r, "order").iter().filter_map(Json::as_str);
                names
                    .filter(|s| schemes.contains(s))
                    .map(str::to_string)
                    .collect()
            };
            let want = list(committed, "rankings")
                .iter()
                .find(|r| text(r, "scenario") == scenario)
                .map(order);
            if want.as_ref() != Some(&order(rank)) {
                found.push(format!(
                    "{scenario}: ranking committed {want:?}, computed {:?}",
                    order(rank)
                ));
            }
        }
    }
    found
}

fn field<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(map) = json else {
        panic!("not an object at {key}")
    };
    map.get_mut(key).unwrap_or_else(|| panic!("no {key}"))
}

/// The element of the array `json[key]` whose `name` is `value`.
fn entry<'a>(json: &'a mut Json, key: &str, name: &str, value: &str) -> &'a mut Json {
    let Json::Arr(items) = field(json, key) else {
        panic!("{key}: not an array")
    };
    let found = items.iter_mut().find(|e| text(e, name) == value);
    found.unwrap_or_else(|| panic!("{key}: no {name} {value}"))
}

#[test]
fn matrix_slice_matches_the_committed_report() {
    let model = SageModel::load_file(&sage_model_path())
        .expect("artifacts/sage.model is committed; the matrix gate needs it");
    let spec = matrix_spec(learned("sage", Arc::new(model), GrConfig::default()));
    let slices = [
        pick(&spec, &SCENARIOS, &[]),
        pick(&spec, &["fair-64flow"], &["sage"]),
    ];
    let runs: Vec<Json> = slices
        .iter()
        .map(|s| matrix_json(s, &run_matrix(s, |_, _| {})))
        .collect();
    let path = artifacts_dir().join("results/EVAL_matrix.json");
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let committed = Json::parse(&committed).expect("EVAL_matrix.json parses");

    let families: BTreeSet<&str> = runs
        .iter()
        .flat_map(|r| list(r, "cells").iter().map(|c| text(c, "family")))
        .collect();
    let all: BTreeSet<&str> = list(&committed, "families")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(families, all, "the slice misses a family");

    let found = mismatches(&runs, &committed);
    assert!(
        found.is_empty(),
        "the evaluation matrix no longer computes the committed report \
         ({} mismatches); {REGEN}\n{}",
        found.len(),
        found.join("\n")
    );

    // Negative controls. A swapped committed ranking is caught...
    let mut swapped = committed.clone();
    let rank = entry(&mut swapped, "rankings", "scenario", SCENARIOS[0]);
    let Json::Arr(order) = field(rank, "order") else {
        panic!("order: not an array")
    };
    order.swap(0, 1);
    let caught = mismatches(&runs, &swapped);
    assert_eq!(caught.len(), 1, "{caught:?}");
    assert!(caught[0].starts_with(&format!("{}: ranking", SCENARIOS[0])));

    // ...and so is the least change to one committed cell field.
    let mut nudged = committed.clone();
    let Json::Arr(cells) = field(&mut nudged, "cells") else {
        panic!("cells: not an array")
    };
    let cell = cells
        .iter_mut()
        .find(|c| text(c, "scheme") == "sage" && text(c, "scenario") == SCENARIOS[1])
        .expect("committed sage cell");
    let Json::Num(goodput) = field(cell, "goodput_mbps") else {
        panic!("goodput_mbps: not a number")
    };
    *goodput = f64::from_bits(goodput.to_bits() + 1);
    let caught = mismatches(&runs, &nudged);
    assert_eq!(caught.len(), 1, "{caught:?}");
    assert!(
        caught[0].starts_with(&format!("sage/{}/2023: goodput_mbps", SCENARIOS[1])),
        "{caught:?}"
    );
}

/// Every field of `env` into `h`: numbers by their bits, the nested link,
/// AQM, fault and topology values by their `Debug` text, which prints each
/// `f64` in its shortest round-trip form and so is exact too.
fn fold_env(h: &mut Fnv64, env: &EnvSpec) {
    let EnvSpec {
        id,
        set,
        link,
        rtt_ms,
        buffer_bytes,
        aqm,
        random_loss,
        duration,
        competing_cubic,
        test_flow_start,
        capacity_mbps,
        seed,
        faults,
        topology,
        self_flows,
        self_stagger,
    } = env;
    for text in [
        id.clone(),
        format!("{set:?}"),
        format!("{link:?}"),
        format!("{aqm:?}"),
        format!("{faults:?}"),
        format!("{topology:?}"),
    ] {
        h.write_u64(text.len() as u64);
        h.write(text.as_bytes());
    }
    for x in [*rtt_ms, *random_loss, *capacity_mbps] {
        h.write_f64(x);
    }
    for n in [
        *buffer_bytes,
        *duration,
        *competing_cubic as u64,
        *test_flow_start,
        *seed,
        *self_flows as u64,
        *self_stagger,
    ] {
        h.write_u64(n);
    }
}

#[test]
fn every_builder_env_is_pinned_bit_for_bit() {
    let secs = GRID_SECS as f64;
    let mut envs = set1_flat_grid(secs);
    envs.extend(set1_step_grid(secs));
    envs.extend(set2_grid(secs));
    let spec = matrix_spec(Contender::Heuristic("cubic"));
    envs.extend(spec.scenarios.into_iter().map(|s| s.env));
    let mut h = Fnv64::new();
    for env in &envs {
        fold_env(&mut h, env);
    }
    assert_eq!(envs.len(), 411);
    assert_eq!(
        h.finish(),
        0xa1f1_1e37_4b27_1e20,
        "an environment builder changed its output"
    );
}
