//! Every committed artifact must load with the loaders this tree ships: a
//! model that sits under `artifacts/` but fails to parse silently breaks
//! whichever figure bin reaches for it next.

use sage_bench::{artifacts_dir, pool, sage_model_path, SEED};
use sage_collector::Pool;
use sage_core::SageModel;
use sage_distill::{SymbolicModel, TreeConfig};
use sage_eval::matrix::{scenarios_fault, scenarios_set12};
use sage_eval::{agreement, harvest, jain_fairness, AGREE_TOL_LR};
use sage_gr::GrConfig;
use sage_netsim::ManyFlowScenario;
use sage_serve::{run_many_flow, ServeConfig, ServeMode};
use std::sync::Arc;

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
    let failures: Vec<String> = models
        .iter()
        .filter_map(|p| {
            let e = SageModel::load_file(p).err()?;
            Some(format!("{}: {e}", p.display()))
        })
        .collect();
    assert!(
        failures.is_empty(),
        "committed artifacts that do not load:\n{}",
        failures.join("\n")
    );
}

/// The loaders and the writer agree on the committed bytes: `pool.bin` and
/// `sage.model`, loaded and saved again through the checked writer, come out
/// byte-identical, footer included.
#[test]
fn committed_artifacts_re_save_byte_identically() {
    let dir = artifacts_dir();
    let tmp = std::env::temp_dir().join(format!("sage_resave_{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let resave = |file: &str, save: &dyn Fn(&std::path::Path) -> std::io::Result<()>| {
        let out = tmp.join(file);
        save(&out).unwrap_or_else(|e| panic!("{file}: {e}"));
        let (was, now) = (std::fs::read(dir.join(file)), std::fs::read(&out));
        assert!(
            was.expect("committed bytes") == now.expect("re-saved bytes"),
            "{file} re-saves to other bytes"
        );
    };
    let pool = Pool::load_file(&dir.join("pool.bin")).expect("pool.bin loads");
    resave("pool.bin", &|p| pool.save_file(p));
    let model = SageModel::load_file(&dir.join("sage.model")).expect("sage.model loads");
    resave("sage.model", &|p| model.save_file(p));
    std::fs::remove_dir_all(&tmp).ok();
}

/// The coded states of the fixture take at most 45% of their f32 bytes
/// (measured: 41.3%): a change to the codec, or to what the GR unit records,
/// that loses the saving fails here.
#[test]
fn committed_pool_codes_its_states_in_at_most_45_percent_of_their_f32_bytes() {
    let pool = Pool::load_file(&artifacts_dir().join("pool.bin")).expect("pool.bin loads");
    let coded: usize = pool
        .trajectories
        .iter()
        .map(|t| t.states.coded_bytes())
        .sum();
    let plain = pool.total_steps() * sage_gr::STATE_DIM * 4;
    let share = coded as f64 / plain as f64;
    eprintln!(
        "coded states: {coded} B of {plain} B as f32 ({:.1}%)",
        100.0 * share
    );
    assert!(
        share <= 0.45,
        "coded states take {:.1}% of their f32 bytes",
        100.0 * share
    );
}

/// The scale of the committed `pool.bin`, the benchmark's fixture: 8 Set I +
/// 4 Set II environments of 6 s each. No model the pipeline ships trains on
/// it; they train on `sage_bench::POOL_SCALE`.
const FIXTURE_POOL: [usize; 3] = [8, 4, 6];

/// `pool.bin` is the benchmark's fixture, and this test is what ties it to
/// the code: the pool collected in process at [`FIXTURE_POOL`], saved through
/// the checked writer, is the committed file byte for byte, footer included.
/// The benchmark's `layers` workload trains its CRR steps on this file, so
/// its numbers move with it.
#[test]
fn committed_pool_is_the_collection_at_the_fixture_scale() {
    let pool = pool(FIXTURE_POOL, GrConfig::default());
    let fresh = std::env::temp_dir().join(format!("sage_fixture_{}.bin", std::process::id()));
    pool.save_file(&fresh).expect("save the collected pool");
    let now = std::fs::read(&fresh).expect("collected bytes");
    std::fs::remove_file(&fresh).ok();
    sage_util::golden::check(artifacts_dir().join("pool.bin"), now).unwrap();
}

/// The committed policy stays distillable: a depth-6 tree fit on eight Set I
/// scenarios plus the clean baseline (10 s each) agrees with the network on
/// the same harvest at the next grid seed (measured: 92.9% of 9 000 rows).
#[test]
fn tiny_tree_from_the_committed_model_clears_the_fidelity_floor() {
    let model = Arc::new(SageModel::load_file(&sage_model_path()).expect("sage.model loads"));
    let scenarios = |grid_seed| {
        let mut s = scenarios_set12(8, 0, 10.0, grid_seed);
        s.extend(scenarios_fault(Some(&["clean"]), 10.0));
        s
    };
    let train = harvest(
        &model,
        GrConfig::default(),
        &scenarios(SEED),
        SEED ^ 0xD157_1111,
        0,
    );
    let held = harvest(
        &model,
        GrConfig::default(),
        &scenarios(SEED + 1),
        SEED ^ 0xD157_2222,
        0,
    );
    let cfg = TreeConfig {
        max_depth: 6,
        ..TreeConfig::default()
    };
    let tree = SymbolicModel::fit(&train, &cfg);
    let a = agreement(&tree, &held, AGREE_TOL_LR);
    assert!(a.rows > 0 && a.agree_rate >= 0.80, "{a:?}");
}

/// The committed policy serves 64 flows (plus 4 heuristic cross flows,
/// 1.5 Mbit/s a flow, 40 ms, 3 s) from one batched runtime: the policy, not
/// the heuristic fallback, decides at least 95% of the actions, Jain
/// fairness across the learned flows is at least 0.355, and the link
/// carries at least 80% of its capacity, Σ delivered bytes · 8 over
/// link rate · seconds (measured: 0 of 15 672 actions from the fallback,
/// Jain 0.445, utilisation 0.920).
#[test]
fn committed_model_serves_64_flows_on_the_batched_runtime() {
    let model = Arc::new(SageModel::load_file(&sage_model_path()).expect("sage.model loads"));
    let mut sc = ManyFlowScenario::shared_bottleneck(64, 4, SEED);
    sc.secs = 3.0;
    let report = run_many_flow(
        &sc,
        model,
        GrConfig::default(),
        ServeConfig {
            mode: ServeMode::Batched,
            threads: 0, // resolve from SAGE_THREADS: check.sh varies it
            seed: SEED,
            ..ServeConfig::default()
        },
    );
    let (nn, fallback) = (report.serve.nn_actions, report.serve.fallback_actions);
    assert!(
        fallback * 20 <= nn + fallback,
        "fallback share above 5%: {fallback} of {} actions",
        nn + fallback
    );
    let jain = jain_fairness(&report.learned_goodputs());
    assert!(jain >= 0.355, "Jain fairness {jain:.4} below 0.355");
    let bytes: u64 = report.stats.iter().map(|s| s.delivered_bytes).sum();
    let utilisation = bytes as f64 * 8.0 / (sc.total_mbps() * 1e6 * sc.secs);
    assert!(
        utilisation >= 0.80,
        "link utilisation {utilisation:.4} below 0.80"
    );
}
