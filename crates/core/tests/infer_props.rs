//! Property tests pinning the graph-free contract: the batched forward
//! (`PolicyNet::step_infer`) is bit-identical to per-flow sequential
//! inference — both the single-row graph forward used by `SagePolicy` and
//! single-row `step_infer` calls — for random flow counts, hidden states and
//! observation vectors; and `CriticNet::logits_infer`, which the trainer's
//! no-gradient passes run, is bit-identical to the graph's `logits`.

use sage_core::model::{CriticNet, NetConfig, SageModel};
use sage_gr::STATE_DIM;
use sage_nn::{Array, Graph, ParamStore};
use sage_util::prop::{forall, PropConfig};
use sage_util::Rng;

fn random_model(rng: &mut Rng) -> SageModel {
    let cfg = NetConfig {
        enc1: 8 + (rng.next_u64() % 3) as usize * 4,
        gru: 8,
        enc2: 8,
        fc: 12,
        residual_blocks: 1 + (rng.next_u64() % 2) as usize,
        gmm_k: 2 + (rng.next_u64() % 2) as usize,
        ..NetConfig::default()
    };
    SageModel::new(
        cfg,
        vec![0.0; STATE_DIM],
        vec![1.0; STATE_DIM],
        rng.next_u64(),
    )
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn batched_forward_bit_identical_to_per_flow_graph() {
    forall(
        "step_infer == per-row Graph step",
        PropConfig::new(25, 0x5E7E),
        |rng| {
            let model = random_model(rng);
            let d = model.cfg.input_dim();
            let hd = model.cfg.gru;
            let b = 1 + (rng.next_u64() % 24) as usize;
            let x = Array::from_vec(b, d, (0..b * d).map(|_| rng.range(-4.0, 4.0)).collect());
            let h = Array::from_vec(b, hd, (0..b * hd).map(|_| rng.range(-1.0, 1.0)).collect());

            let (mix, h1) = model.policy.step_infer(&model.store, &x, &h);

            for r in 0..b {
                let xrow = Array::row(x.data[r * d..(r + 1) * d].to_vec());
                let hrow = Array::row(h.data[r * hd..(r + 1) * hd].to_vec());

                // Reference 1: the per-flow graph path (what SagePolicy runs).
                let mut g = Graph::new();
                let xn = g.input(xrow.clone());
                let hn = g.input(hrow.clone());
                let (nodes, hout) = model.policy.step(&mut g, &model.store, xn, hn);
                let want_mix = model.policy.mixture(&g, nodes, 0);
                let got_mix = mix.row(r);
                if bits(&want_mix.means) != bits(&got_mix.means)
                    || bits(&want_mix.log_stds) != bits(&got_mix.log_stds)
                    || bits(&want_mix.weights) != bits(&got_mix.weights)
                {
                    return Err(format!("mixture row {r} of {b} diverged from graph"));
                }
                let want_h = &g.value(hout).data;
                let got_h = &h1.data[r * hd..(r + 1) * hd];
                if bits(want_h) != bits(got_h) {
                    return Err(format!("hidden row {r} of {b} diverged from graph"));
                }

                // Reference 2: sequential (batch-of-one) step_infer.
                let (mix1, h1one) = model.policy.step_infer(&model.store, &xrow, &hrow);
                let seq_mix = mix1.row(0);
                if bits(&seq_mix.means) != bits(&got_mix.means)
                    || bits(&seq_mix.weights) != bits(&got_mix.weights)
                {
                    return Err(format!("row {r}: batch-of-one differs from batch-of-{b}"));
                }
                if bits(&h1one.data) != bits(got_h) {
                    return Err(format!("row {r}: batch-of-one hidden differs"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn ablation_topologies_also_match() {
    // The no-GRU and no-Encoder ablations take different step paths; the
    // infer mirror must follow them exactly too.
    for cfg in [
        NetConfig {
            gru: 0,
            enc1: 8,
            enc2: 8,
            fc: 8,
            residual_blocks: 1,
            ..NetConfig::default()
        },
        NetConfig {
            enc2: 0,
            enc1: 8,
            gru: 8,
            fc: 8,
            residual_blocks: 1,
            ..NetConfig::default()
        },
    ] {
        let model = SageModel::new(cfg, vec![0.0; STATE_DIM], vec![1.0; STATE_DIM], 9);
        let d = cfg.input_dim();
        let hd = cfg.hidden_dim();
        let x = Array::from_vec(2, d, (0..2 * d).map(|i| (i as f64) * 0.01 - 0.3).collect());
        let h = Array::zeros(2, hd);
        let (mix, _) = model.policy.step_infer(&model.store, &x, &h);
        for r in 0..2 {
            let mut g = Graph::new();
            let xn = g.input(Array::row(x.data[r * d..(r + 1) * d].to_vec()));
            let hn = g.input(Array::row(h.data[r * hd..(r + 1) * hd].to_vec()));
            let (nodes, _) = model.policy.step(&mut g, &model.store, xn, hn);
            let want = model.policy.mixture(&g, nodes, 0);
            let got = mix.row(r);
            assert_eq!(bits(&want.means), bits(&got.means));
            assert_eq!(bits(&want.log_stds), bits(&got.log_stds));
            assert_eq!(bits(&want.weights), bits(&got.weights));
        }
    }
}

/// `[n·A, ·]` rows for the graph path: state `r` repeated under each of its
/// `A` actions, row `r·A + j`.
fn concatenated_rows(s: &Array, a: &Array) -> (Array, Array) {
    let per = a.cols;
    let states = (0..s.rows * per).flat_map(|row| {
        let r = row / per;
        s.data[r * s.cols..(r + 1) * s.cols].iter().copied()
    });
    (
        Array::from_vec(s.rows * per, s.cols, states.collect()),
        Array::from_vec(a.data.len(), 1, a.data.clone()),
    )
}

/// The shared-prefix critic against what it replaced: `CriticNet::logits`
/// through the `Graph` on concatenated `[state | action]` rows — with exact
/// zeros of both signs among states and actions, whole states of zeros (the
/// fold stays `+0.0`), one to five actions per state, and, every other case,
/// the action's row of the first-layer weight poisoned with `NaN`/`±inf`: a
/// zero action must not read it (the product skips a zero of its left
/// operand), any other action must.
#[test]
fn critic_logits_infer_bit_identical_to_graph_logits() {
    forall(
        "logits_infer == Graph logits",
        PropConfig::new(40, 0xC817),
        |rng| {
            let cfg = NetConfig {
                critic_hidden: 5 + (rng.next_u64() % 20) as usize,
                atoms: 3 + (rng.next_u64() % 40) as usize,
                ..NetConfig::default()
            };
            let mut store = ParamStore::new();
            let critic = CriticNet::new(&mut store, "q", cfg, rng);
            for p in &mut store.params {
                for v in &mut p.value.data {
                    *v += rng.range(-0.1, 0.1);
                }
            }
            let d = cfg.input_dim();
            let poisoned = rng.below(2) == 1;
            if poisoned {
                let w = &mut store.params[0].value;
                assert_eq!(w.shape(), (d + 1, cfg.critic_hidden), "q.l1.w is first");
                for (j, v) in w.data[d * cfg.critic_hidden..].iter_mut().enumerate() {
                    *v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][j % 3];
                }
            }
            let n = 1 + (rng.next_u64() % 40) as usize;
            let per = 1 + rng.below(5);
            let spiked = |rng: &mut Rng, lo: f64, hi: f64| match rng.next_u64() % 5 {
                0 => 0.0,
                1 => -0.0,
                _ => rng.range(lo, hi),
            };
            let mut s = Array::from_vec(n, d, (0..n * d).map(|_| spiked(rng, -4.0, 4.0)).collect());
            for v in &mut s.data[..d] {
                *v = [0.0, -0.0][rng.below(2)];
            }
            let a = Array::from_vec(
                n,
                per,
                (0..n * per).map(|_| spiked(rng, -1.0, 1.0)).collect(),
            );

            let got = critic.logits_infer(&store, &s, &a);
            let (rows_s, rows_a) = concatenated_rows(&s, &a);
            let mut g = Graph::new();
            let (sn, an) = (g.input(rows_s), g.input(rows_a));
            let want = critic.logits(&mut g, &store, sn, an);
            let want = g.value(want);
            if want.shape() != got.shape() {
                return Err(format!("shape {:?} != {:?}", got.shape(), want.shape()));
            }
            for (row, (w, o)) in want.row_slices().zip(got.row_slices()).enumerate() {
                let zero_action = a.data[row] == 0.0;
                let same = if poisoned && !zero_action {
                    // NaN payloads are not pinned; that nothing is finite is.
                    w.iter().chain(o).all(|v| !v.is_finite())
                } else {
                    w.iter().all(|v| v.is_finite()) && bits(w) == bits(o)
                };
                if !same {
                    return Err(format!(
                        "row {row} of {n} x {per} (poisoned {poisoned}), {cfg:?}"
                    ));
                }
            }
            Ok(())
        },
    );
}
