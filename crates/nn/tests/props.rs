//! Property-style tests for the autodiff engine and layers, driven by the
//! workspace's own deterministic RNG (no external property-testing framework:
//! the build must work offline).

use sage_nn::gmm::{gmm_log_density, GmmParams};
use sage_nn::graph::log_sum_exp;
use sage_nn::infer::matmul;
use sage_nn::{Adam, Array, Graph, ParamStore};
use sage_util::Rng;

fn arr(rows: usize, cols: usize, data: Vec<f64>) -> Array {
    Array::from_vec(rows, cols, data)
}

fn vec_in(rng: &mut Rng, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| rng.range(lo, hi)).collect()
}

#[test]
fn matmul_transpose_identity() {
    // (A B)^T == B^T A^T
    let mut rng = Rng::new(0x11AA);
    for _ in 0..100 {
        let ma = arr(2, 3, vec_in(&mut rng, 6, -10.0, 10.0));
        let mb = arr(3, 2, vec_in(&mut rng, 6, -10.0, 10.0));
        let left = matmul(&ma, &mb).t();
        let right = matmul(&mb.t(), &ma.t());
        for (x, y) in left.iter().zip(right.iter()) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}

#[test]
fn log_sum_exp_bounds() {
    let mut rng = Rng::new(0x22BB);
    for _ in 0..200 {
        let len = 1 + rng.below(19);
        let xs = vec_in(&mut rng, len, -50.0, 50.0);
        let m = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let lse = log_sum_exp(&xs);
        assert!(lse >= m - 1e-12);
        assert!(lse <= m + (xs.len() as f64).ln() + 1e-12);
    }
}

#[test]
fn gmm_density_normalised_weights() {
    let mut rng = Rng::new(0x33CC);
    for _ in 0..200 {
        let means = vec_in(&mut rng, 3, -2.0, 2.0);
        let log_stds = vec_in(&mut rng, 3, -1.5, 0.5);
        let raw_w = vec_in(&mut rng, 3, 0.1, 5.0);
        let a = rng.range(-3.0, 3.0);
        let total: f64 = raw_w.iter().sum();
        let p = GmmParams {
            means,
            log_stds,
            weights: raw_w.iter().map(|w| w / total).collect(),
        };
        let logp = gmm_log_density(&p, a);
        assert!(logp.is_finite());
        // Density bounded above by the tallest component peak.
        let peak = p
            .log_stds
            .iter()
            .map(|ls| -ls - 0.918938533204672_f64)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(logp <= peak + 1e-9);
    }
}

#[test]
fn graph_linear_gradient_exact() {
    // loss = mean((w*x)^2) -> dloss/dw = 2*w*x^2 exactly.
    let mut rng = Rng::new(0x44DD);
    for _ in 0..100 {
        let w0 = rng.range(-2.0, 2.0);
        let x0 = rng.range(-2.0, 2.0);
        let mut store = ParamStore::new();
        let w = store.constant("w", 1, 1, w0);
        let mut g = Graph::new();
        let x = g.input(Array::scalar(x0));
        let wn = g.param(&store, w);
        let y = g.matmul(x, wn);
        let y2 = g.mul(y, y);
        let loss = g.mean(y2);
        g.backward(loss, &mut store);
        let expected = 2.0 * w0 * x0 * x0;
        assert!((store.params[w].grad.data[0] - expected).abs() < 1e-9);
    }
}

#[test]
fn adam_step_moves_against_gradient() {
    let mut rng = Rng::new(0x55EE);
    for _ in 0..100 {
        let g0 = rng.range(0.01, 10.0);
        let mut store = ParamStore::new();
        let w = store.constant("w", 1, 1, 1.0);
        store.params[w].grad.data[0] = g0;
        let mut opt = Adam::new(0.01);
        opt.clip_norm = 0.0;
        opt.step(&mut store);
        assert!(
            store.get(w).data[0] < 1.0,
            "positive gradient must decrease w"
        );
    }
}
