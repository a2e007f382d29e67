//! A small exact t-SNE (van der Maaten & Hinton 2008) for visualising the
//! last hidden layer of Sage variants (Fig. 16). Exact O(n^2) gradients —
//! fine for the few hundred points the figure uses.

use sage_util::Rng;

/// Target perplexity of each point's neighbourhood.
const PERPLEXITY: f64 = 15.0;
/// Gradient-descent iterations; the first quarter exaggerates early.
const ITERATIONS: usize = 300;
const LEARNING_RATE: f64 = 100.0;
/// Seed of the initial embedding.
const SEED: u64 = 1;

/// Embed `points` (n x d, row-major) into 2-D. Returns n (x, y) pairs.
pub fn tsne(points: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let n = points.len();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![(0.0, 0.0)];
    }
    // Pairwise squared distances.
    let mut d2 = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let dist: f64 = points[i]
                .iter()
                .zip(&points[j])
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            d2[i * n + j] = dist;
            d2[j * n + i] = dist;
        }
    }
    // Binary-search per-point sigma to match the target perplexity.
    let target_h = PERPLEXITY.ln();
    let mut p = vec![0.0; n * n];
    for i in 0..n {
        let (mut lo, mut hi) = (1e-20f64, 1e20f64);
        let mut beta = 1.0; // 1/(2 sigma^2)
        for _ in 0..50 {
            let mut sum = 0.0;
            for j in 0..n {
                if j != i {
                    sum += (-beta * d2[i * n + j]).exp();
                }
            }
            let sum = sum.max(1e-300);
            let mut h = 0.0;
            for j in 0..n {
                if j != i {
                    let pj = (-beta * d2[i * n + j]).exp() / sum;
                    if pj > 1e-300 {
                        h -= pj * pj.ln();
                    }
                }
            }
            if (h - target_h).abs() < 1e-5 {
                break;
            }
            if h > target_h {
                lo = beta;
                beta = if hi < 1e19 {
                    (beta + hi) / 2.0
                } else {
                    beta * 2.0
                };
            } else {
                hi = beta;
                beta = (beta + lo) / 2.0;
            }
        }
        let mut sum = 0.0;
        for j in 0..n {
            if j != i {
                sum += (-beta * d2[i * n + j]).exp();
            }
        }
        let sum = sum.max(1e-300);
        for j in 0..n {
            if j != i {
                p[i * n + j] = (-beta * d2[i * n + j]).exp() / sum;
            }
        }
    }
    // Symmetrise.
    let mut pij = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            pij[i * n + j] = ((p[i * n + j] + p[j * n + i]) / (2.0 * n as f64)).max(1e-12);
        }
    }

    let mut rng = Rng::new(SEED);
    let mut y: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.normal() * 1e-2, rng.normal() * 1e-2))
        .collect();
    let mut vel = vec![(0.0, 0.0); n];
    for it in 0..ITERATIONS {
        // Early exaggeration for the first quarter.
        let exag = if it < ITERATIONS / 4 { 4.0 } else { 1.0 };
        // q_ij with Student-t kernel.
        let mut num = vec![0.0; n * n];
        let mut z = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dx = y[i].0 - y[j].0;
                let dy = y[i].1 - y[j].1;
                let q = 1.0 / (1.0 + dx * dx + dy * dy);
                num[i * n + j] = q;
                num[j * n + i] = q;
                z += 2.0 * q;
            }
        }
        let z = z.max(1e-300);
        let momentum = if it < 100 { 0.5 } else { 0.8 };
        for i in 0..n {
            let mut gx = 0.0;
            let mut gy = 0.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let q = num[i * n + j];
                let coeff = 4.0 * (exag * pij[i * n + j] - q / z) * q;
                gx += coeff * (y[i].0 - y[j].0);
                gy += coeff * (y[i].1 - y[j].1);
            }
            vel[i].0 = momentum * vel[i].0 - LEARNING_RATE * gx;
            vel[i].1 = momentum * vel[i].1 - LEARNING_RATE * gy;
        }
        for i in 0..n {
            y[i].0 += vel[i].0;
            y[i].1 += vel[i].1;
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated clusters in 10-D must stay separated in 2-D.
    #[test]
    fn clusters_remain_separated() {
        let mut rng = Rng::new(3);
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for (ci, center) in [(0, 0.0), (1, 20.0), (2, -20.0)] {
            for _ in 0..20 {
                points.push((0..10).map(|_| center + rng.normal() * 0.5).collect());
                labels.push(ci);
            }
        }
        let y = tsne(&points);
        // Mean intra-cluster distance must be far below inter-cluster.
        let mut intra = (0.0, 0usize);
        let mut inter = (0.0, 0usize);
        for i in 0..y.len() {
            for j in (i + 1)..y.len() {
                let d = ((y[i].0 - y[j].0).powi(2) + (y[i].1 - y[j].1).powi(2)).sqrt();
                if labels[i] == labels[j] {
                    intra.0 += d;
                    intra.1 += 1;
                } else {
                    inter.0 += d;
                    inter.1 += 1;
                }
            }
        }
        let intra_mean = intra.0 / intra.1 as f64;
        let inter_mean = inter.0 / inter.1 as f64;
        assert!(
            inter_mean > 2.0 * intra_mean,
            "intra {intra_mean:.2} vs inter {inter_mean:.2}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        assert!(tsne(&[]).is_empty());
        assert_eq!(tsne(&[vec![1.0, 2.0]]), vec![(0.0, 0.0)]);
    }
}
