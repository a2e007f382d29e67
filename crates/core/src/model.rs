//! The neural architecture (paper Fig. 6) at configurable scale, plus the
//! distributional critic and model (de)serialisation.

use sage_gr::FeatureMask;
use sage_nn::gmm::{GmmBatch, GmmHead, GmmNodes, GmmParams};
use sage_nn::graph::{Graph, NodeId};
use sage_nn::layers::{GruCell, LayerNorm, Linear, ResidualBlock};
use sage_nn::{Array, ParamStore};
use sage_util::{Json, Rng};
use std::io::{self, Read};

/// The action codec lives with the Execution block in `sage_gr::action`.
pub use sage_gr::action::{
    ACTION_SCALE, LOG_ACTION_MAX, LOG_ACTION_MIN, SCALED_ACTION_MAX, SCALED_ACTION_MIN,
};

/// Architecture hyper-parameters. The paper's sizes (encoder FC 256,
/// GRU 1024) are scaled down for single-core training; topology is
/// identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Input feature selection (ablations of §7.3).
    pub mask_kind: u8,
    /// First encoder width.
    pub enc1: usize,
    /// GRU width (0 disables the GRU: the "no GRU" ablation).
    pub gru: usize,
    /// Post-GRU encoder width (0 disables it: the "no Encoder" ablation).
    pub enc2: usize,
    /// FC trunk width.
    pub fc: usize,
    /// Number of residual blocks.
    pub residual_blocks: usize,
    /// Mixture components (1 = plain Gaussian: the "no GMM" ablation).
    pub gmm_k: usize,
    /// Critic hidden width.
    pub critic_hidden: usize,
    /// Distributional critic atom count.
    pub atoms: usize,
    /// Value support [v_min, v_max].
    pub v_min: f64,
    pub v_max: f64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            mask_kind: 0,
            enc1: 48,
            gru: 48,
            enc2: 32,
            fc: 48,
            residual_blocks: 2,
            gmm_k: 3,
            critic_hidden: 64,
            atoms: 41,
            v_min: 0.0,
            v_max: 50.0,
        }
    }
}

impl NetConfig {
    pub fn mask(&self) -> FeatureMask {
        match self.mask_kind {
            1 => FeatureMask::NoMinMax,
            2 => FeatureMask::NoRttVar,
            3 => FeatureMask::NoLossInflight,
            _ => FeatureMask::Full,
        }
    }

    pub fn with_mask(mut self, m: FeatureMask) -> Self {
        self.mask_kind = match m {
            FeatureMask::Full => 0,
            FeatureMask::NoMinMax => 1,
            FeatureMask::NoRttVar => 2,
            FeatureMask::NoLossInflight => 3,
        };
        self
    }

    pub fn input_dim(&self) -> usize {
        self.mask().dim()
    }

    /// Width of the recurrent state carried across steps: the GRU's, or the
    /// first encoder's when the GRU is ablated (the state then passes
    /// through untouched).
    pub fn hidden_dim(&self) -> usize {
        if self.gru > 0 {
            self.gru
        } else {
            self.enc1
        }
    }

    /// JSON encoding of the config (model-file headers).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mask_kind", Json::Num(self.mask_kind as f64)),
            ("enc1", Json::Num(self.enc1 as f64)),
            ("gru", Json::Num(self.gru as f64)),
            ("enc2", Json::Num(self.enc2 as f64)),
            ("fc", Json::Num(self.fc as f64)),
            ("residual_blocks", Json::Num(self.residual_blocks as f64)),
            ("gmm_k", Json::Num(self.gmm_k as f64)),
            ("critic_hidden", Json::Num(self.critic_hidden as f64)),
            ("atoms", Json::Num(self.atoms as f64)),
            ("v_min", Json::Num(self.v_min)),
            ("v_max", Json::Num(self.v_max)),
        ])
    }

    /// Inverse of [`NetConfig::to_json`].
    pub fn from_json(v: &Json) -> Option<NetConfig> {
        Some(NetConfig {
            mask_kind: v.get("mask_kind")?.as_usize()? as u8,
            enc1: v.get("enc1")?.as_usize()?,
            gru: v.get("gru")?.as_usize()?,
            enc2: v.get("enc2")?.as_usize()?,
            fc: v.get("fc")?.as_usize()?,
            residual_blocks: v.get("residual_blocks")?.as_usize()?,
            gmm_k: v.get("gmm_k")?.as_usize()?,
            critic_hidden: v.get("critic_hidden")?.as_usize()?,
            atoms: v.get("atoms")?.as_usize()?,
            v_min: v.get("v_min")?.as_f64()?,
            v_max: v.get("v_max")?.as_f64()?,
        })
    }

    /// Atom support values.
    pub fn support(&self) -> Vec<f64> {
        (0..self.atoms)
            .map(|i| self.v_min + (self.v_max - self.v_min) * i as f64 / (self.atoms - 1) as f64)
            .collect()
    }
}

/// The policy network of Fig. 6.
pub struct PolicyNet {
    pub cfg: NetConfig,
    enc1a: Linear,
    enc1b: Linear,
    gru: Option<GruCell>,
    post_ln: LayerNorm,
    enc2: Option<Linear>,
    fc: Linear,
    res: Vec<ResidualBlock>,
    head: GmmHead,
    /// Width of the features entering the post-GRU stack.
    trunk_in: usize,
}

impl PolicyNet {
    pub fn new(store: &mut ParamStore, prefix: &str, cfg: NetConfig, rng: &mut Rng) -> Self {
        let d = cfg.input_dim();
        let enc1a = Linear::new(store, &format!("{prefix}.enc1a"), d, cfg.enc1, rng);
        let enc1b = Linear::new(store, &format!("{prefix}.enc1b"), cfg.enc1, cfg.enc1, rng);
        let gru = if cfg.gru > 0 {
            Some(GruCell::new(
                store,
                &format!("{prefix}.gru"),
                cfg.enc1,
                cfg.gru,
                rng,
            ))
        } else {
            None
        };
        let after_gru = cfg.hidden_dim();
        let post_ln = LayerNorm::new(store, &format!("{prefix}.postln"), after_gru);
        let enc2 = if cfg.enc2 > 0 {
            Some(Linear::new(
                store,
                &format!("{prefix}.enc2"),
                after_gru,
                cfg.enc2,
                rng,
            ))
        } else {
            None
        };
        let trunk_in = if cfg.enc2 > 0 { cfg.enc2 } else { after_gru };
        let fc = Linear::new(store, &format!("{prefix}.fc"), trunk_in, cfg.fc, rng);
        let res = (0..cfg.residual_blocks)
            .map(|i| ResidualBlock::new(store, &format!("{prefix}.res{i}"), cfg.fc, rng))
            .collect();
        let head = GmmHead::new(store, &format!("{prefix}.gmm"), cfg.fc, cfg.gmm_k, rng);
        PolicyNet {
            cfg,
            enc1a,
            enc1b,
            gru,
            post_ln,
            enc2,
            fc,
            res,
            head,
            trunk_in,
        }
    }

    /// Initial hidden state for `batch` sequences.
    pub fn initial_hidden(&self, g: &mut Graph, batch: usize) -> NodeId {
        g.input(Array::zeros(batch, self.cfg.hidden_dim()))
    }

    /// One timestep: consumes `x` [B, D] and hidden [B, H]; returns
    /// (mixture nodes, new hidden).
    pub fn step(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        h: NodeId,
    ) -> (GmmNodes, NodeId) {
        let (nodes, h1, _) = self.step_with_features(g, store, x, h);
        (nodes, h1)
    }

    /// Like [`PolicyNet::step`] but also returns the last hidden (trunk)
    /// features feeding the GMM head — used by the t-SNE visualisation of
    /// Fig. 16.
    pub fn step_with_features(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        x: NodeId,
        h: NodeId,
    ) -> (GmmNodes, NodeId, NodeId) {
        let e = self.enc1a.fwd(g, store, x);
        let e = g.lrelu(e, 0.01);
        let e = self.enc1b.fwd(g, store, e);
        let e = g.lrelu(e, 0.01);
        let (feat, new_h) = match &self.gru {
            Some(cell) => {
                let h1 = cell.step(g, store, e, h);
                (h1, h1)
            }
            None => (e, h),
        };
        let n = self.post_ln.fwd(g, store, feat);
        let n = g.lrelu(n, 0.01);
        let t = match &self.enc2 {
            Some(enc) => {
                let t = enc.fwd(g, store, n);
                g.tanh(t)
            }
            None => n,
        };
        debug_assert_eq!(g.value(t).cols, self.trunk_in);
        let mut z = self.fc.fwd(g, store, t);
        for rb in &self.res {
            z = rb.fwd(g, store, z);
        }
        let nodes = self.head.fwd(g, store, z);
        (nodes, new_h, z)
    }

    /// Graph-free batched timestep: consumes `x` `[B,D]` and hidden `[B,H]`,
    /// returns the mixture batch and the new hidden `[B,H]`.
    ///
    /// Bit-identical to running [`PolicyNet::step`] on the same rows: every
    /// op in `sage_nn::infer` is row-independent and evaluates in the same
    /// element order as its graph counterpart, so the serving runtime can
    /// fold many flows into one matrix-matrix pass without perturbing a
    /// single action (`crates/serve` tests pin this).
    pub fn step_infer(&self, store: &ParamStore, x: &Array, h: &Array) -> (GmmBatch, Array) {
        use sage_nn::infer;
        let e = infer::lrelu(&self.enc1a.infer(store, x), 0.01);
        let e = infer::lrelu(&self.enc1b.infer(store, &e), 0.01);
        let (feat, new_h) = match &self.gru {
            Some(cell) => {
                let h1 = cell.infer_step(store, &e, h);
                (h1.clone(), h1)
            }
            None => (e, h.clone()),
        };
        let n = infer::lrelu(&self.post_ln.infer(store, &feat), 0.01);
        let t = match &self.enc2 {
            Some(enc) => infer::tanh(&enc.infer(store, &n)),
            None => n,
        };
        debug_assert_eq!(t.cols, self.trunk_in);
        let mut z = self.fc.infer(store, &t);
        for rb in &self.res {
            z = rb.infer(store, &z);
        }
        (self.head.infer(store, &z), new_h)
    }

    /// Mixture parameters for row `r` of a step output.
    pub fn mixture(&self, g: &Graph, nodes: GmmNodes, r: usize) -> GmmParams {
        GmmParams::from_nodes(g, nodes, r)
    }

    pub fn log_prob(&self, g: &mut Graph, nodes: GmmNodes, action: NodeId) -> NodeId {
        self.head.log_prob(g, nodes, action)
    }
}

/// Feed-forward distributional critic: (state, action) -> atom logits.
pub struct CriticNet {
    pub cfg: NetConfig,
    l1: Linear,
    l2: Linear,
    out: Linear,
}

impl CriticNet {
    pub fn new(store: &mut ParamStore, prefix: &str, cfg: NetConfig, rng: &mut Rng) -> Self {
        let d = cfg.input_dim() + 1;
        CriticNet {
            l1: Linear::new(store, &format!("{prefix}.l1"), d, cfg.critic_hidden, rng),
            l2: Linear::new(
                store,
                &format!("{prefix}.l2"),
                cfg.critic_hidden,
                cfg.critic_hidden,
                rng,
            ),
            out: Linear::new(
                store,
                &format!("{prefix}.out"),
                cfg.critic_hidden,
                cfg.atoms,
                rng,
            ),
            cfg,
        }
    }

    /// Atom logits [n, atoms] for states [n, D] and actions [n, 1].
    pub fn logits(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        state: NodeId,
        action: NodeId,
    ) -> NodeId {
        let x = g.concat_cols(state, action);
        let h = self.l1.fwd(g, store, x);
        let h = g.lrelu(h, 0.01);
        let h = self.l2.fwd(g, store, h);
        let h = g.lrelu(h, 0.01);
        self.out.fwd(g, store, h)
    }

    /// Graph-free forward, bit-identical to [`CriticNet::logits`] row by row
    /// (see `sage_nn::infer`) — for every pass that takes no gradient.
    pub fn logits_infer(&self, store: &ParamStore, state: &Array, action: &Array) -> Array {
        use sage_nn::infer;
        let x = infer::concat_cols(state, action);
        let h = infer::lrelu(&self.l1.infer(store, &x), 0.01);
        let h = infer::lrelu(&self.l2.infer(store, &h), 0.01);
        self.out.infer(store, &h)
    }

    /// Expected Q values (plain f64) from logits.
    pub fn expected_q(&self, logits: &Array) -> Vec<f64> {
        let support = self.cfg.support();
        let (n, a) = logits.shape();
        let mut out = Vec::with_capacity(n);
        for r in 0..n {
            let row = &logits.data[r * a..(r + 1) * a];
            let lse = sage_nn::graph::log_sum_exp(row);
            let q: f64 = row
                .iter()
                .zip(&support)
                .map(|(&l, &z)| (l - lse).exp() * z)
                .sum();
            out.push(q);
        }
        out
    }
}

/// A trained, deployable model: config + input standardisation + policy
/// parameters.
pub struct SageModel {
    pub cfg: NetConfig,
    pub norm_mean: Vec<f64>,
    pub norm_std: Vec<f64>,
    pub store: ParamStore,
    pub policy: PolicyNet,
    /// `cfg.mask().indices()`, derived once: [`SageModel::prepare_input`]
    /// runs once per action.
    input_idx: Vec<usize>,
}

impl SageModel {
    /// Fresh, untrained model.
    pub fn new(cfg: NetConfig, norm_mean: Vec<f64>, norm_std: Vec<f64>, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mut store = ParamStore::new();
        let policy = PolicyNet::new(&mut store, "pi", cfg, &mut rng);
        SageModel {
            cfg,
            norm_mean,
            norm_std,
            store,
            policy,
            input_idx: cfg.mask().indices(),
        }
    }

    /// Standardise and mask a full 69-dim state.
    pub fn prepare_input(&self, full_state: &[f64]) -> Vec<f64> {
        self.input_idx
            .iter()
            .map(|&i| (full_state[i] - self.norm_mean[i]) / self.norm_std[i])
            .collect()
    }

    /// The B=1 inference path of every single-flow controller: standardise
    /// one full state, run [`PolicyNet::step_infer`], advance `hidden`
    /// (`[1, hidden_dim]`) in place and return the mixture.
    pub fn step_one(&self, full_state: &[f64], hidden: &mut Array) -> GmmParams {
        let x = Array::row(self.prepare_input(full_state));
        let (mix, h) = self.policy.step_infer(&self.store, &x, hidden);
        *hidden = h;
        mix.row(0)
    }

    /// Serialise to bytes (no checksum footer — [`SageModel::save_file`]
    /// adds that).
    pub fn to_bytes(&self) -> io::Result<Vec<u8>> {
        use std::io::Write;
        let header = Json::obj(vec![
            ("cfg", self.cfg.to_json()),
            ("norm_mean", Json::nums(self.norm_mean.iter().copied())),
            ("norm_std", Json::nums(self.norm_std.iter().copied())),
        ])
        .to_string();
        let mut out = Vec::new();
        out.write_all(b"SAGEMDL1")?;
        out.write_all(&(header.len() as u64).to_le_bytes())?;
        out.write_all(header.as_bytes())?;
        self.store.save(&mut out)?;
        Ok(out)
    }

    /// Crash-safe save: temp file + fsync + atomic rename, with a checksum
    /// footer so a truncated or bit-flipped file is rejected at load.
    pub fn save_file(&self, path: &std::path::Path) -> io::Result<()> {
        sage_util::atomic_write_checksummed(path, &self.to_bytes()?)
    }

    /// Parse a model from raw payload bytes (footer already stripped).
    pub fn from_bytes(payload: &[u8]) -> io::Result<SageModel> {
        let mut r = payload;
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"SAGEMDL1" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad model magic",
            ));
        }
        let mut u = [0u8; 8];
        r.read_exact(&mut u)?;
        let hlen = u64::from_le_bytes(u) as usize;
        let hb: Vec<u8>;
        if hlen > r.len() {
            // Some pre-checksum artefacts lost a byte inside the length
            // field, shifting the stream left and making `hlen` nonsense.
            // The header is JSON and the parameter block opens with its own
            // magic, so the file is still recoverable: re-anchor on both.
            let rest = payload.len() - r.len();
            let json_at = payload[rest.saturating_sub(8)..]
                .iter()
                .position(|&b| b == b'[' || b == b'{')
                .map(|i| rest.saturating_sub(8) + i)
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "model header truncated")
                })?;
            let prm_at = payload
                .windows(8)
                .position(|w| w == b"SAGEPRM1")
                .ok_or_else(|| {
                    io::Error::new(io::ErrorKind::UnexpectedEof, "model header truncated")
                })?;
            if json_at >= prm_at {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "model header truncated",
                ));
            }
            hb = payload[json_at..prm_at].to_vec();
            r = &payload[prm_at..];
        } else {
            let mut buf = vec![0u8; hlen];
            r.read_exact(&mut buf)?;
            hb = buf;
        }
        let text = std::str::from_utf8(&hb)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "model header not utf-8"))?;
        let header = Json::parse(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Current headers are an object; pre-checksum files carried a
        // serde_json tuple `[cfg, mean, std]`.
        let (cfg, norm_mean, norm_std) = match &header {
            Json::Obj(_) => (
                header.get("cfg").and_then(NetConfig::from_json),
                header.get("norm_mean").and_then(Json::to_f64_vec),
                header.get("norm_std").and_then(Json::to_f64_vec),
            ),
            Json::Arr(parts) if parts.len() == 3 => (
                NetConfig::from_json(&parts[0]),
                parts[1].to_f64_vec(),
                parts[2].to_f64_vec(),
            ),
            _ => (None, None, None),
        };
        let (cfg, norm_mean, norm_std) = match (cfg, norm_mean, norm_std) {
            (Some(c), Some(m), Some(s)) => (c, m, s),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "bad model header",
                ))
            }
        };
        let mut model = SageModel::new(cfg, norm_mean, norm_std, 0);
        model.store.load(&mut r)?;
        Ok(model)
    }

    pub fn load_file(path: &std::path::Path) -> io::Result<SageModel> {
        match sage_util::read_checksummed(path) {
            Ok(payload) => SageModel::from_bytes(&payload),
            // Files written before the checksum footer existed (the seed's
            // artefacts) have no footer; fall back to a raw read for those,
            // but surface genuine corruption (length/CRC mismatch) as-is.
            Err(e)
                if e.kind() == io::ErrorKind::InvalidData
                    && e.to_string().contains("missing checksum footer") =>
            {
                let mut raw = Vec::new();
                std::fs::File::open(path)?.read_to_end(&mut raw)?;
                SageModel::from_bytes(&raw)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_gr::STATE_DIM;

    fn dummy_model(cfg: NetConfig) -> SageModel {
        SageModel::new(cfg, vec![0.0; STATE_DIM], vec![1.0; STATE_DIM], 7)
    }

    #[test]
    fn policy_step_produces_valid_mixture() {
        let m = dummy_model(NetConfig::default());
        let mut g = Graph::new();
        let x = g.input(Array::from_vec(
            2,
            m.cfg.input_dim(),
            vec![0.1; 2 * m.cfg.input_dim()],
        ));
        let h = m.policy.initial_hidden(&mut g, 2);
        let (nodes, h1) = m.policy.step(&mut g, &m.store, x, h);
        assert_eq!(g.value(h1).shape(), (2, m.cfg.gru));
        let p = m.policy.mixture(&g, nodes, 0);
        assert_eq!(p.means.len(), 3);
        assert!((p.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ablation_configs_build() {
        for cfg in [
            NetConfig {
                gru: 0,
                ..NetConfig::default()
            },
            NetConfig {
                enc2: 0,
                ..NetConfig::default()
            },
            NetConfig {
                gmm_k: 1,
                ..NetConfig::default()
            },
            NetConfig::default().with_mask(FeatureMask::NoMinMax),
            NetConfig::default().with_mask(FeatureMask::NoRttVar),
            NetConfig::default().with_mask(FeatureMask::NoLossInflight),
        ] {
            let m = dummy_model(cfg);
            let mut g = Graph::new();
            let d = cfg.input_dim();
            let x = g.input(Array::from_vec(1, d, vec![0.2; d]));
            let h = m.policy.initial_hidden(&mut g, 1);
            let (nodes, _) = m.policy.step(&mut g, &m.store, x, h);
            let p = m.policy.mixture(&g, nodes, 0);
            assert_eq!(p.means.len(), cfg.gmm_k);
            assert!(p.means.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn critic_expected_q_within_support() {
        let cfg = NetConfig::default();
        let mut rng = Rng::new(3);
        let mut store = ParamStore::new();
        let critic = CriticNet::new(&mut store, "q", cfg, &mut rng);
        let mut g = Graph::new();
        let s = g.input(Array::from_vec(
            2,
            cfg.input_dim(),
            vec![0.3; 2 * cfg.input_dim()],
        ));
        let a = g.input(Array::from_vec(2, 1, vec![0.0, 0.5]));
        let logits = critic.logits(&mut g, &store, s, a);
        let q = critic.expected_q(g.value(logits));
        assert!(q.iter().all(|&v| (cfg.v_min..=cfg.v_max).contains(&v)));
    }

    #[test]
    fn model_save_load_round_trip() {
        let m = dummy_model(NetConfig::default());
        let dir = std::env::temp_dir().join("sage_model_test.bin");
        m.save_file(&dir).unwrap();
        let m2 = SageModel::load_file(&dir).unwrap();
        assert_eq!(m2.cfg, m.cfg);
        assert_eq!(m2.store.get(0).data, m.store.get(0).data);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn recovers_legacy_file_with_dropped_length_byte() {
        // Some seed artefacts lost one byte inside the u64 header-length
        // field; the loader re-anchors on the JSON header and the SAGEPRM1
        // parameter magic instead of giving up.
        let m = dummy_model(NetConfig::default());
        let mut bytes = m.to_bytes().unwrap();
        assert_ne!(bytes[8], 0, "test needs a non-zero low length byte");
        bytes.remove(8);
        let m2 = SageModel::from_bytes(&bytes).unwrap();
        assert_eq!(m2.cfg, m.cfg);
        assert_eq!(m2.norm_mean, m.norm_mean);
        assert_eq!(m2.store.get(0).data, m.store.get(0).data);
    }

    #[test]
    fn prepare_input_standardises() {
        let mut m = dummy_model(NetConfig::default());
        m.norm_mean = vec![1.0; STATE_DIM];
        m.norm_std = vec![2.0; STATE_DIM];
        let full = vec![3.0; STATE_DIM];
        let x = m.prepare_input(&full);
        assert_eq!(x.len(), m.cfg.input_dim());
        assert!(x.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    fn support_spans_vmin_vmax() {
        let cfg = NetConfig::default();
        let s = cfg.support();
        assert_eq!(s.len(), cfg.atoms);
        assert_eq!(s[0], cfg.v_min);
        assert!((s[cfg.atoms - 1] - cfg.v_max).abs() < 1e-12);
    }
}
