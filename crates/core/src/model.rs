//! The neural architecture (paper Fig. 6) at configurable scale, plus the
//! distributional critic and model (de)serialisation.

use sage_gr::{FeatureMask, STATE_DIM};
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

/// Bounds on what a model-file header may declare. The paper's largest layer
/// (the GRU) is 1024 wide; the default net uses 2 blocks, 3 components and
/// 41 atoms.
const MAX_WIDTH: usize = 1024;
const MAX_RESIDUAL_BLOCKS: usize = 16;
const MAX_GMM_K: usize = 64;
const MAX_ATOMS: usize = 1024;

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

    /// Inverse of [`NetConfig::to_json`] for a header read from a file. The
    /// caller builds every layer from the result, so each field is checked
    /// here, before anything is allocated from it: widths and counts inside
    /// the `MAX_*` bounds, at least two atoms over a finite, non-empty
    /// support (see [`NetConfig::support`]), a known mask.
    pub fn from_json(v: &Json) -> Result<NetConfig, String> {
        let int = |key: &str, min: usize, max: usize| match v.get(key).and_then(Json::as_usize) {
            Some(n) if (min..=max).contains(&n) => Ok(n),
            _ => Err(format!(
                "model config `{key}` missing or outside {min}..={max}"
            )),
        };
        let real = |key: &str| match v.get(key).and_then(Json::as_f64) {
            Some(x) if x.is_finite() => Ok(x),
            _ => Err(format!("model config `{key}` missing or not finite")),
        };
        let cfg = NetConfig {
            mask_kind: int("mask_kind", 0, 3)? as u8,
            enc1: int("enc1", 1, MAX_WIDTH)?,
            gru: int("gru", 0, MAX_WIDTH)?,
            enc2: int("enc2", 0, MAX_WIDTH)?,
            fc: int("fc", 1, MAX_WIDTH)?,
            residual_blocks: int("residual_blocks", 0, MAX_RESIDUAL_BLOCKS)?,
            gmm_k: int("gmm_k", 1, MAX_GMM_K)?,
            critic_hidden: int("critic_hidden", 1, MAX_WIDTH)?,
            atoms: int("atoms", 2, MAX_ATOMS)?,
            v_min: real("v_min")?,
            v_max: real("v_max")?,
        };
        if cfg.v_min >= cfg.v_max {
            return Err("model config needs `v_min` < `v_max`".to_string());
        }
        Ok(cfg)
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
        let width = self.cfg.hidden_dim();
        g.input_with(batch, width, |h| h.resize(batch * width, 0.0))
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
    /// returns the mixture batch and the new hidden `[B,H]` — the trunk
    /// composed on the recurrent half.
    ///
    /// Bit-identical to running [`PolicyNet::step`] on the same rows: every
    /// op in `sage_nn::infer` is row-independent and evaluates in the same
    /// element order as its graph counterpart, so the serving runtime can
    /// fold many flows into one matrix-matrix pass without perturbing a
    /// single action (`crates/serve` tests pin this).
    pub fn step_infer(&self, store: &ParamStore, x: &Array, h: &Array) -> (GmmBatch, Array) {
        let feat = self.recurrent_features(store, x, h);
        let mix = self.trunk_infer(store, &feat);
        let new_h = if self.gru.is_some() { feat } else { h.clone() };
        (mix, new_h)
    }

    /// The new hidden `[B,H]` of [`PolicyNet::step_infer`] alone, for the
    /// steps of an unroll whose mixture nobody reads: the recurrent half
    /// (both encoders and the GRU) without the trunk. With the GRU ablated
    /// the state passes through untouched and nothing is computed.
    pub fn advance_hidden(&self, store: &ParamStore, x: &Array, h: &Array) -> Array {
        match self.gru {
            Some(_) => self.recurrent_features(store, x, h),
            None => h.clone(),
        }
    }

    /// The recurrent half of a step: the features entering the post-GRU
    /// stack, which are the new hidden state when there is a GRU.
    fn recurrent_features(&self, store: &ParamStore, x: &Array, h: &Array) -> Array {
        use sage_nn::infer;
        let e = infer::lrelu(&self.enc1a.infer(store, x), 0.01);
        let e = infer::lrelu(&self.enc1b.infer(store, &e), 0.01);
        match &self.gru {
            Some(cell) => cell.infer_step(store, &e, h),
            None => e,
        }
    }

    /// The trunk of a step: post-GRU norm, second encoder, FC, residual
    /// blocks and the mixture head over the recurrent half's features.
    fn trunk_infer(&self, store: &ParamStore, feat: &Array) -> GmmBatch {
        use sage_nn::infer;
        let n = infer::lrelu(&self.post_ln.infer(store, feat), 0.01);
        let t = match &self.enc2 {
            Some(enc) => infer::tanh(&enc.infer(store, &n)),
            None => n,
        };
        debug_assert_eq!(t.cols, self.trunk_in);
        let mut z = self.fc.infer(store, &t);
        for rb in &self.res {
            z = rb.infer(store, &z);
        }
        self.head.infer(store, &z)
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

    /// Graph-free forward for every pass that takes no gradient: atom logits
    /// `[n·A, atoms]` for states `[n, D]` and `A` actions per state
    /// (`actions` is `[n, A]`), row `r·A + j` bit-identical to the row of
    /// [`CriticNet::logits`] for state `r` and its action `j`.
    ///
    /// The first layer never builds `[state | action]`: an output element of
    /// the product is its own left fold over the input columns and the
    /// action is the last column, so the fold over a state's `D` columns is
    /// made once per state and each action continues it with its one term
    /// `a·W[D][j]` — skipped, not added, when `a` is `±0.0`, as the product
    /// skips a zero of its left operand — then the bias.
    pub fn logits_infer(&self, store: &ParamStore, state: &Array, actions: &Array) -> Array {
        use sage_nn::infer;
        assert_eq!(state.rows, actions.rows, "one row of actions per state");
        let (w, bias) = (store.get(self.l1.w), &store.get(self.l1.b).data);
        let (d, width) = (state.cols, w.cols);
        assert_eq!(w.rows, d + 1, "critic input is [state | action]");
        let prefix = infer::matmul_prefix(state, w);
        let w_action = &w.data[d * width..];
        let mut h = Vec::with_capacity(actions.data.len() * width);
        for (fold, row_actions) in prefix.row_slices().zip(actions.row_slices()) {
            for &a in row_actions {
                if a == 0.0 {
                    h.extend(fold.iter().zip(bias).map(|(&f, &b)| f + b));
                } else {
                    let terms = fold.iter().zip(w_action).zip(bias);
                    h.extend(terms.map(|((&f, &wa), &b)| f + a * wa + b));
                }
            }
        }
        let h = infer::lrelu(&Array::from_vec(actions.data.len(), width, h), 0.01);
        let h = infer::lrelu(&self.l2.infer(store, &h), 0.01);
        self.out.infer(store, &h)
    }

    /// Expected Q values (plain f64) from logits.
    pub fn expected_q(&self, logits: &Array) -> Vec<f64> {
        self.expected_q_of(&sage_nn::graph::softmax_rows(logits))
    }

    /// Expected Q values from atom probabilities `[n, atoms]`.
    pub fn expected_q_of(&self, probs: &Array) -> Vec<f64> {
        let support = self.cfg.support();
        let q = |row: &[f64]| row.iter().zip(&support).map(|(&p, &z)| p * z).sum();
        probs.row_slices().map(q).collect()
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
        self.standardised(|i| full_state[i]).collect()
    }

    /// The network's input columns, in order, for the state whose feature
    /// `i` (of the full 69) is `feature(i)`: masked, then standardised.
    pub fn standardised<'a>(
        &'a self,
        feature: impl Fn(usize) -> f64 + 'a,
    ) -> impl Iterator<Item = f64> + 'a {
        (self.input_idx.iter()).map(move |&i| (feature(i) - self.norm_mean[i]) / self.norm_std[i])
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

    /// Parse a model from raw payload bytes (footer already stripped). The
    /// header is checked in full — the config by [`NetConfig::from_json`],
    /// both normalisation vectors for length and usable values — before the
    /// network is built from it.
    pub fn from_bytes(payload: &[u8]) -> io::Result<SageModel> {
        let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
        let mut r = payload;
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != b"SAGEMDL1" {
            return Err(invalid("bad model magic".to_string()));
        }
        let mut u = [0u8; 8];
        r.read_exact(&mut u)?;
        let hlen = u64::from_le_bytes(u);
        if hlen > r.len() as u64 {
            return Err(invalid("model header truncated".to_string()));
        }
        let (hb, params) = r.split_at(hlen as usize);
        r = params;
        let text =
            std::str::from_utf8(hb).map_err(|_| invalid("model header not utf-8".to_string()))?;
        let header = Json::parse(text).map_err(|e| invalid(e.to_string()))?;
        let cfg = header
            .get("cfg")
            .ok_or_else(|| "model header has no `cfg`".to_string())
            .and_then(NetConfig::from_json)
            .map_err(invalid)?;
        let norm = |key: &str, usable: fn(&f64) -> bool| match header
            .get(key)
            .and_then(Json::to_f64_vec)
        {
            Some(v) if v.len() == STATE_DIM && v.iter().all(usable) => Ok(v),
            _ => Err(invalid(format!(
                "model header `{key}` is not {STATE_DIM} usable numbers"
            ))),
        };
        let norm_mean = norm("norm_mean", |m| m.is_finite())?;
        // `prepare_input` divides by the std: zero, subnormal and
        // non-finite entries would hand the policy inf or NaN.
        let norm_std = norm("norm_std", |s| s.is_normal())?;
        let mut model = SageModel::new(cfg, norm_mean, norm_std, 0);
        model.store.load(&mut r)?;
        Ok(model)
    }

    /// Load a model saved by [`SageModel::save_file`]; a file without a
    /// valid checksum footer is rejected.
    pub fn load_file(path: &std::path::Path) -> io::Result<SageModel> {
        SageModel::from_bytes(&sage_util::read_checksummed(path)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sage_util::prop::{forall, PropConfig};

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

    /// `step_infer` as one body, before it became the trunk composed on the
    /// recurrent half: kept as the oracle of both halves.
    fn step_infer_oracle(
        net: &PolicyNet,
        store: &ParamStore,
        x: &Array,
        h: &Array,
    ) -> (GmmBatch, Array) {
        use sage_nn::infer;
        let e = infer::lrelu(&net.enc1a.infer(store, x), 0.01);
        let e = infer::lrelu(&net.enc1b.infer(store, &e), 0.01);
        let (feat, new_h) = match &net.gru {
            Some(cell) => {
                let h1 = cell.infer_step(store, &e, h);
                (h1.clone(), h1)
            }
            None => (e, h.clone()),
        };
        let n = infer::lrelu(&net.post_ln.infer(store, &feat), 0.01);
        let t = match &net.enc2 {
            Some(enc) => infer::tanh(&enc.infer(store, &n)),
            None => n,
        };
        let mut z = net.fc.infer(store, &t);
        for rb in &net.res {
            z = rb.infer(store, &z);
        }
        (net.head.infer(store, &z), new_h)
    }

    #[test]
    fn the_two_halves_of_a_step_are_the_step_bit_for_bit() {
        let small = NetConfig {
            enc1: 9,
            gru: 7,
            enc2: 6,
            fc: 10,
            residual_blocks: 1,
            ..NetConfig::default()
        };
        let topologies = [
            small,
            NetConfig { gru: 0, ..small },
            NetConfig { enc2: 0, ..small },
            NetConfig { gmm_k: 1, ..small },
            small.with_mask(FeatureMask::NoMinMax),
            small.with_mask(FeatureMask::NoRttVar),
            small.with_mask(FeatureMask::NoLossInflight),
        ];
        let bits = |a: &Array| a.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (i, cfg) in topologies.into_iter().enumerate() {
            forall(
                &format!("trunk . recurrent half == step_infer ({cfg:?})"),
                PropConfig::new(8, 0x57E9 + i as u64),
                |rng| {
                    let mut m = dummy_model(cfg);
                    for v in m.store.params.iter_mut().flat_map(|p| &mut p.value.data) {
                        *v += rng.range(-0.2, 0.2);
                    }
                    let b = 1 + rng.below(6);
                    // Exact zeros of both signs among the inputs.
                    let mut random = |cols: usize| {
                        let spiked = |rng: &mut Rng| match rng.below(6) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.range(-3.0, 3.0),
                        };
                        Array::from_vec(b, cols, (0..b * cols).map(|_| spiked(rng)).collect())
                    };
                    let (x, h) = (random(cfg.input_dim()), random(cfg.hidden_dim()));
                    let (want_mix, want_h) = step_infer_oracle(&m.policy, &m.store, &x, &h);
                    let (mix, new_h) = m.policy.step_infer(&m.store, &x, &h);
                    let alone = m.policy.advance_hidden(&m.store, &x, &h);
                    let same = bits(&want_h) == bits(&new_h)
                        && bits(&want_h) == bits(&alone)
                        && bits(&want_mix.means) == bits(&mix.means)
                        && bits(&want_mix.log_stds) == bits(&mix.log_stds)
                        && bits(&want_mix.logits) == bits(&mix.logits);
                    same.then_some(()).ok_or(format!("b {b}"))
                },
            );
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

    /// In a header's text, stands for `1e999` — a number that parses to
    /// infinity, which no `Json::Num` serialises to.
    const OVERFLOWS: f64 = 123456789.0;

    /// `model`'s bytes with its header rewritten by `edit`.
    fn with_header(model: &SageModel, edit: impl FnOnce(&mut Json)) -> Vec<u8> {
        let bytes = model.to_bytes().unwrap();
        let hlen = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        let mut header = Json::parse(std::str::from_utf8(&bytes[16..16 + hlen]).unwrap()).unwrap();
        edit(&mut header);
        let text = header.to_string().replace(&OVERFLOWS.to_string(), "1e999");
        let mut out = b"SAGEMDL1".to_vec();
        out.extend_from_slice(&(text.len() as u64).to_le_bytes());
        out.extend_from_slice(text.as_bytes());
        out.extend_from_slice(&bytes[16 + hlen..]);
        out
    }

    fn field<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
        match obj {
            Json::Obj(m) => m.get_mut(key).unwrap_or_else(|| panic!("no `{key}`")),
            _ => panic!("`{key}` looked up in a non-object"),
        }
    }

    fn norm_vec<'a>(header: &'a mut Json, key: &str) -> &'a mut Vec<Json> {
        match field(header, key) {
            Json::Arr(v) => v,
            _ => panic!("`{key}` is not an array"),
        }
    }

    /// One hostile edit of a valid header: makes it, returns what it did.
    type Hostile = fn(&mut Rng, &mut Json) -> String;

    fn set_cfg(h: &mut Json, key: &str, v: f64) -> String {
        *field(field(h, "cfg"), key) = Json::Num(v);
        format!("cfg.{key} = {v}")
    }

    fn past(max: usize, r: &mut Rng) -> f64 {
        [(max + 1 + r.below(1 << 20)) as f64, 1e12][r.below(2)]
    }

    const HOSTILE: [Hostile; 16] = [
        |r, h| set_cfg(h, "enc1", [0.0, past(MAX_WIDTH, r)][r.below(2)]),
        |r, h| set_cfg(h, "fc", [0.0, past(MAX_WIDTH, r)][r.below(2)]),
        |r, h| set_cfg(h, "critic_hidden", [0.0, past(MAX_WIDTH, r)][r.below(2)]),
        |r, h| set_cfg(h, "gru", past(MAX_WIDTH, r)),
        |r, h| set_cfg(h, "enc2", past(MAX_WIDTH, r)),
        |r, h| set_cfg(h, "residual_blocks", past(MAX_RESIDUAL_BLOCKS, r)),
        |r, h| set_cfg(h, "gmm_k", [0.0, past(MAX_GMM_K, r)][r.below(2)]),
        |r, h| set_cfg(h, "atoms", [0.0, 1.0, past(MAX_ATOMS, r)][r.below(3)]),
        |r, h| set_cfg(h, "mask_kind", (4 + r.below(252)) as f64),
        |r, h| set_cfg(h, "enc1", r.below(40) as f64 + 0.5),
        |r, h| set_cfg(h, "gru", -(1.0 + r.below(64) as f64)),
        // At or below the default `v_min` of 0.
        |r, h| set_cfg(h, "v_max", -(r.below(10) as f64)),
        |_, h| set_cfg(h, "v_max", OVERFLOWS),
        |r, h| {
            let key = ["norm_mean", "norm_std"][r.below(2)];
            let len = [STATE_DIM + 1 + r.below(8), r.below(STATE_DIM)][r.below(2)];
            norm_vec(h, key).resize(len, Json::Num(1.0));
            format!("{key} has {len} entries")
        },
        |r, h| {
            // Zero, subnormal, parsed as infinity, and NaN (written `null`).
            let v = [0.0, -0.0, 1e-320, OVERFLOWS, f64::NAN][r.below(5)];
            let at = r.below(STATE_DIM);
            norm_vec(h, "norm_std")[at] = Json::Num(v);
            format!("norm_std[{at}] = {v:e}")
        },
        |r, h| {
            let v = [OVERFLOWS, f64::NAN][r.below(2)];
            let at = r.below(STATE_DIM);
            norm_vec(h, "norm_mean")[at] = Json::Num(v);
            format!("norm_mean[{at}] = {v:e}")
        },
    ];

    #[test]
    fn hostile_header_fields_are_rejected_before_the_network_is_built() {
        let m = dummy_model(NetConfig::default());
        // The rewrite itself is faithful: an untouched header still loads.
        let same = SageModel::from_bytes(&with_header(&m, |_| {})).unwrap();
        assert_eq!(same.cfg, m.cfg);

        forall(
            "hostile model header",
            PropConfig::new(300, 0x4EAD),
            |rng| {
                let mut what = String::new();
                let edit = HOSTILE[rng.below(HOSTILE.len())];
                let bytes = with_header(&m, |h| what = edit(rng, h));
                match SageModel::from_bytes(&bytes) {
                    Err(e) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
                    Err(e) => Err(format!("{what}: wrong error kind: {e}")),
                    Ok(_) => Err(format!("{what}: loaded")),
                }
            },
        );
    }

    #[test]
    fn header_length_past_the_payload_and_footerless_files_are_rejected() {
        let m = dummy_model(NetConfig::default());
        let mut bytes = m.to_bytes().unwrap();
        // The shape the deleted re-anchoring branch used to repair.
        bytes.remove(8);
        let err = SageModel::from_bytes(&bytes).err().expect("must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let path = std::env::temp_dir().join("sage_model_footerless.bin");
        std::fs::write(&path, m.to_bytes().unwrap()).unwrap();
        let err = SageModel::load_file(&path).err().expect("must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(path);
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
