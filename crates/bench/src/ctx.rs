//! What a figure runs in: the committed artifacts, loaded at most once per
//! process and remembered by CRC; the models figures train, kept in memory
//! for the process and never written to disk; and the manifest that says
//! which inputs and knobs produced each result file.

use crate::figures::Figure;
use crate::{default_gr, evaluate, grid_envs, grid_scale, heuristics, learned};
use sage_collector::{EnvSpec, Pool};
use sage_core::SageModel;
use sage_eval::matrix::MatrixCell;
use sage_eval::runner::Contender;
use sage_util::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Index of the figure outputs under `artifacts/results/`: one entry per
/// file, merged in by every run that rewrites the file.
pub const MANIFEST: &str = "MANIFEST.json";

/// A model with the artifact files it was loaded or trained from.
type Kept = (Arc<SageModel>, BTreeSet<String>);

pub struct Ctx {
    dir: PathBuf,
    fig: &'static Figure,
    pool: Option<Arc<Pool>>,
    /// Committed models by file name, trained ones by recipe key.
    models: BTreeMap<String, Kept>,
    /// Payload CRC-32 of every artifact file loaded so far.
    crcs: BTreeMap<String, u32>,
    /// Artifact files behind the current figure's output so far.
    read: BTreeSet<String>,
}

impl Ctx {
    /// A context over the artifacts directory `dir`, about to run `fig`.
    pub fn new(dir: &Path, fig: &'static Figure) -> Ctx {
        Ctx {
            dir: dir.to_path_buf(),
            fig,
            pool: None,
            models: BTreeMap::new(),
            crcs: BTreeMap::new(),
            read: BTreeSet::new(),
        }
    }

    /// The checksummed payload of `artifacts/<file>`, its CRC recorded.
    fn artifact(&mut self, file: &str) -> Result<Vec<u8>, String> {
        let path = self.dir.join(file);
        let payload =
            sage_util::read_checksummed(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        self.crcs
            .insert(file.to_string(), sage_util::crc32(&payload));
        self.read.insert(file.to_string());
        Ok(payload)
    }

    fn kept(
        &mut self,
        key: &str,
        make: impl FnOnce(&mut Ctx) -> Result<SageModel, String>,
    ) -> Result<Arc<SageModel>, String> {
        if !self.models.contains_key(key) {
            // Whatever `make` reads is this model's provenance: a later
            // figure that gets the model from the map has read it too.
            let outer = std::mem::take(&mut self.read);
            let made = make(self);
            let deps = std::mem::replace(&mut self.read, outer);
            self.models.insert(key.to_string(), (Arc::new(made?), deps));
        }
        let (model, deps) = &self.models[key];
        self.read.extend(deps.iter().cloned());
        Ok(model.clone())
    }

    /// The committed model `artifacts/<file>`.
    pub fn model(&mut self, file: &str) -> Result<Arc<SageModel>, String> {
        self.kept(file, |ctx| {
            let payload = ctx.artifact(file)?;
            SageModel::from_bytes(&payload)
                .map_err(|e| format!("{}: {e}", ctx.dir.join(file).display()))
        })
    }

    /// `artifacts/sage.model`.
    pub fn sage(&mut self) -> Result<Arc<SageModel>, String> {
        self.model("sage.model")
    }

    /// `sage.model` as the league contender `sage`.
    pub fn sage_contender(&mut self) -> Result<Contender, String> {
        Ok(learned("sage", self.sage()?, default_gr()))
    }

    /// `artifacts/pool.bin`.
    pub fn pool(&mut self) -> Result<Arc<Pool>, String> {
        if self.pool.is_none() {
            let payload = self.artifact("pool.bin")?;
            let pool = Pool::load(&mut &payload[..])
                .map_err(|e| format!("{}: {e}", self.dir.join("pool.bin").display()))?;
            self.pool = Some(Arc::new(pool));
        }
        self.read.insert("pool.bin".to_string());
        Ok(self.pool.clone().expect("set above"))
    }

    /// A model some figure trains, by a key that names its whole recipe
    /// (name, steps and — when it rolls out in the grid — [`Ctx::scale`]):
    /// trained by `train` on first request, shared for the rest of the
    /// process, never saved.
    pub fn trained(
        &mut self,
        key: &str,
        train: impl FnOnce(&mut Ctx) -> Result<SageModel, String>,
    ) -> Result<Arc<SageModel>, String> {
        self.kept(key, |ctx| {
            let t0 = Instant::now();
            let model = train(ctx)?;
            sage_obs::obs_info!("trained {key} ({:.0} s)", t0.elapsed().as_secs_f64());
            Ok(model)
        })
    }

    /// The running figure's row.
    pub fn fig(&self) -> &'static Figure {
        self.fig
    }

    /// The grid scale in force for the running figure — its row's counts
    /// unless `SAGE_SET1` / `SAGE_SET2` / `SAGE_SECS` override them — or
    /// `None` for a figure that builds its own scenarios.
    pub fn scale(&self) -> Option<[usize; 3]> {
        self.fig.grid.map(|(set1, set2)| grid_scale(set1, set2))
    }

    /// The running figure's sample of the Set I/II training grid.
    pub fn envs(&self) -> Vec<EnvSpec> {
        grid_envs(self.scale().expect("the figure's row declares a grid"))
    }

    /// The 13 pool heuristics, `sage` and then `extra`, rolled through `envs`.
    pub fn pool_league(
        &mut self,
        extra: Vec<Contender>,
        envs: &[EnvSpec],
    ) -> Result<Vec<MatrixCell>, String> {
        let mut contenders = heuristics(sage_heuristics::pool_names());
        contenders.push(self.sage_contender()?);
        contenders.extend(extra);
        Ok(evaluate(&contenders, envs))
    }

    /// Run `fig` into `out`; on success, the manifest entry for those bytes.
    fn run(&mut self, fig: &'static Figure, out: &mut String) -> Result<Json, String> {
        self.fig = fig;
        self.read.clear();
        (fig.run)(self, out)?;
        let read = self.read.iter().map(|file| {
            Json::obj(vec![
                ("artifact", Json::str(file.as_str())),
                ("crc32", Json::str(format!("{:08x}", self.crcs[file]))),
            ])
        });
        Ok(Json::obj(vec![
            ("id", Json::str(fig.id)),
            ("knobs", knobs(self.scale(), fig.steps)),
            ("read", Json::Arr(read.collect())),
            (
                "digest",
                Json::str(format!("{:016x}", sage_util::fnv1a64(out.as_bytes()))),
            ),
        ]))
    }
}

/// The knobs a manifest entry records: the grid scale, for a figure that
/// samples the grid, and the training steps, for one that trains.
pub fn knobs(scale: Option<[usize; 3]>, steps: u64) -> Json {
    let mut pairs = Vec::new();
    if let Some([set1, set2, secs]) = scale {
        pairs.push(("set1", Json::Num(set1 as f64)));
        pairs.push(("set2", Json::Num(set2 as f64)));
        pairs.push(("secs", Json::Num(secs as f64)));
    }
    if steps > 0 {
        pairs.push(("steps", Json::Num(steps as f64)));
    }
    Json::obj(pairs)
}

/// The manifest under `results`: file name → entry; empty if none exists yet.
pub fn read_manifest(results: &Path) -> Result<BTreeMap<String, Json>, String> {
    let path = results.join(MANIFEST);
    if !path.exists() {
        return Ok(BTreeMap::new());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    match Json::parse(&text) {
        Ok(Json::Obj(entries)) => Ok(entries),
        Ok(_) => Err(format!("{}: not a JSON object", path.display())),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// One entry per line, sorted by file name.
fn write_manifest(results: &Path, entries: &BTreeMap<String, Json>) -> Result<(), String> {
    let lines: Vec<String> = entries
        .iter()
        .map(|(file, entry)| format!("{}:{entry}", Json::str(file.as_str())))
        .collect();
    let text = format!("{{\n{}\n}}\n", lines.join(",\n"));
    let path = results.join(MANIFEST);
    sage_util::atomic_write(&path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Run `figs` over the artifacts directory `dir`, writing each output and
/// its manifest entry under `dir/results/` as the figure finishes. A figure
/// that fails — a missing or corrupt artifact, named in the message — leaves
/// its previous output and entry as they were, and the rest still run.
/// Returns the number that failed.
pub fn run_figures(dir: &Path, figs: &[&'static Figure]) -> usize {
    let Some(&first) = figs.first() else { return 0 };
    let results = dir.join("results");
    let mut ctx = Ctx::new(dir, first);
    let mut failed = 0;
    for &fig in figs {
        let t0 = Instant::now();
        let mut out = String::new();
        let path = results.join(fig.file);
        let written = ctx.run(fig, &mut out).and_then(|entry| {
            std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
            sage_util::atomic_write(&path, out.as_bytes())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let mut manifest = read_manifest(&results)?;
            manifest.insert(fig.file.to_string(), entry);
            write_manifest(&results, &manifest)
        });
        let secs = t0.elapsed().as_secs_f64();
        match written {
            Ok(()) => println!("{}\t{}\t({secs:.0} s)", fig.id, fig.file),
            Err(why) => {
                failed += 1;
                eprintln!("{} FAILED: {why}", fig.id);
            }
        }
    }
    failed
}
