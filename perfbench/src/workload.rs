//! The three workloads: how each builds its table, its model backends and its
//! detector, and how one timed set-up plus `detect` runs on it.

use crate::probe::Cpu;
use crate::trace::{TimedClient, Tracer};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use zeroed_core::{DetectionOutcome, RouterConfig, RouterLlm, ZeroEd, ZeroEdConfig};
use zeroed_datagen::{generate, DatasetSpec, GenerateOptions, GeneratedDataset};
use zeroed_llm::{FaultSchedule, LlmClient, LlmProfile, MangleSchedule, SimLlm};
use zeroed_table::ErrorMask;

/// Simulated serving latency: calls sleep their modelled latency in full.
const LATENCY_SCALE: f64 = 1.0;
/// The cold workload's slow backend: 15% of calls take a 250 ms tail.
const SLOW_TAIL_RATE: f64 = 0.15;
const SLOW_TAIL_MS: f64 = 250.0;
/// Share of responses corrupted on the cold workload's backends.
const MANGLE_RATE: f64 = 0.2;
/// Set-up time one `setup_s` sample accumulates: a set-up without a store
/// takes a few hundred nanoseconds, too short to time one at a time.
const SETUP_GROUP: Duration = Duration::from_millis(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Hospital 5k x 20, paper config, one oracle backend, no store.
    HospitalDefault,
    /// Wide 2k x 30, fast config, two mangling backends (one slow-tailed)
    /// behind a hedging router, write-through to a fresh store per detect.
    WideFaultyCold,
    /// The wide table and config on one healthy backend, replayed from a
    /// store primed during set-up by a fresh detector per detect.
    WideWarmRestart,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::HospitalDefault,
        Kind::WideFaultyCold,
        Kind::WideWarmRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HospitalDefault => "hospital_default",
            Kind::WideFaultyCold => "wide_faulty_cold",
            Kind::WideWarmRestart => "wide_warm_restart",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn routed(self) -> bool {
        self == Kind::WideFaultyCold
    }
}

/// Generator seed of every workload's table. The table stays fixed, like the
/// paper's benchmark tables; the workload seed varies the model: its answers,
/// latencies, injected faults and corruptions.
const TABLE_SEED: u64 = 7;

/// SplitMix64 step: derives independent sub-seeds from the workload seed.
fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Model tokens and calls billed by the backends during one detect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Billed {
    pub input: usize,
    pub output: usize,
    pub requests: usize,
    /// Re-ask share of `input + output`.
    pub reask_tokens: usize,
    /// Tokens of hedges the router cancelled (billed by no backend ledger).
    pub hedge_waste: usize,
}

impl Billed {
    /// Every token paid for: backend ledgers plus cancelled hedges.
    pub fn tokens(&self) -> usize {
        self.input + self.output + self.hedge_waste
    }
}

/// One `detect` (after its untimed set-up), with the detector kept alive
/// for a replay.
pub struct DetectRun {
    pub wall: Duration,
    pub cpu: Cpu,
    pub outcome: DetectionOutcome,
    pub billed: Billed,
    /// Simulated serving time the backends charged (ledger `sim_cost`).
    pub serving: Duration,
    // Field order is drop order: the detector syncs and closes its store
    // before the store root is removed.
    pub detector: ZeroEd,
    root: Option<TempRoot>,
}

/// A directory removed when dropped.
pub struct TempRoot(PathBuf);

impl TempRoot {
    pub fn create(path: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Workload {
    pub kind: Kind,
    pub ds: GeneratedDataset,
    config: ZeroEdConfig,
    sim_seed: u64,
    fault_seed: u64,
    mangle_seed: u64,
    tmp: PathBuf,
    roots: usize,
    /// Warm workload: the primed store root and its cold detect's mask.
    primed: Option<(TempRoot, ErrorMask, Billed)>,
}

impl Workload {
    /// Generates the workload's table and derives its model seeds from
    /// `seed`. Store roots go under `tmp`.
    pub fn new(kind: Kind, seed: u64, tmp: PathBuf) -> Self {
        let (spec, n_rows, config) = match kind {
            Kind::HospitalDefault => (DatasetSpec::Hospital, 5_000, ZeroEdConfig::default()),
            Kind::WideFaultyCold | Kind::WideWarmRestart => {
                (DatasetSpec::Wide, 2_000, ZeroEdConfig::fast())
            }
        };
        let ds = generate(
            spec,
            &GenerateOptions {
                n_rows,
                seed: TABLE_SEED,
                error_spec: None,
            },
        );
        Self {
            kind,
            ds,
            config,
            sim_seed: derive(seed, 1),
            fault_seed: derive(seed, 2),
            mangle_seed: derive(seed, 3),
            tmp,
            roots: 0,
            primed: None,
        }
    }

    /// Warm workload only: one cold detect writing through to the store root
    /// the timed detects then replay.
    pub fn prime(&mut self) -> Result<(), String> {
        if self.kind != Kind::WideWarmRestart {
            return Ok(());
        }
        let DetectRun {
            outcome,
            billed,
            detector,
            root,
            ..
        } = self.detect(None)?;
        // Sync and close the store before detects reopen it.
        drop(detector);
        let root = root.expect("a cold detect gets a fresh store root");
        self.primed = Some((root, outcome.mask, billed));
        Ok(())
    }

    /// The warm workload's primed mask (the reference its detects must match)
    /// and the tokens priming billed.
    pub fn primed(&self) -> Option<(&ErrorMask, Billed)> {
        self.primed
            .as_ref()
            .map(|(_, mask, billed)| (mask, *billed))
    }

    /// Fresh simulated backends for one detect: the harness's model server,
    /// so their construction is not set-up time.
    fn backends(&self) -> Vec<SimLlm> {
        let types: Vec<_> = self
            .ds
            .injected
            .iter()
            .map(|e| ((e.row, e.col), e.error_type))
            .collect();
        let sim = || {
            SimLlm::new(LlmProfile::qwen_72b(), self.sim_seed)
                .with_oracle(self.ds.mask.clone())
                .with_error_types(types.clone())
                .with_latency_scale(LATENCY_SCALE)
        };
        match self.kind {
            Kind::HospitalDefault | Kind::WideWarmRestart => vec![sim()],
            Kind::WideFaultyCold => {
                let mangle = MangleSchedule::uniform(self.mangle_seed, MANGLE_RATE);
                vec![
                    sim()
                        .with_faults(FaultSchedule::slow_tail(
                            self.fault_seed,
                            SLOW_TAIL_RATE,
                            SLOW_TAIL_MS,
                        ))
                        .with_mangling(mangle),
                    sim()
                        .with_faults(FaultSchedule::healthy(self.fault_seed.wrapping_add(1)))
                        .with_mangling(mangle),
                ]
            }
        }
    }

    /// The store root and config one detector gets: a fresh root on the cold
    /// workloads that persist, the primed root on the warm one.
    fn detector_config(&mut self) -> std::io::Result<(ZeroEdConfig, Option<TempRoot>)> {
        let mut config = self.config.clone();
        if self.kind.routed() {
            let mut rc = RouterConfig::for_backends(2);
            // Hedging is on by default. Its default p95 deadline would fall
            // inside the 15% slow tail; p90 keeps the deadline on healthy
            // latency, so slow calls are hedged.
            rc.hedge.percentile = 0.90;
            rc.latency_scale = LATENCY_SCALE;
            config = config.with_router(rc);
        }
        let fresh = match (&self.primed, self.kind) {
            (Some((root, _, _)), _) => {
                config = config.with_store_dir(root.path().to_string_lossy());
                None
            }
            (None, Kind::HospitalDefault) => None,
            (None, _) => {
                self.roots += 1;
                let root = TempRoot::create(self.tmp.join(format!("store-{}", self.roots)))?;
                config = config.with_store_dir(root.path().to_string_lossy());
                Some(root)
            }
        };
        Ok((config, fresh))
    }

    /// The set-up `setup_s` times: `ZeroEd::try_new`, which opens and
    /// preloads the store, plus building the router over `clients` when
    /// routed.
    fn set_up<'a>(
        &self,
        config: ZeroEdConfig,
        clients: &[&'a dyn LlmClient],
    ) -> Result<(ZeroEd, Option<RouterLlm<'a>>), String> {
        let detector = ZeroEd::try_new(config).map_err(|e| e.to_string())?;
        let router = self
            .kind
            .routed()
            .then(|| RouterLlm::from_runtime(&detector.config().runtime, clients.to_vec()));
        Ok((detector, router))
    }

    /// One `setup_s` sample: set-ups alone, repeated until they add up to
    /// [`SETUP_GROUP`], as their mean.
    pub fn setup_sample(&mut self) -> Result<Duration, String> {
        let sims = self.backends();
        let clients: Vec<&dyn LlmClient> = sims.iter().map(|s| s as &dyn LlmClient).collect();
        let (mut total, mut n) = (Duration::ZERO, 0u32);
        while total < SETUP_GROUP {
            let (config, _root) = self.detector_config().map_err(|e| e.to_string())?;
            let t = Instant::now();
            let built = self.set_up(config, &clients)?;
            total += t.elapsed();
            n += 1;
            drop(built);
        }
        Ok(total / n)
    }

    /// One set-up plus `detect`. With a tracer, every backend is wrapped in a
    /// [`TimedClient`] and the set-up and detect become root spans.
    pub fn detect(&mut self, tracer: Option<&Tracer>) -> Result<DetectRun, String> {
        let sims = self.backends();
        let detect_id = tracer.map_or(0, Tracer::new_id);
        let timed: Vec<TimedClient<'_>> = match tracer {
            Some(t) => sims
                .iter()
                .map(|s| TimedClient::new(s, t, detect_id))
                .collect(),
            None => Vec::new(),
        };
        let clients: Vec<&dyn LlmClient> = if tracer.is_some() {
            timed.iter().map(|c| c as &dyn LlmClient).collect()
        } else {
            sims.iter().map(|s| s as &dyn LlmClient).collect()
        };
        let (config, root) = self.detector_config().map_err(|e| e.to_string())?;
        let (detector, router) = match tracer {
            Some(tr) => tr.time("setup", 0, || self.set_up(config, &clients)),
            None => self.set_up(config, &clients),
        }?;

        let dirty = &self.ds.dirty;
        let run = || match &router {
            Some(r) => detector.detect_routed(dirty, r),
            None => detector.detect(dirty, clients[0]),
        };
        let cpu0 = Cpu::now();
        let t = Instant::now();
        let outcome = match tracer {
            Some(tr) => tr.time_as(detect_id, "detect", 0, run),
            None => run(),
        };
        let wall = t.elapsed();
        let cpu = Cpu::now().since(cpu0);
        drop(router);

        let mut billed = Billed {
            hedge_waste: outcome.stats.router_hedge_waste_tokens,
            ..Billed::default()
        };
        let mut serving = Duration::ZERO;
        for sim in &sims {
            let usage = sim.ledger().usage();
            billed.input += usage.input_tokens;
            billed.output += usage.output_tokens;
            billed.requests += usage.requests;
            billed.reask_tokens += sim.ledger().reask_usage().total();
            serving += sim.ledger().sim_cost();
        }
        Ok(DetectRun {
            wall,
            cpu,
            outcome,
            billed,
            serving,
            detector,
            root,
        })
    }

    /// A backend for replaying against a warm cache: every request must hit,
    /// so it is never called.
    pub fn replay_backend(&self) -> SimLlm {
        self.backends().swap_remove(0)
    }
}
