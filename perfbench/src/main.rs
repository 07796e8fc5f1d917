//! The repo benchmark: one client thread running a closed loop of
//! back-to-back `ZeroEd::detect` calls on one workload, checking every
//! output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hospital_default|wide_faulty_cold|wide_warm_restart> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
//! runs one untraced and one traced detect, then replays the pipeline stages
//! against the warm cache, and reports the per-layer metrics; at its end it
//! writes every recorded span to `.bench_spans/<workload>-<seed>.jsonl` in the
//! working directory. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. METRICS.md beside
//! this crate says why each workload exists and which end-to-end metric each
//! layer metric moves.

mod probe;
mod replay;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Span, Tracer, CALL_PREFIX};
use workload::{Billed, DetectRun, Kind, TempRoot, Workload};
use zeroed_table::ErrorMask;

/// Set-up samples taken before each detect; `setup_s` is the median of all
/// of a run's samples.
const SETUP_SAMPLES_PER_DETECT: usize = 11;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(format!("bad --seconds '{value}'"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metrics one run reports, in order, with their units.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn secs(&mut self, name: &'static str, d: Duration) {
        self.put(name, d.as_secs_f64(), "s");
    }

    fn count(&mut self, name: &'static str, n: impl TryInto<u64>) {
        let n: u64 = n.try_into().unwrap_or(u64::MAX);
        self.put(name, n as f64, "count");
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                // Non-finite values are not JSON; none should occur.
                let v = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of `values` (sorted in place); 0 when empty.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Runs `f`, turning a panic into an error.
fn unwind<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("{what} panicked: {msg}"))
    })
}

/// Runs one set-up plus detect, turning a panic into an error.
fn attempt(w: &mut Workload, tracer: Option<&Tracer>) -> Result<DetectRun, String> {
    unwind("detect", || w.detect(tracer))
}

/// Per-detect correctness checks. `reference` holds the mask and F1 every
/// repeat must reproduce; it is the primed detect's on the warm workload,
/// otherwise the first detect's. Returns the detect's F1.
fn check(
    w: &Workload,
    run: &DetectRun,
    reference: &mut Option<(ErrorMask, f64)>,
) -> Result<f64, String> {
    let mask = &run.outcome.mask;
    let f1 = mask
        .score_against(&w.ds.mask)
        .map_err(|e| format!("mask cannot be scored: {e}"))?
        .f1;
    if !f1.is_finite() {
        return Err(format!("F1 is {f1}"));
    }
    match reference {
        None => *reference = Some((mask.clone(), f1)),
        Some((m, f)) => {
            if m != mask {
                return Err("mask differs from the reference detect".into());
            }
            if f.to_bits() != f1.to_bits() {
                return Err(format!("F1 {f1} differs from the reference {f}"));
            }
        }
    }
    match w.kind {
        Kind::WideFaultyCold => {
            let repair = run.outcome.stats.repair;
            let mangled = repair.total_mangled();
            let (repaired, reasked, defaulted) = repair.total_handled();
            if !repair.reconciles() || mangled != repaired + reasked + defaulted {
                return Err(format!(
                    "repair does not reconcile: mangled {mangled} != repaired {repaired} \
                     + reasked {reasked} + defaulted {defaulted}"
                ));
            }
            if mangled == 0 {
                return Err("the mangle schedule corrupted no response".into());
            }
        }
        Kind::WideWarmRestart => {
            if run.billed.requests != 0 {
                return Err(format!(
                    "warm restart issued {} model requests",
                    run.billed.requests
                ));
            }
        }
        Kind::HospitalDefault => {}
    }
    Ok(f1)
}

/// The warm workload's reference: its set-up's cold detect.
fn primed_reference(w: &Workload) -> Option<(ErrorMask, f64)> {
    w.primed().map(|(mask, _)| {
        let f1 = mask.score_against(&w.ds.mask).map_or(f64::NAN, |r| r.f1);
        (mask.clone(), f1)
    })
}

/// Where a run keeps its store roots: a directory of its own under
/// `.bench_tmp/` in the working directory, removed when the run ends.
fn temp_dir(kind: Kind) -> std::io::Result<TempRoot> {
    TempRoot::create(PathBuf::from(".bench_tmp").join(format!(
        "{}-{}",
        kind.name(),
        std::process::id()
    )))
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = match temp_dir(args.kind) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: cannot create the temp dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = run(&args, &tmp);
    drop(tmp);
    // Leaves no empty parent behind; fails harmlessly while others use it.
    let _ = std::fs::remove_dir(".bench_tmp");
    match result {
        Ok(out) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                out.failed == 0,
                out.attempted,
                out.failed,
                out.metrics.to_json()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, tmp: &TempRoot) -> Result<Outcome, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} ({cores} cores)",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut w = Workload::new(args.kind, args.seed, tmp.path().to_path_buf());
    w.prime()?;
    if args.trace {
        traced(args, &mut w)
    } else {
        closed_loop(args, &mut w)
    }
}

/// `--trace 0`: back-to-back detects for `--seconds`, end-to-end metrics.
fn closed_loop(args: &Args, w: &mut Workload) -> Result<Outcome, String> {
    let mut reference = primed_reference(w);
    let (primed_tokens, primed_requests) =
        w.primed().map_or((0, 0), |(_, b)| (b.tokens(), b.requests));
    let budget = Duration::from_secs(args.seconds);
    let (mut attempted, mut failed) = (0, 0);
    let (mut setups, mut walls, mut cpus, mut rss, mut tokens, mut requests) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    loop {
        attempted += 1;
        // Set-up samples spread over the whole run, so the host's load at one
        // moment does not set the figure.
        for _ in 0..SETUP_SAMPLES_PER_DETECT {
            setups.push(w.setup_sample()?.as_secs_f64());
        }
        // Each detect's own high-water mark, so one allocator outlier cannot
        // set the figure for the whole run.
        if !probe::reset_peak_rss() && attempted == 1 {
            eprintln!(
                "perfbench: VmHWM cannot be reset; peak_rss_mb is the high-water mark so far"
            );
        }
        let t = Instant::now();
        match attempt(w, None).and_then(|run| check(w, &run, &mut reference).map(|_| run)) {
            Ok(run) => {
                rss.push(probe::peak_rss_mb());
                walls.push(run.wall.as_secs_f64());
                cpus.push(run.cpu.total().as_secs_f64());
                tokens.push((run.billed.tokens() + primed_tokens) as f64);
                requests.push((run.billed.requests + primed_requests) as f64);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: detect {attempted} failed: {e}");
            }
        }
        // Stop before a detect that would end past the budget.
        if start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let f1 = reference.map_or(0.0, |(_, f1)| f1);
    let setup_s = median(&mut setups);
    eprintln!(
        "perfbench: {} detects ({failed} failed); detect_s {:?}; setup_s median {setup_s:.9} \
         of {} samples, min {:.9}, max {:.9}",
        walls.len(),
        walls,
        setups.len(),
        setups[0],
        setups[setups.len() - 1]
    );
    let mut m = Metrics::default();
    m.put("detect_s", median(&mut walls), "s");
    m.put("cpu_s", median(&mut cpus), "s");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", median(&mut rss), "MB");
    m.put("f1", f1, "ratio");
    m.put("llm_tokens", median(&mut tokens), "tokens");
    m.put("llm_requests", median(&mut requests), "requests");
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Total wall covered by the union of `spans`' intervals.
fn busy(spans: &[&Span]) -> Duration {
    let mut iv: Vec<(Duration, Duration)> = spans.iter().map(|s| (s.start, s.end)).collect();
    iv.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (s, e) in iv {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(Duration::ZERO, |(s, e)| e - s)
}

/// `--trace 1`: an untraced detect, a traced detect (spans around set-up,
/// detect and every model call), then the stage replay; per-layer metrics.
/// A detect that fails still yields a result line, with `failed` counting it
/// and without the metrics it would have given.
fn traced(args: &Args, w: &mut Workload) -> Result<Outcome, String> {
    let mut reference = primed_reference(w);
    let mut failed = 0;
    let untraced = match attempt(w, None) {
        Ok(run) => {
            if let Err(e) = check(w, &run, &mut reference) {
                failed += 1;
                eprintln!("perfbench: untraced detect failed: {e}");
            }
            Some(Untraced {
                wall: run.wall,
                mask: run.outcome.mask.clone(),
                billed: run.billed,
            })
        }
        Err(e) => {
            failed += 1;
            eprintln!("perfbench: untraced detect failed: {e}");
            None
        }
    };

    let tracer = Tracer::new();
    let mut failures: Vec<String> = Vec::new();
    let metrics = attempt(w, Some(&tracer))
        .and_then(|run| layer_metrics(w, &run, &tracer, &mut reference, &untraced, &mut failures))
        .unwrap_or_else(|e| {
            failures.push(e);
            Metrics::default()
        });
    for f in &failures {
        eprintln!("perfbench: traced detect failed: {f}");
    }
    failed += usize::from(!failures.is_empty());

    let dir = PathBuf::from(".bench_spans");
    let path = dir.join(format!("{}-{}.jsonl", args.kind.name(), args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(Outcome {
        attempted: 2,
        failed,
        metrics,
    })
}

/// What the traced run keeps of the untraced detect.
struct Untraced {
    wall: Duration,
    mask: ErrorMask,
    billed: Billed,
}

/// Checks the traced detect and its replay, pushing each failed check onto
/// `failures`, and returns the per-layer metrics. An error means the metrics
/// cannot be computed.
fn layer_metrics(
    w: &Workload,
    run: &DetectRun,
    tracer: &Tracer,
    reference: &mut Option<(ErrorMask, f64)>,
    untraced: &Option<Untraced>,
    failures: &mut Vec<String>,
) -> Result<Metrics, String> {
    if let Err(e) = check(w, run, reference) {
        failures.push(e);
    }
    // The wrapper must change nothing the program computes or bills.
    if let Some(u) = untraced {
        if run.outcome.mask != u.mask {
            failures.push("wrapped and unwrapped detects gave different masks".into());
        }
        if run.billed != u.billed {
            failures.push(format!(
                "wrapped detect billed {:?}, unwrapped {:?}",
                run.billed, u.billed
            ));
        }
    }

    let backend = w.replay_backend();
    let replay_id = tracer.new_id();
    let rep = unwind("replay", || {
        Ok(tracer.time_as(replay_id, "replay", 0, || {
            replay::replay(&run.detector, &w.ds.dirty, &backend, tracer, replay_id)
        }))
    })?;
    if rep.mask != run.outcome.mask {
        failures.push("replayed stages did not reproduce the detect mask".into());
    }
    if rep.cache_misses != 0 {
        failures.push(format!(
            "replay missed the warm cache {} times",
            rep.cache_misses
        ));
    }

    let spans = tracer.spans();
    let one = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| format!("span {name} missing"))
    };
    let detect_id = spans
        .iter()
        .find(|s| s.name == "detect" && s.parent == 0)
        .ok_or("the traced detect recorded no root span")?
        .id;
    let cpu_of = |s: &Span| s.cpu.unwrap_or_default();
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent == detect_id && s.name.starts_with(CALL_PREFIX))
        .collect();
    let mut call_ms: Vec<f64> = calls.iter().map(|s| s.wall().as_secs_f64() * 1e3).collect();

    let stats = &run.outcome.stats;
    let profile = stats.stage_profile.as_ref();
    let node_wall = |path: &str| {
        profile
            .and_then(|p| p.find(path))
            .map_or(Duration::ZERO, |n| n.wall())
    };
    let store_timings = run.detector.store().map(|l| l.timings());
    let repair = stats.repair;
    let (repaired, reasked, defaulted) = repair.total_handled();
    let lookups = stats.cache_hits + stats.cache_misses;

    let mut m = Metrics::default();
    let features = [
        "table.intern",
        "features.nmi",
        "features.fit",
        "features.build",
    ];
    m.secs("table.intern_s", one("table.intern")?.wall());
    m.secs("features.nmi_s", one("features.nmi")?.wall());
    m.secs("features.fit_s", one("features.fit")?.wall());
    m.secs("features.build_s", one("features.build")?.wall());
    m.secs(
        "features.cpu_s",
        features
            .iter()
            .map(|n| one(n).map(|s| cpu_of(s).total()))
            .sum::<Result<Duration, String>>()?,
    );
    m.secs("criteria.features_s", one("criteria.features")?.wall());
    m.secs("criteria.verify_s", rep.verify);
    m.count("criteria.checks", rep.criteria_checks);
    let per_column = [
        (
            "sampling",
            "sampling.column",
            [
                "sampling.wall_s",
                "sampling.cpu_s",
                "sampling.sys_s",
                "sampling.column_max_s",
            ],
        ),
        (
            "detector",
            "detector.column",
            [
                "detector.wall_s",
                "detector.cpu_s",
                "detector.sys_s",
                "detector.column_max_s",
            ],
        ),
    ];
    for (stage, column, [wall_s, cpu_s, sys_s, max_s]) in per_column {
        let span = one(stage)?;
        let column_max = spans
            .iter()
            .filter(|s| s.name == column)
            .map(Span::wall)
            .max()
            .unwrap_or_default();
        m.secs(wall_s, span.wall());
        m.secs(cpu_s, cpu_of(span).total());
        m.secs(sys_s, cpu_of(span).sys);
        m.secs(max_s, column_max);
    }
    m.put("cluster.unique_ratio", rep.unique_ratio, "ratio");
    m.count("detector.train_rows", rep.train_rows);

    m.count("llm.calls", calls.len());
    m.put("llm.input_tokens", run.billed.input as f64, "tokens");
    m.put("llm.output_tokens", run.billed.output as f64, "tokens");
    m.secs("llm.serving_s", run.serving);
    m.secs("llm.busy_s", busy(&calls));
    m.put("llm.call_p50_ms", quantile(&mut call_ms, 0.50), "ms");
    m.put("llm.call_p99_ms", quantile(&mut call_ms, 0.99), "ms");
    m.secs("labeling.wall_s", run.outcome.timings.labeling);
    m.secs("training_data.wall_s", run.outcome.timings.training_data);
    m.secs("criteria.llm_s", node_wall("features/criteria_llm"));

    m.count("repair.mangled", repair.total_mangled());
    m.count("repair.repaired", repaired);
    m.count("repair.reasked", reasked);
    m.count("repair.defaulted", defaulted);
    m.put(
        "repair.reask_tokens",
        run.billed.reask_tokens as f64,
        "tokens",
    );

    m.count("runtime.tasks", stats.runtime_tasks);
    m.count("runtime.retries", stats.runtime_retries);
    m.secs("runtime.queue_wait_s", node_wall("runtime/queue_wait"));
    m.count("cache.hits", stats.cache_hits);
    m.count("cache.misses", stats.cache_misses);
    m.count("cache.coalesced", stats.cache_coalesced);
    m.put(
        "cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            stats.cache_hits as f64 / lookups as f64
        },
        "ratio",
    );
    m.put(
        "cache.tokens_saved",
        stats.cache_tokens_saved as f64,
        "tokens",
    );
    m.count("router.requests", stats.router_requests);
    m.count("router.failovers", stats.router_failovers);
    m.count("router.hedges_fired", stats.router_hedges_fired);
    m.count("router.hedges_won", stats.router_hedges_won);
    m.put(
        "router.hedge_waste_tokens",
        stats.router_hedge_waste_tokens as f64,
        "tokens",
    );

    let nanos = |n: u64| Duration::from_nanos(n);
    m.secs(
        "store.open_s",
        store_timings.map_or(Duration::ZERO, |t| nanos(t.open_nanos)),
    );
    m.secs(
        "store.preload_s",
        store_timings.map_or(Duration::ZERO, |t| nanos(t.preload_nanos)),
    );
    m.count("store.preloaded_records", stats.store_preloaded_records);
    m.count("store.persisted_records", stats.store_persisted_records);
    m.put(
        "store.persisted_bytes",
        stats.store_persisted_bytes as f64,
        "bytes",
    );
    // Needs the untraced detect; when that failed, the run already counts it.
    if let Some(u) = untraced {
        m.put(
            "trace.overhead_pct",
            (run.wall.as_secs_f64() / u.wall.as_secs_f64() - 1.0) * 100.0,
            "%",
        );
    }

    eprintln!(
        "perfbench: untraced detect {}, traced {:.3}s, replay {:.3}s, {} spans",
        untraced
            .as_ref()
            .map_or("failed".into(), |u| format!("{:.3}s", u.wall.as_secs_f64())),
        run.wall.as_secs_f64(),
        one("replay")?.wall().as_secs_f64(),
        spans.len()
    );
    Ok(m)
}
