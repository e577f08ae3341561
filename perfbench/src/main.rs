//! `perfbench` — end-to-end and per-layer benchmark of whole federated runs
//! driven through `FlEngine::session` → `Session::next_event`.
//!
//! ```text
//! perfbench --workload <name> [--seed 42] [--seconds 30] [--trace 0|1] [--out dir]
//! python3 perfbench/run.py ...     # builds this binary first; see run.py
//! ```
//!
//! An untraced invocation (`--trace 0`) runs `round(seconds / federation_s)`
//! federations, the first on `--seed` and the rest on seeds drawn from it,
//! then times 15 set-ups (`ExperimentSpec::build_context` +
//! `FlEngine::session`), and prints the end-to-end metrics as medians.
//! A traced invocation (`--trace 1`) runs the `--seed` federation untraced,
//! then traced, prints the traced run's per-layer metrics and writes its spans
//! to `<out>/<workload>-seed<seed>.{spans,trace}.json`. The last line of
//! standard output is always one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it is the run's provenance, and
//! human-readable tables go to standard error.
//!
//! Every run is checked: the traced and untraced runs of one federation must
//! produce the same `MetricsReport::digest()`, which must equal the recorded
//! one at the default seed; the final accuracy must be finite; every client
//! update must carry a non-empty payload; and the federation must assign at
//! least two distinct models.

mod layers;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use mhfl_algorithms::build_algorithm;
use mhfl_fl::{FederationContext, FlAlgorithm, FlEngine, MetricsReport, RoundEvent, Session};
use mhfl_tensor::{ArenaStats, TensorArena};

use layers::{CheckedRunner, Ledger, TracedAlgorithm};
use trace::{json_str, Span, Tracer};
use workload::{model_histogram, model_label, Workload, DEFAULT_SEED, WORKLOADS};

/// Set-ups timed per untraced invocation; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; known: {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out,
    })
}

/// User+system CPU seconds of this process so far, all threads included
/// (`/proc/self/stat`, in clock ticks of 1/100 s).
fn cpu_secs() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let after_comm = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / TICKS_PER_SEC
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value");
    kib / 1024.0
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The seed of the `k`-th federation of an invocation: the invocation's own
/// seed first, then splitmix64 draws from it.
fn sub_seed(seed: u64, k: usize) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The highest percentile with at least ten samples beyond it, as
/// `(value, percentile)`; the median when there are fewer than 20 samples.
fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 20 {
        return (median(values), 50.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// One federated run: set-up, then the session from the first
/// `next_event` to `RunCompleted`.
struct Run {
    build_context_s: f64,
    session_open_s: f64,
    run_s: f64,
    cpu_s: f64,
    report: MetricsReport,
    events: usize,
    round_s: Vec<f64>,
    /// Present on traced runs.
    spans: Vec<Span>,
    arena: Option<ArenaStats>,
}

/// Drives a session, timing each round between successive
/// `RoundCompleted` events and, when traced, recording round spans.
struct RunLoop<'t> {
    tracer: Option<&'t Tracer>,
    run_span: u64,
    run_start_ns: u64,
    events: usize,
    round_s: Vec<f64>,
    round_start: Instant,
    round_start_ns: u64,
    report: Option<MetricsReport>,
}

impl<'t> RunLoop<'t> {
    fn new(tracer: Option<&'t Tracer>) -> Self {
        let run_span = tracer.map_or(0, |t| t.new_id());
        let mut run_loop = RunLoop {
            tracer,
            run_span,
            run_start_ns: tracer.map_or(0, Tracer::now_ns),
            events: 0,
            round_s: Vec::new(),
            round_start: Instant::now(),
            round_start_ns: 0,
            report: None,
        };
        run_loop.open_round(1);
        run_loop
    }

    fn open_round(&mut self, round: u64) {
        self.round_start = Instant::now();
        if let Some(t) = self.tracer {
            self.round_start_ns = t.now_ns();
            t.open_round(t.new_id(), round);
        }
    }

    /// Runs until `stop_after` rounds have completed or the run ends.
    fn drive(
        &mut self,
        session: &mut Session<'_>,
        stop_after: Option<usize>,
    ) -> Result<(), String> {
        while let Some(event) = session.next_event().map_err(|e| e.to_string())? {
            self.events += 1;
            match event {
                RoundEvent::RoundCompleted { round, .. } => {
                    self.round_s.push(self.round_start.elapsed().as_secs_f64());
                    if let Some(t) = self.tracer {
                        t.push(Span {
                            id: t.round_span(),
                            parent: self.run_span,
                            name: "fl.session.round",
                            round: round as u64,
                            start_ns: self.round_start_ns,
                            end_ns: t.now_ns(),
                            client: None,
                            items: 0,
                        });
                    }
                    self.open_round(round as u64 + 1);
                    if stop_after == Some(round) {
                        return Ok(());
                    }
                }
                RoundEvent::RunCompleted { report } => self.report = Some(report),
                _ => {}
            }
        }
        Ok(())
    }
}

fn new_algorithm(w: &Workload, tracer: Option<&Arc<Tracer>>) -> Box<dyn FlAlgorithm> {
    let inner = build_algorithm(w.method);
    match tracer {
        Some(tracer) => Box::new(TracedAlgorithm {
            inner,
            tracer: Arc::clone(tracer),
        }),
        None => inner,
    }
}

fn open_session<'a>(
    engine: &FlEngine,
    algorithm: &'a mut dyn FlAlgorithm,
    ctx: &'a FederationContext,
    ledger: &Arc<Ledger>,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Session<'a>, String> {
    let mut session = engine.session(algorithm, ctx).map_err(|e| e.to_string())?;
    session.set_client_runner(checked_runner(ledger, tracer));
    Ok(session)
}

fn checked_runner(ledger: &Arc<Ledger>, tracer: Option<&Arc<Tracer>>) -> Box<CheckedRunner> {
    Box::new(CheckedRunner {
        ledger: Arc::clone(ledger),
        tracer: tracer.cloned(),
    })
}

/// Times `ExperimentSpec::build_context` plus `FlEngine::session` once,
/// without running the session.
fn setup_once(
    w: &Workload,
    seed: u64,
    workers: usize,
    ledger: &Arc<Ledger>,
) -> Result<f64, String> {
    let spec = w.spec(seed, workers);
    let engine = w.engine(&spec);
    let start = Instant::now();
    let ctx = spec.build_context().map_err(|e| e.to_string())?;
    let mut algorithm = new_algorithm(w, None);
    algorithm.set_robust_aggregation(spec.robust);
    let session = open_session(&engine, algorithm.as_mut(), &ctx, ledger, None)?;
    let elapsed = start.elapsed().as_secs_f64();
    drop(session);
    Ok(elapsed)
}

/// One federated run. A traced run also checkpoints the session halfway,
/// drops it and resumes on a fresh algorithm, so its digest proves that the
/// wrappers forward `snapshot` and `restore`; the checkpoint's time is left
/// out of `run_s`.
fn run_once(
    w: &Workload,
    seed: u64,
    workers: usize,
    ledger: &Arc<Ledger>,
    traced: bool,
    inspect: &mut dyn FnMut(&FederationContext),
) -> Result<Run, String> {
    let tracer = traced.then(|| Arc::new(Tracer::new()));
    let spec = w.spec(seed, workers);
    let engine = w.engine(&spec);

    let stamp = || tracer.as_ref().map_or(0, |t| t.now_ns());
    let (t0, s0) = (Instant::now(), stamp());
    let ctx = spec.build_context().map_err(|e| e.to_string())?;
    let (t1, s1) = (Instant::now(), stamp());
    let mut algorithm = new_algorithm(w, tracer.as_ref());
    algorithm.set_robust_aggregation(spec.robust);
    let mut resumed_algorithm: Box<dyn FlAlgorithm>;
    let mut session = open_session(&engine, algorithm.as_mut(), &ctx, ledger, tracer.as_ref())?;
    let (t2, s2) = (Instant::now(), stamp());
    if let Some(t) = &tracer {
        for (name, start_ns, end_ns) in
            [("core.build_context", s0, s1), ("fl.session_open", s1, s2)]
        {
            t.push(Span {
                id: t.new_id(),
                parent: 0,
                name,
                round: 0,
                start_ns,
                end_ns,
                client: None,
                items: 0,
            });
        }
    }
    inspect(&ctx);

    let arena_before = TensorArena::global().stats();
    let cpu0 = cpu_secs();
    let start = Instant::now();
    let mut run_loop = RunLoop::new(tracer.as_deref());
    let mut checkpoint_s = 0.0;
    let stop_after = (traced && w.rounds >= 2).then_some(w.rounds / 2);
    run_loop.drive(&mut session, stop_after)?;
    if run_loop.report.is_none() {
        let (pause, pause_ns) = (Instant::now(), stamp());
        let checkpoint = session.checkpoint().map_err(|e| e.to_string())?;
        drop(session);
        resumed_algorithm = new_algorithm(w, tracer.as_ref());
        resumed_algorithm.set_robust_aggregation(spec.robust);
        session = engine
            .restore(resumed_algorithm.as_mut(), &ctx, &checkpoint)
            .map_err(|e| e.to_string())?;
        session.set_client_runner(checked_runner(ledger, tracer.as_ref()));
        let paused = pause.elapsed();
        checkpoint_s = paused.as_secs_f64();
        run_loop.round_start += paused;
        if let Some(t) = &tracer {
            t.close("fl.session.checkpoint_restore", t.new_id(), pause_ns, 0);
        }
        run_loop.drive(&mut session, None)?;
    }
    let run_s = start.elapsed().as_secs_f64() - checkpoint_s;
    let cpu_s = cpu_secs() - cpu0;
    let arena_after = TensorArena::global().stats();
    let report = run_loop
        .report
        .take()
        .ok_or("session ended without RunCompleted")?;
    if let Some(t) = &tracer {
        t.push(Span {
            id: run_loop.run_span,
            parent: 0,
            name: "fl.session.run",
            round: 0,
            start_ns: run_loop.run_start_ns,
            end_ns: t.now_ns(),
            client: None,
            items: 0,
        });
    }
    let arena = cfg!(feature = "alloc-count").then(|| ArenaStats {
        fresh_allocs: arena_after.fresh_allocs - arena_before.fresh_allocs,
        pool_hits: arena_after.pool_hits - arena_before.pool_hits,
        recycled: arena_after.recycled - arena_before.recycled,
        released: arena_after.released - arena_before.released,
    });
    Ok(Run {
        build_context_s: (t1 - t0).as_secs_f64(),
        session_open_s: (t2 - t1).as_secs_f64(),
        run_s,
        cpu_s,
        report,
        events: run_loop.events,
        round_s: run_loop.round_s,
        spans: tracer.map(|t| t.spans()).unwrap_or_default(),
        arena,
    })
}

/// A metric as it goes into the result line.
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: Some(value),
        unit,
    }
}

/// The per-layer metrics of one traced run.
fn layer_metrics(
    run: &Run,
    ctx_labels: &BTreeMap<usize, String>,
    workers: usize,
    distinct_models: usize,
    overhead_s: f64,
    per_model: &mut BTreeMap<String, f64>,
) -> Vec<Metric> {
    let of = |name: &'static str| run.spans.iter().filter(move |s| s.name == name);
    let busy = |name: &'static str| of(name).map(Span::secs).sum::<f64>();
    let calls = |name: &'static str| of(name).count() as f64;

    let updates: Vec<f64> = of("algorithms.client_update").map(Span::secs).collect();
    for s in of("algorithms.client_update") {
        let label = s
            .client
            .and_then(|c| ctx_labels.get(&c))
            .cloned()
            .unwrap_or_default();
        *per_model.entry(label).or_insert(0.0) += s.secs();
    }
    let (update_tail, update_tail_pct) = tail(&updates);
    let (round_tail, round_tail_pct) = tail(&run.round_s);
    let client_busy: f64 = updates.iter().sum();
    let runner_calls = calls("fl.runner.run_clients");
    let runner_clients: usize = of("fl.runner.run_clients").map(|s| s.items).sum();
    let runner_wall = busy("fl.runner.run_clients");
    let aggregate_s = busy("algorithms.aggregate");
    let eval_global_s = busy("algorithms.evaluate_global");
    let eval_client_s = busy("algorithms.evaluate_client");
    let arena = |f: fn(&ArenaStats) -> f64| run.arena.as_ref().map(f);

    let mut m = vec![
        metric("core.build_context_s", run.build_context_s, "s"),
        metric("fl.session_open_s", run.session_open_s, "s"),
        metric(
            "algorithms.client_update.calls",
            updates.len() as f64,
            "count",
        ),
        metric("algorithms.client_update.busy_s", client_busy, "s"),
        metric("algorithms.client_update.p50_s", median(&updates), "s"),
        metric("algorithms.client_update.tail_s", update_tail, "s"),
        metric("algorithms.client_update.tail_pct", update_tail_pct, "%"),
        metric(
            "algorithms.aggregate.calls",
            calls("algorithms.aggregate"),
            "count",
        ),
        metric("algorithms.aggregate.busy_s", aggregate_s, "s"),
        metric(
            "algorithms.aggregate.updates",
            of("algorithms.aggregate").map(|s| s.items).sum::<usize>() as f64,
            "count",
        ),
        metric(
            "algorithms.evaluate_global.calls",
            calls("algorithms.evaluate_global"),
            "count",
        ),
        metric("algorithms.evaluate_global.busy_s", eval_global_s, "s"),
        metric(
            "algorithms.evaluate_client.calls",
            calls("algorithms.evaluate_client"),
            "count",
        ),
        metric("algorithms.evaluate_client.busy_s", eval_client_s, "s"),
        metric("fl.runner.calls", runner_calls, "count"),
        metric(
            "fl.runner.clients_per_call",
            runner_clients as f64 / runner_calls.max(1.0),
            "count",
        ),
        metric("fl.runner.wall_s", runner_wall, "s"),
        metric(
            "fl.runner.idle_share",
            1.0 - client_busy / (runner_wall * workers as f64),
            "ratio",
        ),
        metric("fl.session.events", run.events as f64, "count"),
        metric(
            "fl.session.self_s",
            run.run_s - runner_wall - aggregate_s - eval_global_s - eval_client_s,
            "s",
        ),
        metric("fl.session.round_s_p50", median(&run.round_s), "s"),
        metric("fl.session.round_s_tail", round_tail, "s"),
        metric("fl.session.round_s_tail_pct", round_tail_pct, "%"),
        metric("fl.session.rounds", run.round_s.len() as f64, "count"),
    ];
    for (name, value, unit) in [
        (
            "tensor.arena.fresh_allocs",
            arena(|a| a.fresh_allocs as f64),
            "count",
        ),
        (
            "tensor.arena.pool_hits",
            arena(|a| a.pool_hits as f64),
            "count",
        ),
        (
            "tensor.arena.hit_ratio",
            arena(|a| a.pool_hits as f64 / (a.pool_hits + a.fresh_allocs).max(1) as f64),
            "ratio",
        ),
    ] {
        m.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    m.push(metric(
        "device.distinct_models",
        distinct_models as f64,
        "count",
    ));
    m.push(metric("trace.overhead_s", overhead_s, "s"));
    m
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = m
                .value
                .map_or_else(|| "null".to_string(), |v| format!("{v}"));
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(&m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_table<'m>(title: &str, metrics: impl IntoIterator<Item = &'m Metric>) {
    eprintln!("{title}");
    for m in metrics {
        let value = m
            .value
            .map_or_else(|| "null".to_string(), |v| format!("{v:.6}"));
        eprintln!("  {:<40} {:>16} {}", m.name, value, m.unit);
    }
}

/// What one invocation measured, before it is printed.
struct Outcome {
    metrics: Vec<Metric>,
    /// Printed with the metrics but left out of the result line.
    notes: Vec<Metric>,
    problems: Vec<String>,
    meta: String,
}

fn benchmark(args: &Args, ledger: &Arc<Ledger>) -> Result<Outcome, String> {
    let w = args.workload;
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut problems = Vec::new();
    let mut histogram = BTreeMap::new();
    let mut labels = BTreeMap::new();
    let mut inspect = |ctx: &FederationContext| {
        let models = model_histogram(ctx);
        if models.len() < 2 {
            problems.push(format!("homogeneous federation: {models:?}"));
        }
        if histogram.is_empty() {
            histogram = models;
            labels = (0..ctx.num_clients())
                .map(|c| (c, model_label(ctx, c)))
                .collect();
        }
    };

    // An untraced invocation runs a fixed batch of federations, one per
    // sub-seed, so that the seed-to-seed variation in which clients train
    // and which models are evaluated averages out. A traced invocation runs
    // the first federation untraced and then traced.
    let seeds: Vec<u64> = if args.trace {
        vec![args.seed]
    } else {
        (0..w.federations(args.seconds))
            .map(|k| sub_seed(args.seed, k))
            .collect()
    };
    // On a machine much slower than the reference, stop starting new
    // federations once the window is spent.
    let began = Instant::now();
    let mut plain: Vec<Run> = Vec::new();
    for &seed in &seeds {
        if !plain.is_empty() && began.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        plain.push(run_once(w, seed, workers, ledger, false, &mut inspect)?);
    }
    let seeds = &seeds[..plain.len()];
    let mut traced: Vec<Run> = Vec::new();
    if args.trace {
        traced.push(run_once(w, args.seed, workers, ledger, true, &mut inspect)?);
    }
    // Set-up is timed on its own, after the federations, so that every
    // sample starts from the same process state; peak RSS is read first,
    // as the arena keeps the buffers the set-ups free.
    let peak_rss_mb = peak_rss_mb();
    let setups = if args.trace {
        Vec::new()
    } else {
        (0..SETUP_SAMPLES)
            .map(|_| setup_once(w, args.seed, workers, ledger))
            .collect::<Result<Vec<f64>, String>>()?
    };

    let digest = plain[0].report.digest();
    for run in &traced {
        if run.report.digest() != digest {
            problems.push(format!(
                "traced digest {:016x} differs from the untraced {digest:016x}",
                run.report.digest()
            ));
        }
    }
    if args.seed == DEFAULT_SEED && digest != w.default_digest {
        problems.push(format!(
            "digest {digest:016x} differs from the recorded {:016x}",
            w.default_digest
        ));
    }
    let accuracies: Vec<f64> = plain
        .iter()
        .map(|r| f64::from(r.report.final_accuracy()))
        .collect();
    for (run, accuracy) in plain.iter().zip(&accuracies) {
        if !accuracy.is_finite() || run.report.records.is_empty() {
            problems.push(format!(
                "final accuracy {accuracy} is not a finite evaluation"
            ));
        }
    }
    let failed = ledger.failed.load(Ordering::Relaxed);
    if failed > 0 {
        problems.push(format!(
            "{failed} client updates failed or had empty payloads"
        ));
    }

    eprintln!("model assignment ({} distinct):", histogram.len());
    for (label, count) in &histogram {
        eprintln!("  {label:<32} {count:>5} clients");
    }

    let values = |f: fn(&Run) -> f64, runs: &[Run]| runs.iter().map(f).collect::<Vec<_>>();
    let (metrics, notes) = if args.trace {
        let overhead_s = traced[0].run_s - plain[0].run_s;
        let mut per_model = BTreeMap::new();
        let m = layer_metrics(
            &traced[0],
            &labels,
            workers,
            histogram.len(),
            overhead_s,
            &mut per_model,
        );
        let notes = per_model
            .into_iter()
            .map(|(label, secs)| metric(&format!("client_update busy, {label}"), secs, "s"))
            .collect();
        (m, notes)
    } else {
        let m = vec![
            metric("setup_s", median(&setups), "s"),
            metric("run_s", median(&values(|r| r.run_s, &plain)), "s"),
            metric("cpu_s", median(&values(|r| r.cpu_s, &plain)), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
        // Printed, but not gated: at a few rounds the CV tasks sit near
        // chance, so the accuracy varies more from seed to seed than any
        // bound allows; the digest check pins results exactly instead. The
        // failed ratio is the result line's `failed` / `attempted`.
        let notes = vec![
            metric("final_accuracy", median(&accuracies), "ratio"),
            metric(
                "failed_ratio",
                ledger.failed.load(Ordering::Relaxed) as f64
                    / ledger.attempted.load(Ordering::Relaxed).max(1) as f64,
                "ratio",
            ),
        ];
        (m, notes)
    };

    let histogram_json: Vec<String> = histogram
        .iter()
        .map(|(label, count)| format!("{}: {count}", json_str(label)))
        .collect();
    let meta =
        format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {workers}, \
         \"git_rev\": {}, \"source_sha256\": {}, \"rustc\": {}, \"profile\": {}, \"features\": {}, \
         \"federation_seeds\": {seeds:?}, \"untraced_runs\": {}, \"traced_runs\": {}, \
         \"setup_samples\": {}, \"rounds_per_run\": {}, \"client_updates\": {}, \
         \"digest\": \"{digest:016x}\", \"federation_run_s\": {:?}, \"model_histogram\": {{{}}}}}",
        json_str(w.name),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".into())),
        json_str(&std::env::var("PERFBENCH_SOURCE_SHA256").unwrap_or_else(|_| "unknown".into())),
        json_str(&std::env::var("PERFBENCH_RUSTC").unwrap_or_else(|_| "unknown".into())),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(if cfg!(feature = "alloc-count") { "alloc-count" } else { "" }),
        plain.len(),
        traced.len(),
        setups.len(),
        w.rounds,
        ledger.attempted.load(Ordering::Relaxed),
        values(|r| r.run_s, &plain),
        histogram_json.join(", "),
    );
    if let Some(run) = traced.first() {
        std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
        let stem = format!("{}-seed{}", w.name, args.seed);
        for (suffix, body) in [
            ("spans.json", trace::spans_json(&meta, &run.spans)),
            ("trace.json", trace::chrome_trace_json(&meta, &run.spans)),
        ] {
            let path = args.out.join(format!("{stem}.{suffix}"));
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(Outcome {
        metrics,
        notes,
        problems,
        meta,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let ledger = Arc::new(Ledger::default());
    let outcome = benchmark(&args, &ledger);
    let attempted = ledger.attempted.load(Ordering::Relaxed).max(1);
    let (correct, failed, metrics) = match outcome {
        Ok(outcome) => {
            println!("{{\"meta\": {}}}", outcome.meta);
            print_table(
                &format!(
                    "{} seed {} ({})",
                    args.workload.name,
                    args.seed,
                    if args.trace { "traced" } else { "untraced" }
                ),
                outcome.metrics.iter().chain(&outcome.notes),
            );
            for problem in &outcome.problems {
                eprintln!("CHECK FAILED: {problem}");
            }
            let correct = outcome.problems.is_empty();
            let failed = if correct {
                ledger.failed.load(Ordering::Relaxed)
            } else {
                attempted
            };
            (correct, failed, metrics_json(&outcome.metrics))
        }
        Err(error) => {
            eprintln!("perfbench: run failed: {error}");
            (false, attempted, "{}".to_string())
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
