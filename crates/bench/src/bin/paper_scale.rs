//! `paper_scale` — the hot-path engine benchmark at the paper's scale.
//!
//! Two sections, both emitted into `BENCH_paper_scale.json`:
//!
//! * **micro** — the rebuilt hot paths timed head-to-head against their
//!   retained reference implementations inside one binary: plan-cached
//!   single-pass sub-model extraction + scatter-add aggregation vs. the
//!   clone-then-gather-per-axis path with randomly re-initialised client
//!   models. The reported `speedup` values are the wall-clock ratios.
//! * **families** — one full `RunScale::Paper` federated round (setup →
//!   client phase at the paper's client counts → aggregation → global
//!   evaluation) per algorithm family, with per-phase wall-clock splits.
//!
//! Usage: `cargo run --release -p mhfl-bench --bin paper_scale [--quick]`
//! (`--quick` shrinks everything to CI smoke size).
//!
//! ## Durable full runs (`--checkpoint` / `--resume`)
//!
//! With `--checkpoint <path>` the binary skips the micro/family sections and
//! instead drives one **full multi-round federated run** of the width family
//! at the selected scale, auto-saving a durable checkpoint
//! (`mhfl_fl::persist`) to `<path>` every `--checkpoint-every <n>` rounds
//! (default 25). If `<path>` already exists the run **resumes from it** and
//! continues bit-exactly; `--resume <path>` is the same flow but requires
//! the file to exist. `--stop-after-rounds <r>` saves and exits once `r`
//! rounds have completed — the "kill" half of an interruption smoke test:
//!
//! ```bash
//! # start, get interrupted at round 2...
//! cargo run -p mhfl-bench --bin paper_scale -- --quick \
//!     --checkpoint run.ckpt --checkpoint-every 1 --stop-after-rounds 2
//! # ...relaunch: continues from round 2 and prints the final digest
//! cargo run -p mhfl-bench --bin paper_scale -- --quick --resume run.ckpt
//! ```
//!
//! ## Distributed mode (`--workers` / `--listen` / `--connect`)
//!
//! With `--workers <n>` the binary benchmarks the `mhfl-net` distributed
//! engine instead of the family rounds: it binds `--listen` (default
//! `tcp:127.0.0.1:0`), re-execs itself `n` times as workers (`--connect`),
//! drives one full width-family run sharded across them, verifies the
//! digest against the single-process reference, and emits a
//! `"distributed"` section — per-phase timings plus per-worker
//! utilisation — alongside the micro section in `BENCH_paper_scale.json`:
//!
//! ```bash
//! cargo run --release -p mhfl-bench --bin paper_scale -- --quick --workers 2
//! ```

use std::time::Instant;

use mhfl_bench::{arg_usize, arg_value, has_flag, run_resumable, scale_from_args, RunScale};
use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::submodel::{
    extract_submodel, ExtractionPlan, PlanCache, ServerAggregator, WidthSelection,
};
use mhfl_fl::{run_clients, ClientPayload, Parallelism, Schedule};
use mhfl_models::{InputKind, MhflMethod, ModelFamily, ProxyConfig, ProxyModel};
use mhfl_tensor::{ArenaStats, SeededRng, TensorArena};
use pracmhbench_core::ExperimentSpec;

/// Committed ceiling on steady-state tensor-storage allocations per warm
/// federated round (width family, any scale). The arena serves warm-round
/// leases from recycled buffers, so the residue is a handful of leases that
/// outgrow the pool's byte caps plus first-touch shapes a round mints
/// uniquely; CI's `alloc-audit` job fails if a regression pushes the
/// measured number past this line.
const ALLOC_CEILING_PER_ROUND: u64 = 256;

/// One micro-benchmark comparison: reference vs. optimised wall-clock.
struct Micro {
    name: &'static str,
    reference_secs: f64,
    optimised_secs: f64,
}

impl Micro {
    fn speedup(&self) -> f64 {
        if self.optimised_secs > 0.0 {
            self.reference_secs / self.optimised_secs
        } else {
            f64::INFINITY
        }
    }
}

fn time<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64()
}

fn extraction_fixture() -> (ProxyConfig, ProxyModel) {
    let cfg = ProxyConfig::for_family(
        ModelFamily::ResNet101,
        InputKind::Image {
            channels: 3,
            height: 8,
            width: 8,
        },
        100,
        0,
    );
    let global = ProxyModel::new(cfg).unwrap();
    (cfg, global)
}

/// Per-round client-model preparation: reference = random-init model +
/// clone-then-gather-per-axis extraction, optimised = zero-init model +
/// cached single-pass gather plan.
fn micro_extraction(reps: usize) -> Micro {
    let (cfg, global) = extraction_fixture();
    let global_sd = global.state_dict();
    let specs = global.param_specs();
    let half_cfg = cfg.with_width(0.5);
    let selection = WidthSelection::Rolling { shift: 13 };

    let reference_secs = time(reps, || {
        let mut model = ProxyModel::new(half_cfg).unwrap();
        let sub = extract_submodel(&global_sd, &specs, &model.param_specs(), selection).unwrap();
        model.load_state_dict(&sub).unwrap();
        model
    });
    let cache = PlanCache::new();
    let optimised_secs = time(reps, || {
        let mut model = ProxyModel::zeroed(half_cfg).unwrap();
        let plan = cache
            .for_client_specs(&specs, &model.param_specs(), selection)
            .unwrap();
        model
            .load_state_dict(&plan.extract(&global_sd).unwrap())
            .unwrap();
        model
    });
    Micro {
        name: "submodel_extraction",
        reference_secs,
        optimised_secs,
    }
}

/// Aggregation return path: reference = per-element coordinate decoding,
/// optimised = plan-driven scatter-add.
fn micro_aggregation(reps: usize) -> Micro {
    let (cfg, global) = extraction_fixture();
    let global_sd = global.state_dict();
    let specs = global.param_specs();
    let selection = WidthSelection::Rolling { shift: 5 };
    let half_specs = ProxyModel::zeroed(cfg.with_width(0.5))
        .unwrap()
        .param_specs();
    let update = extract_submodel(&global_sd, &specs, &half_specs, selection).unwrap();

    // Accumulate repeatedly into one aggregator per side so the timing
    // isolates the scatter path itself, not the zero-filled constructor.
    let mut reference_agg = ServerAggregator::new(specs.clone());
    let reference_secs = time(reps, || {
        reference_agg.add_update(&update, selection, 1.0).unwrap();
    });
    let plan = ExtractionPlan::for_state(&specs, &update, selection).unwrap();
    let mut planned_agg = ServerAggregator::new(specs.clone());
    let optimised_secs = time(reps, || {
        planned_agg
            .add_update_with_plan(&update, &plan, 1.0)
            .unwrap();
    });
    Micro {
        name: "scatter_add_aggregation",
        reference_secs,
        optimised_secs,
    }
}

/// One paper-scale federated round of one algorithm family, with per-phase
/// wall-clock splits.
struct FamilyRound {
    method: MhflMethod,
    task: DataTask,
    clients: usize,
    selected: usize,
    setup_secs: f64,
    client_phase_secs: f64,
    aggregate_secs: f64,
    evaluate_secs: f64,
    global_accuracy: f32,
}

fn run_family_round(method: MhflMethod, scale: RunScale) -> FamilyRound {
    let task = DataTask::Cifar10;
    let spec = ExperimentSpec::new(
        task,
        method,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(scale)
    .with_seed(42);
    // Setup covers everything before the first round: context construction
    // (data partitioning + device assignment) and the algorithm's own state.
    // Starting the timer after `build_context` used to report ~0.000s setup.
    let t = Instant::now();
    let ctx = spec.build_context().expect("context builds");
    let clients = ctx.num_clients();
    // The paper samples 10% of clients per synchronous round.
    let per_round = ((clients as f64 * 0.1).round() as usize).clamp(1, clients);

    let mut algorithm = mhfl_algorithms::build_algorithm(method);
    algorithm.setup(&ctx).expect("setup");
    let setup_secs = t.elapsed().as_secs_f64();

    let scheduler = Schedule::Uniform.build();
    let mut rng = SeededRng::new(spec.seed ^ 0xF00D);
    let plan = scheduler.plan_round(1, per_round, 0.0, &ctx, &mut rng);

    let t = Instant::now();
    let updates = run_clients(
        algorithm.as_ref(),
        1,
        &plan.clients,
        &ctx,
        Parallelism::Sequential,
    )
    .expect("client phase");
    let client_phase_secs = t.elapsed().as_secs_f64();
    let selected = updates.len();
    // Sanity: real uploads, not empty stubs.
    assert!(updates
        .iter()
        .all(|u| !matches!(u.payload, ClientPayload::Empty)));

    let t = Instant::now();
    algorithm.aggregate(1, updates, &ctx).expect("aggregate");
    let aggregate_secs = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let global_accuracy = algorithm.evaluate_global(ctx.test_set()).expect("evaluate");
    let evaluate_secs = t.elapsed().as_secs_f64();

    FamilyRound {
        method,
        task,
        clients,
        selected,
        setup_secs,
        client_phase_secs,
        aggregate_secs,
        evaluate_secs,
        global_accuracy,
    }
}

/// Steady rounds the arena probe measures after its warm-up round.
const PROBE_STEADY_ROUNDS: usize = 2;

/// Steady-state allocation behaviour of the tensor arena under repeated
/// federated rounds: one warm-up round fills the pool, then the per-round
/// counter deltas over [`PROBE_STEADY_ROUNDS`] further rounds measure what a
/// warm round still allocates fresh.
struct ArenaProbe {
    warmup_fresh_allocs: u64,
    fresh_allocs_per_round: u64,
    pool_hits_per_round: u64,
    recycled_per_round: u64,
}

fn stats_delta(after: ArenaStats, before: ArenaStats) -> ArenaStats {
    ArenaStats {
        fresh_allocs: after.fresh_allocs - before.fresh_allocs,
        pool_hits: after.pool_hits - before.pool_hits,
        recycled: after.recycled - before.recycled,
        released: after.released - before.released,
    }
}

/// Runs the arena probe, or returns `None` without running any round when
/// the counters are compiled out: every count would read zero, which looks
/// like "no allocations" rather than "not counted".
fn probe_arena(scale: RunScale) -> Option<ArenaProbe> {
    if !TensorArena::counting_enabled() {
        eprintln!(
            "paper_scale: arena allocations not counted \
             (rebuild with --features alloc-count for real numbers)"
        );
        return None;
    }
    let arena = TensorArena::global();
    eprintln!(
        "paper_scale: arena allocation probe (1 warm-up + {PROBE_STEADY_ROUNDS} steady rounds)..."
    );
    let before_warmup = arena.stats();
    run_family_round(MhflMethod::SHeteroFl, scale);
    let after_warmup = arena.stats();
    for _ in 0..PROBE_STEADY_ROUNDS {
        run_family_round(MhflMethod::SHeteroFl, scale);
    }
    let steady = stats_delta(arena.stats(), after_warmup);
    let rounds = PROBE_STEADY_ROUNDS as u64;
    let probe = ArenaProbe {
        warmup_fresh_allocs: stats_delta(after_warmup, before_warmup).fresh_allocs,
        fresh_allocs_per_round: steady.fresh_allocs / rounds,
        pool_hits_per_round: steady.pool_hits / rounds,
        recycled_per_round: steady.recycled / rounds,
    };
    eprintln!(
        "  warm-up round: {} fresh allocations; steady state: {}/round fresh, \
         {}/round served from the pool (ceiling {})",
        probe.warmup_fresh_allocs,
        probe.fresh_allocs_per_round,
        probe.pool_hits_per_round,
        ALLOC_CEILING_PER_ROUND
    );
    Some(probe)
}

fn scale_label(scale: RunScale) -> &'static str {
    match scale {
        RunScale::Quick => "quick",
        RunScale::Standard => "standard",
        RunScale::Paper => "paper",
    }
}

/// The durable-run flow behind `--checkpoint` / `--resume`: one full
/// multi-round width-family run with auto-saved on-disk checkpoints, resumed
/// from the file when it already exists.
fn run_durable(scale: RunScale, path: &str, must_exist: bool) {
    let path = std::path::Path::new(path);
    if must_exist && !path.exists() {
        panic!(
            "--resume {}: checkpoint file does not exist",
            path.display()
        );
    }
    let every = arg_usize("--checkpoint-every").unwrap_or(25);
    let stop_after = arg_usize("--stop-after-rounds");
    let spec = ExperimentSpec::new(
        DataTask::Cifar10,
        MhflMethod::SHeteroFl,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(scale)
    .with_seed(42);
    eprintln!(
        "paper_scale: durable {} run of {} (checkpoint {} every {every} rounds)",
        scale_label(scale),
        spec.method,
        path.display()
    );
    let outcome = run_resumable(&spec, path, every, stop_after).expect("durable run");
    match outcome.report {
        Some(report) => println!(
            "paper_scale: run complete at round {} (resumed from {:?}): \
             final acc {:.4}, digest 0x{:016x}",
            outcome.completed_rounds,
            outcome.resumed_from,
            report.final_accuracy(),
            report.digest()
        ),
        None => println!(
            "paper_scale: interrupted after round {} (resumed from {:?}); \
             relaunch with --resume {} to continue",
            outcome.completed_rounds,
            outcome.resumed_from,
            path.display()
        ),
    }
}

/// The fixed experiment the distributed benchmark shards: the width family
/// at the selected scale, seeded like every other section.
fn distributed_spec(scale: RunScale) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::Cifar10,
        MhflMethod::SHeteroFl,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(scale)
    .with_seed(42)
}

/// Worker half of `--workers`: this binary re-exec'd with `--connect` plus
/// the spec flags, serving dispatches until the server shuts the run down.
fn run_worker_child(endpoint: &str, args: &[String]) {
    let endpoint = mhfl_net::Endpoint::parse(endpoint).expect("--connect endpoint");
    let spec = mhfl_net::cli::parse_spec(args).expect("worker spec flags");
    let options = mhfl_net::WorkerOptions {
        name: mhfl_net::cli::arg_value(args, "--name")
            .unwrap_or_else(|| format!("pid{}", std::process::id())),
        ..Default::default()
    };
    let report = mhfl_net::run_worker(&endpoint, &spec, options).expect("worker run");
    eprintln!(
        "paper_scale worker {}: served {} dispatch(es), {} update(s)",
        report.worker_index, report.dispatches, report.updates_sent
    );
}

/// Server half of `--workers`: run the micro section as usual, then one full
/// distributed run sharded across `n` re-exec'd worker processes, verify the
/// digest against the single-process reference, and emit the utilisation
/// ledger into the JSON alongside the micro timings.
fn run_distributed_bench(scale: RunScale, workers: usize, micro_reps: usize) {
    use mhfl_net::cli::spec_flags;
    use mhfl_net::{run_server, Endpoint, Listener};

    let spec = distributed_spec(scale);
    let listen = arg_value("--listen").unwrap_or_else(|| "tcp:127.0.0.1:0".to_string());
    let listener = Listener::bind(&Endpoint::parse(&listen).expect("--listen endpoint"))
        .expect("bind listener");
    let endpoint = listener.local_endpoint().expect("local endpoint");
    eprintln!(
        "paper_scale: distributed {} run of {} on {endpoint} across {workers} worker(s)...",
        scale_label(scale),
        spec.method
    );

    let exe = std::env::current_exe().expect("current exe");
    let children: Vec<std::process::Child> = (0..workers)
        .map(|i| {
            std::process::Command::new(&exe)
                .arg("--connect")
                .arg(endpoint.to_string())
                .arg("--name")
                .arg(format!("w{i}"))
                .args(spec_flags(&spec))
                .spawn()
                .expect("spawn worker process")
        })
        .collect();

    let outcome = run_server(&listener, workers, &spec).expect("distributed run");
    for mut child in children {
        let status = child.wait().expect("worker wait");
        assert!(status.success(), "a worker process exited with {status}");
    }

    eprintln!("paper_scale: single-process reference for the digest check...");
    let reference = spec.run().expect("reference run").report;
    let digest_match = outcome.report.digest() == reference.digest();
    assert!(
        digest_match,
        "distributed digest 0x{:016x} != single-process 0x{:016x}",
        outcome.report.digest(),
        reference.digest()
    );
    eprintln!(
        "  digest 0x{:016x} matches single-process; accept {:.2}s, run {:.2}s",
        outcome.report.digest(),
        outcome.accept_secs,
        outcome.run_secs
    );

    let micros = [micro_extraction(micro_reps), micro_aggregation(micro_reps)];

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"scale\": \"{}\",\n", scale_label(scale)));
    json.push_str(&format!("  \"micro_reps\": {micro_reps},\n"));
    json.push_str(
        "  \"command\": \"cargo run --release -p mhfl-bench --bin paper_scale -- --workers N\",\n",
    );
    json.push_str("  \"micro\": {\n");
    for (i, m) in micros.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"reference_secs\": {:.6}, \"optimised_secs\": {:.6}, \"speedup\": {:.2} }}{}\n",
            m.name,
            m.reference_secs / micro_reps as f64,
            m.optimised_secs / micro_reps as f64,
            m.speedup(),
            if i + 1 < micros.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"distributed\": {\n");
    json.push_str(&format!(
        "    \"method\": \"{}\", \"task\": \"{:?}\", \"workers\": {},\n",
        spec.method, spec.task, workers
    ));
    json.push_str(&format!(
        "    \"accept_secs\": {:.3}, \"run_secs\": {:.3},\n",
        outcome.accept_secs, outcome.run_secs
    ));
    json.push_str(&format!(
        "    \"digest\": \"0x{:016x}\", \"digest_match\": {digest_match},\n",
        outcome.report.digest()
    ));
    json.push_str("    \"per_worker\": [\n");
    for (i, w) in outcome.workers.iter().enumerate() {
        let utilisation = if outcome.run_secs > 0.0 {
            w.busy_secs / outcome.run_secs
        } else {
            0.0
        };
        json.push_str(&format!(
            "      {{ \"name\": \"{}\", \"dispatched\": {}, \"completed\": {}, \
             \"busy_secs\": {:.3}, \"utilisation\": {:.3}, \"died\": {} }}{}\n",
            w.name,
            w.dispatched,
            w.completed,
            w.busy_secs,
            utilisation,
            w.dead,
            if i + 1 < outcome.workers.len() {
                ","
            } else {
                ""
            }
        ));
        eprintln!(
            "  worker {:<8} dispatched {:>4}  completed {:>4}  busy {:>6.2}s  utilisation {:>5.1}%",
            w.name,
            w.dispatched,
            w.completed,
            w.busy_secs,
            utilisation * 100.0
        );
    }
    json.push_str("    ]\n  }\n}\n");
    std::fs::write("BENCH_paper_scale.json", &json).expect("write BENCH_paper_scale.json");
    println!("{json}");
    eprintln!("paper_scale: wrote BENCH_paper_scale.json (distributed mode)");
}

fn main() {
    let scale = scale_from_args();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(endpoint) = arg_value("--connect") {
        return run_worker_child(&endpoint, &args);
    }
    if let Some(path) = arg_value("--resume") {
        return run_durable(scale, &path, true);
    }
    if let Some(path) = arg_value("--checkpoint") {
        return run_durable(scale, &path, false);
    }
    let micro_reps = match scale {
        RunScale::Quick => 3,
        RunScale::Standard => 20,
        RunScale::Paper => 40,
    };
    if let Some(workers) = arg_usize("--workers") {
        return run_distributed_bench(scale, workers, micro_reps);
    }
    // `--quick` smoke runs shrink the federated round too; everything else
    // runs the families at the paper's client counts.
    let family_scale = match scale {
        RunScale::Quick => RunScale::Quick,
        _ => RunScale::Paper,
    };

    eprintln!("paper_scale: micro benchmarks ({micro_reps} reps)...");
    let micros = [micro_extraction(micro_reps), micro_aggregation(micro_reps)];
    for m in &micros {
        eprintln!(
            "  {:<26} reference {:>9.4}s  optimised {:>9.4}s  speedup {:>6.2}x",
            m.name,
            m.reference_secs,
            m.optimised_secs,
            m.speedup()
        );
    }

    let families = [
        MhflMethod::SHeteroFl,
        MhflMethod::DepthFl,
        MhflMethod::FedProto,
        MhflMethod::FedEt,
        MhflMethod::HomogeneousSmallest,
    ];
    let mut rounds = Vec::new();
    for method in families {
        eprintln!(
            "paper_scale: one {} round of {method}...",
            scale_label(family_scale)
        );
        let round = run_family_round(method, family_scale);
        eprintln!(
            "  {} clients, {} selected: client phase {:.2}s, aggregate {:.3}s, eval {:.2}s, acc {:.3}",
            round.clients,
            round.selected,
            round.client_phase_secs,
            round.aggregate_secs,
            round.evaluate_secs,
            round.global_accuracy
        );
        rounds.push(round);
    }

    let probe = probe_arena(family_scale);
    if has_flag("--alloc-audit") {
        let probe = probe.as_ref().expect(
            "--alloc-audit needs allocation counters; rebuild with \
             `--features alloc-count`",
        );
        assert!(
            probe.fresh_allocs_per_round <= ALLOC_CEILING_PER_ROUND,
            "steady-state tensor allocations regressed: {} fresh allocations \
             per warm round exceeds the committed ceiling of {}",
            probe.fresh_allocs_per_round,
            ALLOC_CEILING_PER_ROUND
        );
        eprintln!(
            "paper_scale: alloc audit passed ({} <= {} fresh allocations/round)",
            probe.fresh_allocs_per_round, ALLOC_CEILING_PER_ROUND
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"family_scale\": \"{}\",\n",
        scale_label(family_scale)
    ));
    json.push_str(&format!("  \"micro_reps\": {micro_reps},\n"));
    json.push_str("  \"command\": \"cargo run --release -p mhfl-bench --bin paper_scale\",\n");
    json.push_str("  \"micro\": {\n");
    for (i, m) in micros.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"reference_secs\": {:.6}, \"optimised_secs\": {:.6}, \"speedup\": {:.2} }}{}\n",
            m.name,
            m.reference_secs / micro_reps as f64,
            m.optimised_secs / micro_reps as f64,
            m.speedup(),
            if i + 1 < micros.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str("  \"families\": [\n");
    for (i, r) in rounds.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"method\": \"{}\", \"task\": \"{:?}\", \"clients\": {}, \"selected\": {}, \
             \"setup_secs\": {:.3}, \"client_phase_secs\": {:.3}, \"aggregate_secs\": {:.4}, \
             \"evaluate_secs\": {:.3}, \"global_accuracy\": {:.4} }}{}\n",
            r.method,
            r.task,
            r.clients,
            r.selected,
            r.setup_secs,
            r.client_phase_secs,
            r.aggregate_secs,
            r.evaluate_secs,
            r.global_accuracy,
            if i + 1 < rounds.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    // A count the build did not take is `null`, never a zero.
    let count = |field: fn(&ArenaProbe) -> u64| {
        probe
            .as_ref()
            .map_or_else(|| "null".to_string(), |p| field(p).to_string())
    };
    json.push_str("  \"arena\": {\n");
    json.push_str(&format!("    \"counting_enabled\": {},\n", probe.is_some()));
    json.push_str(&format!(
        "    \"warmup_round_fresh_allocs\": {},\n",
        count(|p| p.warmup_fresh_allocs)
    ));
    json.push_str(&format!("    \"steady_rounds\": {PROBE_STEADY_ROUNDS},\n"));
    json.push_str(&format!(
        "    \"steady_fresh_allocs_per_round\": {},\n",
        count(|p| p.fresh_allocs_per_round)
    ));
    json.push_str(&format!(
        "    \"steady_pool_hits_per_round\": {},\n",
        count(|p| p.pool_hits_per_round)
    ));
    json.push_str(&format!(
        "    \"steady_recycled_per_round\": {},\n",
        count(|p| p.recycled_per_round)
    ));
    json.push_str(&format!(
        "    \"alloc_ceiling_per_round\": {ALLOC_CEILING_PER_ROUND}\n"
    ));
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_paper_scale.json", &json).expect("write BENCH_paper_scale.json");
    println!("{json}");
    eprintln!("paper_scale: wrote BENCH_paper_scale.json");
}
