//! The benchmark's workloads: three federations on which clients really
//! train different models, each stressing a different layer.

use std::collections::BTreeMap;

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_fl::{EngineConfig, Execution, FederationContext, FlEngine, Parallelism};
use mhfl_models::MhflMethod;
use pracmhbench_core::{ExperimentSpec, RunScale};

/// One benchmark workload: an experiment at the paper's client counts and
/// 10% sampling, cut to a fixed number of server rounds.
pub struct Workload {
    pub name: &'static str,
    pub task: DataTask,
    pub method: MhflMethod,
    pub deadline_secs: f64,
    pub execution: Execution,
    /// Server rounds (aggregations) per federated run.
    pub rounds: usize,
    /// Evaluation cadence; the last round is always evaluated.
    pub eval_every: usize,
    /// Wall seconds one federation takes on a 2-CPU x86-64 box; sets how many
    /// federations fill an untraced invocation's `--seconds`.
    pub federation_s: f64,
    /// `MetricsReport::digest()` of one run at [`DEFAULT_SEED`]: pins the
    /// result, so a change that alters what the system computes fails the
    /// benchmark instead of reading as a speed change.
    pub default_digest: u64,
}

pub const DEFAULT_SEED: u64 = 42;

/// Clients whose own model is evaluated at each evaluation point (the spec
/// evaluates 8). Which clients these are depends on the seed, and one
/// evaluation of a full-size client model on the test set costs as much as
/// a couple of training rounds, so with 8 the seed's draw, not the layers
/// under test, would decide `run_s`. One keeps the per-client accuracy in
/// the report and the digest.
const STABILITY_CLIENTS: usize = 1;

/// Why each workload is here (the layer it loads), and why its knobs have
/// the values they have:
///
/// * `cv_width_sync` — conv training dominates; four widths exercise
///   sub-model extraction and scatter aggregation. At the 300 s deadline all
///   Cifar10 clients get the full model, so the 30 s deadline is used;
///   Cifar100 is avoided because one evaluation costs ~50 s.
/// * `nlp_depth_async` — transformer matmul/attention, no conv; four depths;
///   thousands of session events through the async arrival heap, and the
///   runner receives about one client per call (trickle dispatch).
/// * `cv_topology_server` — three topologies; Fed-ET distils on the server
///   and every round is evaluated, so the server phase dominates.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "cv_width_sync",
        task: DataTask::Cifar10,
        method: MhflMethod::SHeteroFl,
        deadline_secs: 30.0,
        execution: Execution::Synchronous,
        rounds: 12,
        eval_every: 12,
        federation_s: 15.0,
        default_digest: 0x49d9_3a5d_7ec8_0ccc,
    },
    Workload {
        name: "nlp_depth_async",
        task: DataTask::StackOverflow,
        method: MhflMethod::DepthFl,
        deadline_secs: 300.0,
        execution: Execution::AsyncBuffered {
            buffer_size: 10,
            concurrency: 20,
        },
        rounds: 128,
        eval_every: 128,
        federation_s: 10.0,
        default_digest: 0x2c2b_d3c0_d245_6ca7,
    },
    Workload {
        name: "cv_topology_server",
        task: DataTask::Cifar10,
        method: MhflMethod::FedEt,
        deadline_secs: 30.0,
        execution: Execution::Synchronous,
        rounds: 2,
        eval_every: 1,
        federation_s: 10.0,
        default_digest: 0x3b5c_c7cd_262b_c743,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn spec(&self, seed: u64, workers: usize) -> ExperimentSpec {
        ExperimentSpec::new(
            self.task,
            self.method,
            ConstraintCase::Computation {
                deadline_secs: self.deadline_secs,
            },
        )
        .with_scale(RunScale::Paper)
        .with_seed(seed)
        .with_parallelism(Parallelism::Threads { workers })
        .with_execution(self.execution)
    }

    /// The spec's own engine, cut to this workload's rounds and cadence.
    pub fn engine(&self, spec: &ExperimentSpec) -> FlEngine {
        FlEngine::new(EngineConfig {
            rounds: self.rounds,
            eval_every: self.eval_every,
            stability_clients: STABILITY_CLIENTS,
            ..*spec.engine().config()
        })
    }

    /// Federations in an untraced invocation of `seconds`.
    pub fn federations(&self, seconds: f64) -> usize {
        ((seconds / self.federation_s).round() as usize).max(1)
    }
}

/// A client's assigned model as `family ×width ×depth`.
pub fn model_label(ctx: &FederationContext, client: usize) -> String {
    let choice = ctx.assignment(client).entry.choice;
    format!(
        "{} w{:.2} d{:.2}",
        choice.family, choice.width_fraction, choice.depth_fraction
    )
}

/// How many clients were assigned each distinct model.
pub fn model_histogram(ctx: &FederationContext) -> BTreeMap<String, usize> {
    let mut histogram = BTreeMap::new();
    for client in 0..ctx.num_clients() {
        *histogram.entry(model_label(ctx, client)).or_insert(0) += 1;
    }
    histogram
}
