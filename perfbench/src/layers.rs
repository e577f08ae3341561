//! Forwarding wrappers around the system's public seams. They change no
//! result: the traced run's digest must equal the untraced one.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mhfl_data::Dataset;
use mhfl_fl::{
    AlgorithmState, ClientPayload, ClientRunner, ClientUpdate, FederationContext, FlAlgorithm,
    FlResult, InProcessRunner, Parallelism, RobustAggregation,
};

use crate::trace::{Span, Tracer};

/// Client updates attempted and failed over every run of one invocation. A
/// failed update is one whose runner call errored or whose payload is empty.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: AtomicUsize,
    pub failed: AtomicUsize,
}

fn payload_is_empty(payload: &ClientPayload) -> bool {
    match payload {
        ClientPayload::SubModel { state, .. } => state.is_empty(),
        ClientPayload::Prototypes { state, sums, .. } => state.is_empty() || sums.is_empty(),
        ClientPayload::PublicLogits { state, probs, .. } => state.is_empty() || probs.is_empty(),
        ClientPayload::Empty => true,
    }
}

/// Forwards to [`InProcessRunner`], counting attempted and failed updates on
/// every run and, when traced, recording one `fl.runner.run_clients` span
/// per call.
pub struct CheckedRunner {
    pub ledger: Arc<Ledger>,
    pub tracer: Option<Arc<Tracer>>,
}

impl ClientRunner for CheckedRunner {
    fn run_clients(
        &mut self,
        algorithm: &dyn FlAlgorithm,
        round: usize,
        clients: &[usize],
        ctx: &FederationContext,
        parallelism: Parallelism,
    ) -> FlResult<Vec<ClientUpdate>> {
        self.ledger
            .attempted
            .fetch_add(clients.len(), Ordering::Relaxed);
        let open = self.tracer.as_ref().map(|tracer| {
            let id = tracer.new_id();
            tracer.set_runner_span(id);
            (id, tracer.now_ns())
        });
        let result = InProcessRunner.run_clients(algorithm, round, clients, ctx, parallelism);
        if let (Some(tracer), Some((id, start_ns))) = (&self.tracer, open) {
            tracer.push(Span {
                id,
                parent: tracer.round_span(),
                name: "fl.runner.run_clients",
                round: round as u64,
                start_ns,
                end_ns: tracer.now_ns(),
                client: None,
                items: clients.len(),
            });
        }
        let failed = match &result {
            Ok(updates) => {
                let empty = updates
                    .iter()
                    .filter(|u| payload_is_empty(&u.payload))
                    .count();
                empty + clients.len().saturating_sub(updates.len())
            }
            Err(_) => clients.len(),
        };
        self.ledger.failed.fetch_add(failed, Ordering::Relaxed);
        result
    }
}

/// Forwards every [`FlAlgorithm`] method to the algorithm
/// `build_algorithm` made, recording a span around the client update,
/// aggregation and both evaluations.
pub struct TracedAlgorithm {
    pub inner: Box<dyn FlAlgorithm>,
    pub tracer: Arc<Tracer>,
}

/// Runs `f` inside a span named `name` under the open round span.
fn timed<R>(tracer: &Tracer, name: &'static str, items: usize, f: impl FnOnce() -> R) -> R {
    let id = tracer.new_id();
    let start_ns = tracer.now_ns();
    let result = f();
    tracer.close(name, id, start_ns, items);
    result
}

impl FlAlgorithm for TracedAlgorithm {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn setup(&mut self, ctx: &FederationContext) -> FlResult<()> {
        self.inner.setup(ctx)
    }

    fn client_update(
        &self,
        round: usize,
        client: usize,
        ctx: &FederationContext,
    ) -> FlResult<ClientUpdate> {
        let id = self.tracer.new_id();
        let start_ns = self.tracer.now_ns();
        let result = self.inner.client_update(round, client, ctx);
        self.tracer.push(Span {
            id,
            parent: self.tracer.runner_span(),
            name: "algorithms.client_update",
            round: round as u64,
            start_ns,
            end_ns: self.tracer.now_ns(),
            client: Some(client),
            items: 1,
        });
        result
    }

    fn aggregate(
        &mut self,
        round: usize,
        updates: Vec<ClientUpdate>,
        ctx: &FederationContext,
    ) -> FlResult<()> {
        self.tracer.set_round(round as u64);
        let items = updates.len();
        timed(&self.tracer, "algorithms.aggregate", items, || {
            self.inner.aggregate(round, updates, ctx)
        })
    }

    fn evaluate_global(&mut self, data: &Dataset) -> FlResult<f32> {
        timed(
            &self.tracer,
            "algorithms.evaluate_global",
            data.len(),
            || self.inner.evaluate_global(data),
        )
    }

    fn evaluate_client(&mut self, client: usize, data: &Dataset) -> FlResult<f32> {
        timed(
            &self.tracer,
            "algorithms.evaluate_client",
            data.len(),
            || self.inner.evaluate_client(client, data),
        )
    }

    fn snapshot(&self) -> FlResult<AlgorithmState> {
        self.inner.snapshot()
    }
    fn restore(&mut self, state: AlgorithmState, ctx: &FederationContext) -> FlResult<()> {
        self.inner.restore(state, ctx)
    }

    fn set_robust_aggregation(&mut self, robust: RobustAggregation) {
        self.inner.set_robust_aggregation(robust);
    }
}
