//! Golden-trace regression harness.
//!
//! Pins the per-seed [`MetricsReport::digest`] of one representative method
//! from each of the five algorithm families, in both synchronous and
//! asynchronous execution, against fixtures committed in
//! `tests/fixtures/golden_digests.txt`.
//!
//! The digest folds every field of the report bit-exactly, so these tests
//! prove that performance work on the hot paths (matmul kernels, sub-model
//! extraction plans, allocation elimination) changes **nothing observable**:
//! a kernel rewrite that alters even one ULP of one metric fails here.
//!
//! A second, smaller set in `tests/fixtures/golden_conv_digests.txt` pins a
//! width-heterogeneous Cifar10 federation, so the `Conv2d` path (which no
//! UciHar model runs) is covered too.
//!
//! To regenerate the fixtures after an *intentional* behaviour change, run:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test --test golden -- --test-threads=1
//! ```
//!
//! and commit the updated fixture file together with an explanation of why
//! the traces moved.

use mhfl_data::DataTask;
use mhfl_device::ConstraintCase;
use mhfl_models::MhflMethod;
use pracmhbench_core::{Execution, ExperimentSpec, MetricsReport, RunScale};

/// One representative method per algorithm family (width, depth, prototype,
/// ensemble-transfer, homogeneous baseline).
const FAMILIES: [MhflMethod; 5] = [
    MhflMethod::SHeteroFl,
    MhflMethod::DepthFl,
    MhflMethod::FedProto,
    MhflMethod::FedEt,
    MhflMethod::HomogeneousSmallest,
];

/// Seeds the traces are pinned for.
const SEEDS: [u64; 2] = [17, 43];

fn execution_label(execution: Execution) -> &'static str {
    match execution {
        Execution::Synchronous => "sync",
        Execution::AsyncBuffered { .. } => "async",
    }
}

fn run_report(method: MhflMethod, execution: Execution, seed: u64) -> MetricsReport {
    ExperimentSpec::new(
        DataTask::UciHar,
        method,
        ConstraintCase::Computation {
            deadline_secs: 300.0,
        },
    )
    .with_scale(RunScale::Quick)
    .with_seed(seed)
    .with_execution(execution)
    .run()
    .unwrap_or_else(|e| panic!("{method} ({execution:?}, seed {seed}) failed: {e}"))
    .report
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_digests.txt")
}

/// Parses fixture lines of the form `method mode seed 0xDIGEST`.
fn load_fixtures(path: &std::path::Path) -> Vec<(String, String, u64, u64)> {
    let raw = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{} is committed with the repo: {e}", path.display()));
    raw.lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|line| {
            let parts: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(parts.len(), 4, "malformed fixture line: {line:?}");
            let seed: u64 = parts[2].parse().expect("fixture seed");
            let digest = u64::from_str_radix(parts[3].trim_start_matches("0x"), 16)
                .expect("fixture digest (hex)");
            (parts[0].to_string(), parts[1].to_string(), seed, digest)
        })
        .collect()
}

fn all_cases() -> Vec<(MhflMethod, Execution, u64)> {
    let mut cases = Vec::new();
    for method in FAMILIES {
        for execution in [Execution::Synchronous, Execution::async_buffered(2)] {
            for seed in SEEDS {
                cases.push((method, execution, seed));
            }
        }
    }
    cases
}

#[test]
fn golden_digests_match_committed_fixtures() {
    if std::env::var("GOLDEN_BLESS").is_ok() {
        let mut out = String::from(
            "# Golden per-seed MetricsReport digests (method mode seed digest).\n\
             # Regenerate with: GOLDEN_BLESS=1 cargo test --test golden\n",
        );
        for (method, execution, seed) in all_cases() {
            let digest = run_report(method, execution, seed).digest();
            out.push_str(&format!(
                "{method} {} {seed} 0x{digest:016x}\n",
                execution_label(execution)
            ));
        }
        std::fs::write(fixture_path(), out).expect("write fixtures");
        return;
    }

    let fixtures = load_fixtures(&fixture_path());
    assert_eq!(
        fixtures.len(),
        all_cases().len(),
        "fixture count must cover all five families x two executions x seeds"
    );
    let mut mismatches = Vec::new();
    for (method, execution, seed) in all_cases() {
        let digest = run_report(method, execution, seed).digest();
        let label = execution_label(execution);
        let expected = fixtures
            .iter()
            .find(|(m, e, s, _)| m == &method.to_string() && e == label && *s == seed)
            .unwrap_or_else(|| panic!("no fixture for {method} {label} seed {seed}"))
            .3;
        if digest != expected {
            mismatches.push(format!(
                "{method} {label} seed {seed}: expected 0x{expected:016x}, got 0x{digest:016x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden traces diverged (kernel/scheduling behaviour changed):\n{}\n\
         If the change is intentional, regenerate with GOLDEN_BLESS=1 and \
         commit the new fixtures.",
        mismatches.join("\n")
    );
}

/// The digest is a pure function of the seed: re-running a case reproduces
/// the exact same trace within one process.
#[test]
fn golden_traces_are_reproducible_within_a_process() {
    let method = MhflMethod::SHeteroFl;
    for execution in [Execution::Synchronous, Execution::async_buffered(2)] {
        let a = run_report(method, execution, 17).digest();
        let b = run_report(method, execution, 17).digest();
        assert_eq!(a, b, "same-seed reruns must be byte-identical");
        let c = run_report(method, execution, 43).digest();
        assert_ne!(a, c, "different seeds must produce different traces");
    }
}

// ---------------------------------------------------------------------------
// Conv-path fixtures: a width-heterogeneous Cifar10 federation.
//
// The UciHar fixtures above never run a convolution. These pin digests of
// the image models (conv stem + conv blocks) on a federation where clients
// really train different models, so a `Conv2d` kernel rewrite that moves one
// ULP fails here. Regenerate with `GOLDEN_BLESS=1 cargo test --test golden`.
// ---------------------------------------------------------------------------

/// Methods pinned on the conv path: width-heterogeneous vs. the homogeneous
/// smallest-model baseline.
const CONV_METHODS: [MhflMethod; 2] = [MhflMethod::SHeteroFl, MhflMethod::HomogeneousSmallest];

/// Seed of the conv-path fixtures.
const CONV_SEED: u64 = 17;

fn conv_spec(method: MhflMethod) -> ExperimentSpec {
    ExperimentSpec::new(
        DataTask::Cifar10,
        method,
        ConstraintCase::Computation {
            deadline_secs: 30.0,
        },
    )
    .with_scale(RunScale::Quick)
    .with_seed(CONV_SEED)
    .with_execution(Execution::Synchronous)
}

fn conv_fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_conv_digests.txt")
}

#[test]
fn conv_golden_digests_match_committed_fixtures() {
    let ctx = conv_spec(MhflMethod::SHeteroFl)
        .build_context()
        .expect("conv golden context builds");
    let distinct: std::collections::BTreeSet<(String, u64, u64)> = (0..ctx.num_clients())
        .map(|client| {
            let choice = ctx.assignment(client).entry.choice;
            (
                format!("{:?}", choice.family),
                choice.width_fraction.to_bits(),
                choice.depth_fraction.to_bits(),
            )
        })
        .collect();
    assert!(
        distinct.len() >= 2,
        "the conv golden federation must assign at least two distinct models, got {}",
        distinct.len()
    );

    let digests: Vec<(MhflMethod, u64)> = CONV_METHODS
        .iter()
        .map(|&method| {
            let report = conv_spec(method)
                .run()
                .unwrap_or_else(|e| panic!("{method} on Cifar10 failed: {e}"))
                .report;
            (method, report.digest())
        })
        .collect();
    assert_ne!(
        digests[0].1, digests[1].1,
        "width-heterogeneous and homogeneous-smallest runs must differ on a heterogeneous federation"
    );

    if std::env::var("GOLDEN_BLESS").is_ok() {
        let mut out = String::from(
            "# Golden Cifar10 (conv path) MetricsReport digests (method mode seed digest).\n\
             # Computation 30 s, Quick scale. Regenerate with: GOLDEN_BLESS=1 cargo test --test golden\n",
        );
        for (method, digest) in &digests {
            out.push_str(&format!("{method} sync {CONV_SEED} 0x{digest:016x}\n"));
        }
        std::fs::write(conv_fixture_path(), out).expect("write conv fixtures");
        return;
    }

    let fixtures = load_fixtures(&conv_fixture_path());
    assert_eq!(
        fixtures.len(),
        CONV_METHODS.len(),
        "one conv fixture per method"
    );
    for (method, digest) in digests {
        let expected = fixtures
            .iter()
            .find(|(m, e, s, _)| m == &method.to_string() && e == "sync" && *s == CONV_SEED)
            .unwrap_or_else(|| panic!("no conv fixture for {method}"))
            .3;
        assert_eq!(
            digest, expected,
            "{method} conv-path digest diverged: expected 0x{expected:016x}, got 0x{digest:016x}"
        );
    }
}
