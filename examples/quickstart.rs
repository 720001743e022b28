//! Quickstart: simulate one MLP-intensive two-thread workload under ICOUNT and
//! under the paper's MLP-aware flush policy, print STP/ANTT for both, then run
//! the same comparison through the declarative experiment API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use smt_core::experiments::{engine, ExperimentKind, ExperimentSpec};
use smt_core::runner::{evaluate_cell, CellSpec, CheckpointCache, RunScale, StReferenceCache};
use smt_core::workloads::Workload;
use smt_types::config::FetchPolicyKind;
use smt_types::SimError;

fn main() -> Result<(), SimError> {
    let scale = RunScale::standard();
    let workload = Workload::new(vec!["mcf", "swim"])?;
    // Single-thread reference curves are shared across the policies.
    let (references, checkpoints) = (StReferenceCache::new(), CheckpointCache::new());

    println!("workload: {}", workload.name());
    println!(
        "scale: {} instructions per thread ({} warm-up)\n",
        scale.instructions_per_thread, scale.warmup_instructions
    );
    println!(
        "{:<12} {:>8} {:>8} {:>18}",
        "policy", "STP", "ANTT", "per-thread IPC"
    );

    for policy in [
        FetchPolicyKind::Icount,
        FetchPolicyKind::Stall,
        FetchPolicyKind::Flush,
        FetchPolicyKind::MlpFlush,
    ] {
        let cell = CellSpec::baseline(&workload, policy, scale);
        let result = evaluate_cell(&cell, &references, &checkpoints)?;
        let ipcs: Vec<String> = result
            .per_thread_ipc
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect();
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>18}",
            policy.name(),
            result.stp,
            result.antt,
            ipcs.join(" / ")
        );
    }

    println!("\nHigher STP and lower ANTT are better; the MLP-aware flush policy should");
    println!("improve both relative to ICOUNT and improve ANTT relative to plain flush.");

    // The same comparison as a declarative spec: serializable, validatable,
    // and executed in parallel by the experiment engine. `smt-cli run` drives
    // exactly this path from TOML files.
    let spec = ExperimentSpec {
        name: "quickstart".to_string(),
        title: "ICOUNT vs MLP-aware flush on mcf-swim".to_string(),
        paper_ref: String::new(),
        kind: ExperimentKind::PolicyGrid,
        policies: vec![FetchPolicyKind::Icount, FetchPolicyKind::MlpFlush],
        workloads: vec![workload.benchmarks.clone()],
        sweep: None,
        overrides: None,
        chip: None,
        adaptive: None,
        resilience: None,
        sampling: None,
        scale,
    };
    let report = engine::run_spec(&spec)?;
    println!(
        "\nThe declarative engine agrees ({} reference runs, {} worker threads):\n",
        report.reference_runs, report.threads_used
    );
    println!("{}", report.format_text());
    println!("Spec as TOML (pipe into a file and `smt-cli run` it):\n");
    println!("{}", toml::to_string(&spec).expect("spec serializes"));
    Ok(())
}
