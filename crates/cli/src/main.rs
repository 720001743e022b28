//! `smt-cli`: list, describe and run experiments from the command line.
//!
//! Every scenario the experiment registry knows — and any user-authored TOML
//! spec — is runnable and diffable without writing Rust:
//!
//! ```text
//! smt-cli list
//! smt-cli describe fig09_two_thread_policies
//! smt-cli run fig09_two_thread_policies --scale test --out /tmp/r.json
//! smt-cli run my_experiment.toml --threads 8
//! ```
//!
//! `run` reports partial results instead of dying with the first cell: exit
//! code 0 means every cell completed, 3 means a degraded (partial) report,
//! and 1 means total failure. Command-line parse errors stay on exit code 2.

mod args;

use std::process::ExitCode;

use smt_core::experiments::{engine, ExperimentRegistry, ExperimentSpec, SamplingSpec};
use smt_core::runner::{build_trace, CheckpointCache, RunScale};
use smt_core::{SimCheckpoint, SmtSimulator};
use smt_types::{RunHealthStatus, SimError, SmtConfig};

use args::{
    CheckpointCmd, CheckpointSaveArgs, Command, OutputFormat, RunArgs, TraceCmd, TraceRecordArgs,
};

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let command = match args::parse(&raw) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    match dispatch(command) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(command: Command) -> Result<ExitCode, String> {
    match command {
        Command::Help => {
            print!("{}", args::HELP);
            Ok(ExitCode::SUCCESS)
        }
        Command::List => list().map(|()| ExitCode::SUCCESS),
        Command::Describe { name } => describe(&name).map(|()| ExitCode::SUCCESS),
        Command::Run(run) => execute(run),
        Command::Checkpoint(checkpoint) => {
            execute_checkpoint(checkpoint).map(|()| ExitCode::SUCCESS)
        }
        Command::Trace(trace) => execute_trace(trace).map(|()| ExitCode::SUCCESS),
    }
}

/// `trace record`: stream a benchmark's op stream into an on-disk `.smtt`
/// file; `trace inspect`: validate a trace end to end; `trace stats`: print a
/// trace's op mix.
fn execute_trace(command: TraceCmd) -> Result<(), String> {
    match command {
        TraceCmd::Record(record) => execute_trace_record(record),
        TraceCmd::Inspect { path } => {
            let scan = smt_trace::inspect::scan_file(&path).map_err(|e| e.to_string())?;
            let header = &scan.header;
            println!(
                "trace {path}\n  format version: {}\n  benchmark: {}\n  mlp-intensive: {}\n  \
                 ops: {}\n  digest: {:#018x} (verified)",
                header.version,
                header.benchmark,
                header.mlp_intensive,
                header.op_count,
                header.digest,
            );
            Ok(())
        }
        TraceCmd::Stats { path } => {
            let scan = smt_trace::inspect::scan_file(&path).map_err(|e| e.to_string())?;
            let total = scan.total_ops();
            println!("trace {path}: {} ({} ops)", scan.header.benchmark, total);
            for kind in smt_types::OpKind::ALL {
                let count = scan.count(kind);
                println!(
                    "  {:<10} {:>12}  ({:.1}%)",
                    format!("{kind:?}"),
                    count,
                    100.0 * count as f64 / total.max(1) as f64
                );
            }
            println!(
                "  taken branches: {}\n  ops with dependencies: {}",
                scan.taken_branches, scan.ops_with_deps
            );
            Ok(())
        }
    }
}

fn execute_trace_record(record: TraceRecordArgs) -> Result<(), String> {
    let mut scale = record.scale.unwrap_or_else(RunScale::standard);
    if let Some(seed) = record.seed {
        scale.seed = seed;
    }
    // Default op count: twice the scale's full per-thread budget (warm-up plus
    // measurement), so an ICOUNT-style replay under the same scale never wraps
    // the file. Flush policies permanently discard wrong-path fetches on every
    // flush and sampled runs cover the whole sampled horizon; both consume far
    // more ops than the budget, so recordings for them need explicit --ops.
    let ops = record
        .ops
        .unwrap_or_else(|| 2 * (scale.warmup_instructions + scale.instructions_per_thread).max(1));
    let mlp_intensive = smt_core::workloads::benchmark_is_mlp_intensive(&record.benchmark)
        .map_err(|e| e.to_string())?;
    let mut source =
        smt_core::runner::build_trace(&record.benchmark, scale).map_err(|e| e.to_string())?;
    eprintln!(
        "recording {} ops of `{}` (seed {})...",
        ops, record.benchmark, scale.seed
    );
    let summary = smt_trace::record_source(source.as_mut(), ops, &record.out, mlp_intensive)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "trace written to {}: {} ops, {} bytes, digest {:#018x}",
        record.out, summary.op_count, summary.bytes, summary.digest
    );
    Ok(())
}

/// `checkpoint save`: functionally fast-forward the workload's warm-up prefix
/// and serialize the warm state; `checkpoint load`: parse, validate and
/// summarize an existing checkpoint file.
fn execute_checkpoint(command: CheckpointCmd) -> Result<(), String> {
    match command {
        CheckpointCmd::Save(save) => execute_checkpoint_save(save),
        CheckpointCmd::Load { path } => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read checkpoint `{path}`: {e}"))?;
            let checkpoint = SimCheckpoint::from_json(&text)
                .and_then(|checkpoint| restore_into_baseline(&checkpoint).map(|()| checkpoint))
                .map_err(|e| format!("checkpoint `{path}`: {e}"))?;
            let meta = &checkpoint.meta;
            println!(
                "checkpoint {path}\n  schema version: {}\n  benchmarks: {}\n  threads: {}\n  \
                 warmed instructions/thread: {}\n  seed: {}",
                meta.schema_version,
                meta.benchmarks.join(", "),
                meta.num_threads,
                meta.warmed_instructions,
                meta.seed,
            );
            Ok(())
        }
    }
}

/// Restores `checkpoint` into the machine `checkpoint save` captures from,
/// the baseline configuration running its benchmarks: every warm table is
/// checked against that machine's geometry.
fn restore_into_baseline(checkpoint: &SimCheckpoint) -> Result<(), SimError> {
    let meta = &checkpoint.meta;
    let scale = RunScale {
        seed: meta.seed,
        ..RunScale::tiny()
    };
    let traces = meta
        .benchmarks
        .iter()
        .map(|benchmark| build_trace(benchmark, scale))
        .collect::<Result<_, _>>()?;
    SmtSimulator::new(SmtConfig::baseline(meta.benchmarks.len()), traces)?
        .restore_checkpoint(checkpoint)
}

fn execute_checkpoint_save(save: CheckpointSaveArgs) -> Result<(), String> {
    let mut scale = save.scale.unwrap_or_else(RunScale::standard);
    if let Some(instructions) = save.instructions {
        scale.warmup_instructions = instructions;
    }
    if scale.warmup_instructions == 0 {
        return Err("nothing to capture: the warm-up prefix is 0 instructions".to_string());
    }
    let benchmarks: Vec<&str> = save.benchmarks.iter().map(String::as_str).collect();
    let config = SmtConfig::baseline(benchmarks.len());
    eprintln!(
        "fast-forwarding {} for {} instructions/thread...",
        save.benchmarks.join("-"),
        scale.warmup_instructions
    );
    let checkpoint = CheckpointCache::new()
        .warmed(&benchmarks, &config, scale)
        .map_err(|e| e.to_string())?;
    let payload = serde_json::to_string(&*checkpoint).map_err(|e| e.to_string())?;
    smt_core::artifacts::write_atomic(&save.out, payload + "\n")
        .map_err(|e| format!("cannot write `{}`: {e}", save.out))?;
    eprintln!("checkpoint written to {}", save.out);
    Ok(())
}

fn list() -> Result<(), String> {
    let registry = ExperimentRegistry::builtin();
    println!(
        "{:<32} {:<16} {:<18} {:>8} {:>9}",
        "name", "paper", "kind", "policies", "workloads"
    );
    for spec in registry.specs() {
        println!(
            "{:<32} {:<16} {:<18} {:>8} {:>9}",
            spec.name,
            spec.paper_ref,
            spec.kind.name(),
            spec.policies.len(),
            spec.workloads.len()
        );
    }
    println!("\nrun one with: smt-cli run <name> --scale test");
    Ok(())
}

fn describe(name: &str) -> Result<(), String> {
    let registry = ExperimentRegistry::builtin();
    let spec = registry
        .get(name)
        .ok_or_else(|| unknown_experiment(&registry, name))?;
    let text = toml::to_string(spec).map_err(|e| e.to_string())?;
    print!("{text}");
    Ok(())
}

fn unknown_experiment(registry: &ExperimentRegistry, name: &str) -> String {
    format!(
        "unknown experiment `{name}`; registered experiments:\n  {}",
        registry.names().join("\n  ")
    )
}

/// Resolves the run target: a registry name, or a path to a TOML spec file.
fn load_spec(target: &str) -> Result<ExperimentSpec, String> {
    let registry = ExperimentRegistry::builtin();
    if let Some(spec) = registry.get(target) {
        return Ok(spec.clone());
    }
    let looks_like_path =
        target.ends_with(".toml") || target.contains('/') || target.contains('\\');
    if !looks_like_path {
        return Err(unknown_experiment(&registry, target));
    }
    let text = std::fs::read_to_string(target)
        .map_err(|e| format!("cannot read spec file `{target}`: {e}"))?;
    let spec: ExperimentSpec = toml::from_str(&text)
        .map_err(|e| SimError::invalid_config(format!("spec file `{target}`: {e}")).to_string())?;
    Ok(spec)
}

fn execute(run: RunArgs) -> Result<ExitCode, String> {
    let mut spec = load_spec(&run.target)?;
    if let Some(scale) = run.scale {
        spec = spec.with_scale(scale);
    }
    if let Some(instructions) = run.instructions {
        spec.scale = spec.scale.with_instructions(instructions);
    }
    if let Some(per_group) = run.per_group {
        spec = spec
            .with_workload_limit_per_group(per_group)
            .map_err(|e| e.to_string())?;
    }
    if let Some(limit) = run.limit {
        spec = spec.with_workload_limit(limit);
    }
    if let Some(cores) = run.cores {
        match spec.chip.as_mut() {
            Some(chip) => chip.num_cores = cores,
            None => {
                return Err(format!(
                    "`--cores` only applies to chip_grid specs; `{}` is a `{}` experiment",
                    spec.name,
                    spec.kind.name()
                ))
            }
        }
    }
    if run.sampled && spec.sampling.is_none() {
        spec.sampling = Some(SamplingSpec::default());
    }
    spec.validate().map_err(|e| e.to_string())?;
    let threads = if run.serial {
        1
    } else {
        run.threads.unwrap_or_else(engine::default_parallelism)
    };

    let mode = if spec.sampling.is_some() {
        " (sampled)"
    } else {
        ""
    };
    eprintln!(
        "running `{}`{mode}: {} policies x {} workloads x {} sweep points at {} \
         instructions/thread on {} threads...",
        spec.name,
        spec.policies.len().max(1),
        spec.workloads.len(),
        spec.sweep_points().len(),
        spec.scale.instructions_per_thread,
        threads
    );
    let report = engine::run_spec_with_threads(&spec, threads).map_err(|e| e.to_string())?;

    let stdout_format = run.format.unwrap_or(OutputFormat::Text);
    if let Some(path) = &run.out {
        let file_format = run
            .format
            .or_else(|| OutputFormat::from_path(path))
            .unwrap_or(OutputFormat::Json);
        let payload = render(&report, file_format)?;
        smt_core::artifacts::write_atomic(path, payload)
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("report written to {path}");
        if !run.quiet {
            print!("{}", render(&report, stdout_format)?);
        }
    } else {
        print!("{}", render(&report, stdout_format)?);
    }

    // Exit-code contract: 0 = every cell completed, 3 = degraded (partial
    // report above is still valid), 1 = nothing completed.
    Ok(match report.health.as_ref().map(|h| h.status) {
        None | Some(RunHealthStatus::Complete) => ExitCode::SUCCESS,
        Some(RunHealthStatus::Degraded) => {
            eprintln!(
                "warning: run degraded; partial report covers the completed cells (exit code 3)"
            );
            ExitCode::from(3)
        }
        Some(RunHealthStatus::Failed) => {
            eprintln!("error: every cell failed; see the health section of the report");
            ExitCode::FAILURE
        }
    })
}

fn render(
    report: &smt_core::experiments::ExperimentReport,
    format: OutputFormat,
) -> Result<String, String> {
    match format {
        OutputFormat::Text => Ok(report.format_text()),
        OutputFormat::Json => report
            .to_json()
            .map(|s| s + "\n")
            .map_err(|e| e.to_string()),
        OutputFormat::Toml => report.to_toml().map_err(|e| e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_spec_resolves_registry_names() {
        let spec = load_spec("fig09_two_thread_policies").unwrap();
        assert_eq!(spec.name, "fig09_two_thread_policies");
    }

    #[test]
    fn load_spec_rejects_unknown_names_with_listing() {
        let err = load_spec("fig99_warp").unwrap_err();
        assert!(err.contains("fig99_warp"));
        assert!(err.contains("fig09_two_thread_policies"));
    }

    #[test]
    fn load_spec_reads_toml_files() {
        let dir = std::env::temp_dir();
        let path = dir.join("smt_cli_test_spec.toml");
        let registry = ExperimentRegistry::builtin();
        let spec = registry.get("fig04_mlp_distance_cdf").unwrap();
        std::fs::write(&path, toml::to_string(spec).unwrap()).unwrap();
        let loaded = load_spec(path.to_str().unwrap()).unwrap();
        assert_eq!(&loaded, spec);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_spec_reports_malformed_files_as_invalid_config() {
        let dir = std::env::temp_dir();
        let path = dir.join("smt_cli_bad_spec.toml");
        std::fs::write(&path, "name = \"x\"\nbad_field = 1\n").unwrap();
        let err = load_spec(path.to_str().unwrap()).unwrap_err();
        assert!(err.contains("invalid configuration"), "{err}");
        assert!(err.contains("bad_field"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
