//! Hand-rolled argument parsing for `smt-cli` (no external CLI crate in this
//! offline workspace).

use smt_core::runner::RunScale;

/// Output format for `run`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OutputFormat {
    /// Aligned human-readable text (default for stdout).
    #[default]
    Text,
    /// Pretty-printed JSON.
    Json,
    /// TOML.
    Toml,
}

impl OutputFormat {
    /// Parses a `--format` value.
    pub fn from_name(name: &str) -> Option<OutputFormat> {
        match name {
            "text" => Some(OutputFormat::Text),
            "json" => Some(OutputFormat::Json),
            "toml" => Some(OutputFormat::Toml),
            _ => None,
        }
    }

    /// Infers a format from an output file extension.
    pub fn from_path(path: &str) -> Option<OutputFormat> {
        let ext = path.rsplit('.').next()?;
        match ext {
            "json" => Some(OutputFormat::Json),
            "toml" => Some(OutputFormat::Toml),
            "txt" | "text" => Some(OutputFormat::Text),
            _ => None,
        }
    }
}

/// Parsed command line.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// `smt-cli list`
    List,
    /// `smt-cli describe <name>`
    Describe {
        /// Registry entry to describe.
        name: String,
    },
    /// `smt-cli run <name|spec.toml> [flags]`
    Run(RunArgs),
    /// `smt-cli checkpoint <save|load> ...`
    Checkpoint(CheckpointCmd),
    /// `smt-cli trace <record|inspect|stats> ...`
    Trace(TraceCmd),
    /// `smt-cli help` / `--help`
    Help,
}

/// The `trace` subcommand: record, verify and summarize on-disk `.smtt`
/// trace files.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceCmd {
    /// `smt-cli trace record <benchmark> --out <path> [flags]`
    Record(TraceRecordArgs),
    /// `smt-cli trace inspect <path>`
    Inspect {
        /// Trace file to verify (header, every record, digest).
        path: String,
    },
    /// `smt-cli trace stats <path>`
    Stats {
        /// Trace file to summarize.
        path: String,
    },
}

/// Flags of `trace record`.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceRecordArgs {
    /// Synthetic benchmark to record (a Table I name).
    pub benchmark: String,
    /// `--out <path>`: where to write the `.smtt` file (required).
    pub out: String,
    /// `--ops <n>`: ops to record (default: twice the scale's per-thread
    /// instruction budget — enough that ICOUNT-style replay runs never wrap
    /// the file; flush policies and sampled runs consume more, so size it
    /// up for those).
    pub ops: Option<u64>,
    /// `--scale <name>`: scale whose seed (and default op count) to record
    /// under (default `standard`).
    pub scale: Option<RunScale>,
    /// `--seed <n>`: overrides the scale's base seed.
    pub seed: Option<u64>,
}

/// The `checkpoint` subcommand: capture or inspect serialized warm
/// checkpoints.
#[derive(Clone, PartialEq, Debug)]
pub enum CheckpointCmd {
    /// `smt-cli checkpoint save <bench1,bench2,...> --out <path> [flags]`
    Save(CheckpointSaveArgs),
    /// `smt-cli checkpoint load <path>`
    Load {
        /// Checkpoint JSON file to load and validate.
        path: String,
    },
}

/// Flags of `checkpoint save`.
#[derive(Clone, PartialEq, Debug)]
pub struct CheckpointSaveArgs {
    /// One benchmark per hardware thread (comma-separated on the command
    /// line).
    pub benchmarks: Vec<String>,
    /// `--out <path>`: where to write the checkpoint JSON (required).
    pub out: String,
    /// `--scale <name>`: scale whose warm-up prefix and seed are captured
    /// (default `standard`).
    pub scale: Option<RunScale>,
    /// `--instructions <n>`: overrides the warm-up prefix length.
    pub instructions: Option<u64>,
}

/// Flags of the `run` subcommand.
#[derive(Clone, PartialEq, Debug)]
pub struct RunArgs {
    /// Registry name or path to a TOML spec file.
    pub target: String,
    /// `--scale <tiny|test|standard|full>`: overrides the spec's run scale.
    pub scale: Option<RunScale>,
    /// `--instructions <n>`: overrides the instruction budget per thread.
    pub instructions: Option<u64>,
    /// `--per-group <n>`: keeps at most n workloads per ILP/MLP/MIX group.
    pub per_group: Option<usize>,
    /// `--limit <n>`: keeps at most the first n workloads.
    pub limit: Option<usize>,
    /// `--cores <n>`: overrides a chip spec's core count.
    pub cores: Option<usize>,
    /// `--threads <n>`: engine worker threads (default: machine parallelism).
    pub threads: Option<usize>,
    /// `--serial`: shorthand for `--threads 1`.
    pub serial: bool,
    /// `--out <path>`: also write the report to a file (format from the
    /// extension unless `--format` is given).
    pub out: Option<String>,
    /// `--format <text|json|toml>`: stdout (and `--out`) format.
    pub format: Option<OutputFormat>,
    /// `--quiet`: suppress the text report on stdout when `--out` is given.
    pub quiet: bool,
    /// `--sampled`: run a policy grid in sampled mode (SMARTS-style
    /// fast-forward/measure interleaving) with the default cadence.
    pub sampled: bool,
}

impl RunArgs {
    fn new(target: String) -> Self {
        RunArgs {
            target,
            scale: None,
            instructions: None,
            per_group: None,
            limit: None,
            cores: None,
            threads: None,
            serial: false,
            out: None,
            format: None,
            quiet: false,
            sampled: false,
        }
    }
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, unknown flags, or
/// malformed flag values.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut iter = args.iter();
    let command = match iter.next() {
        None => return Ok(Command::Help),
        Some(c) => c.as_str(),
    };
    match command {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => {
            if let Some(extra) = iter.next() {
                return Err(format!("`list` takes no arguments, got `{extra}`"));
            }
            Ok(Command::List)
        }
        "describe" => {
            let name = iter
                .next()
                .ok_or_else(|| "`describe` needs an experiment name".to_string())?
                .clone();
            if let Some(extra) = iter.next() {
                return Err(format!("`describe` takes one argument, got `{extra}`"));
            }
            Ok(Command::Describe { name })
        }
        "run" => {
            let target = iter
                .next()
                .ok_or_else(|| "`run` needs an experiment name or a spec.toml path".to_string())?
                .clone();
            let mut run = RunArgs::new(target);
            while let Some(flag) = iter.next() {
                let mut value_for = |flag: &str| {
                    iter.next()
                        .cloned()
                        .ok_or_else(|| format!("`{flag}` needs a value"))
                };
                match flag.as_str() {
                    "--scale" => {
                        let value = value_for("--scale")?;
                        run.scale = Some(RunScale::named(&value).ok_or_else(|| {
                            format!(
                                "unknown scale `{value}`, expected one of: {}",
                                RunScale::NAMES.join(", ")
                            )
                        })?);
                    }
                    "--instructions" => {
                        let value = value_for("--instructions")?;
                        run.instructions = Some(
                            value
                                .parse()
                                .map_err(|_| format!("invalid instruction count `{value}`"))?,
                        );
                    }
                    "--per-group" => {
                        let value = value_for("--per-group")?;
                        run.per_group = Some(
                            value
                                .parse()
                                .map_err(|_| format!("invalid per-group limit `{value}`"))?,
                        );
                    }
                    "--limit" => {
                        let value = value_for("--limit")?;
                        run.limit = Some(
                            value
                                .parse()
                                .map_err(|_| format!("invalid workload limit `{value}`"))?,
                        );
                    }
                    "--cores" => {
                        let value = value_for("--cores")?;
                        let cores: usize = value
                            .parse()
                            .map_err(|_| format!("invalid core count `{value}`"))?;
                        if cores == 0 {
                            return Err("`--cores` must be at least 1".to_string());
                        }
                        run.cores = Some(cores);
                    }
                    "--threads" => {
                        let value = value_for("--threads")?;
                        let threads: usize = value
                            .parse()
                            .map_err(|_| format!("invalid thread count `{value}`"))?;
                        if threads == 0 {
                            return Err("`--threads` must be at least 1".to_string());
                        }
                        run.threads = Some(threads);
                    }
                    "--serial" => run.serial = true,
                    "--out" => run.out = Some(value_for("--out")?),
                    "--format" => {
                        let value = value_for("--format")?;
                        run.format = Some(OutputFormat::from_name(&value).ok_or_else(|| {
                            format!("unknown format `{value}`, expected text, json or toml")
                        })?);
                    }
                    "--quiet" | "-q" => run.quiet = true,
                    "--sampled" => run.sampled = true,
                    other => return Err(format!("unknown flag `{other}` for `run`")),
                }
            }
            Ok(Command::Run(run))
        }
        "checkpoint" => {
            let action = iter
                .next()
                .ok_or_else(|| "`checkpoint` needs an action: save or load".to_string())?;
            match action.as_str() {
                "save" => {
                    let list = iter.next().ok_or_else(|| {
                        "`checkpoint save` needs a comma-separated benchmark list".to_string()
                    })?;
                    let benchmarks: Vec<String> = list
                        .split(',')
                        .map(|b| b.trim().to_string())
                        .filter(|b| !b.is_empty())
                        .collect();
                    if benchmarks.is_empty() {
                        return Err(format!("no benchmarks in `{list}`"));
                    }
                    let mut save = CheckpointSaveArgs {
                        benchmarks,
                        out: String::new(),
                        scale: None,
                        instructions: None,
                    };
                    while let Some(flag) = iter.next() {
                        let mut value_for = |flag: &str| {
                            iter.next()
                                .cloned()
                                .ok_or_else(|| format!("`{flag}` needs a value"))
                        };
                        match flag.as_str() {
                            "--out" => save.out = value_for("--out")?,
                            "--scale" => {
                                let value = value_for("--scale")?;
                                save.scale = Some(RunScale::named(&value).ok_or_else(|| {
                                    format!(
                                        "unknown scale `{value}`, expected one of: {}",
                                        RunScale::NAMES.join(", ")
                                    )
                                })?);
                            }
                            "--instructions" => {
                                let value = value_for("--instructions")?;
                                let instructions: u64 = value
                                    .parse()
                                    .map_err(|_| format!("invalid instruction count `{value}`"))?;
                                if instructions == 0 {
                                    return Err("`--instructions` must be at least 1".to_string());
                                }
                                save.instructions = Some(instructions);
                            }
                            other => {
                                return Err(format!("unknown flag `{other}` for `checkpoint save`"))
                            }
                        }
                    }
                    if save.out.is_empty() {
                        return Err("`checkpoint save` needs `--out <path>`".to_string());
                    }
                    Ok(Command::Checkpoint(CheckpointCmd::Save(save)))
                }
                "load" => {
                    let path = iter
                        .next()
                        .ok_or_else(|| "`checkpoint load` needs a file path".to_string())?
                        .clone();
                    if let Some(extra) = iter.next() {
                        return Err(format!(
                            "`checkpoint load` takes one argument, got `{extra}`"
                        ));
                    }
                    Ok(Command::Checkpoint(CheckpointCmd::Load { path }))
                }
                other => Err(format!(
                    "unknown checkpoint action `{other}`, expected save or load"
                )),
            }
        }
        "trace" => {
            let action = iter
                .next()
                .ok_or_else(|| "`trace` needs an action: record, inspect or stats".to_string())?;
            match action.as_str() {
                "record" => {
                    let benchmark = iter
                        .next()
                        .ok_or_else(|| "`trace record` needs a benchmark name".to_string())?
                        .clone();
                    let mut record = TraceRecordArgs {
                        benchmark,
                        out: String::new(),
                        ops: None,
                        scale: None,
                        seed: None,
                    };
                    while let Some(flag) = iter.next() {
                        let mut value_for = |flag: &str| {
                            iter.next()
                                .cloned()
                                .ok_or_else(|| format!("`{flag}` needs a value"))
                        };
                        match flag.as_str() {
                            "--out" => record.out = value_for("--out")?,
                            "--ops" => {
                                let value = value_for("--ops")?;
                                let ops: u64 = value
                                    .parse()
                                    .map_err(|_| format!("invalid op count `{value}`"))?;
                                if ops == 0 {
                                    return Err("`--ops` must be at least 1".to_string());
                                }
                                record.ops = Some(ops);
                            }
                            "--scale" => {
                                let value = value_for("--scale")?;
                                record.scale = Some(RunScale::named(&value).ok_or_else(|| {
                                    format!(
                                        "unknown scale `{value}`, expected one of: {}",
                                        RunScale::NAMES.join(", ")
                                    )
                                })?);
                            }
                            "--seed" => {
                                let value = value_for("--seed")?;
                                record.seed = Some(
                                    value
                                        .parse()
                                        .map_err(|_| format!("invalid seed `{value}`"))?,
                                );
                            }
                            other => {
                                return Err(format!("unknown flag `{other}` for `trace record`"))
                            }
                        }
                    }
                    if record.out.is_empty() {
                        return Err("`trace record` needs `--out <path>`".to_string());
                    }
                    Ok(Command::Trace(TraceCmd::Record(record)))
                }
                "inspect" | "stats" => {
                    let path = iter
                        .next()
                        .ok_or_else(|| format!("`trace {action}` needs a file path"))?
                        .clone();
                    if let Some(extra) = iter.next() {
                        return Err(format!(
                            "`trace {action}` takes one argument, got `{extra}`"
                        ));
                    }
                    Ok(Command::Trace(if action == "inspect" {
                        TraceCmd::Inspect { path }
                    } else {
                        TraceCmd::Stats { path }
                    }))
                }
                other => Err(format!(
                    "unknown trace action `{other}`, expected record, inspect or stats"
                )),
            }
        }
        other => Err(format!("unknown command `{other}`; try `smt-cli help`")),
    }
}

/// The help text.
pub const HELP: &str = "\
smt-cli - run the paper's experiments (and your own) from the command line

USAGE:
    smt-cli list
        List every registered experiment with its paper reference.

    smt-cli describe <name>
        Print an experiment's full spec as TOML (copy, edit, and run it).

    smt-cli run <name|spec.toml> [flags]
        Run a registered experiment or a TOML spec file. Each cell runs
        once; a cell that panics or reaches the spec's `[scale] max_cycles`
        cap is reported as failed while the other cells complete.

    smt-cli checkpoint save <bench1,bench2,...> --out <path> [flags]
        Functionally fast-forward a workload's warm-up prefix and write the
        warm state (caches, TLBs, predictors, LLSR) as a checkpoint JSON.

    smt-cli checkpoint load <path>
        Load a checkpoint file, restore it into the baseline machine of its
        benchmarks to validate it, and print its summary.

    smt-cli trace record <benchmark> --out <path.smtt> [flags]
        Record a benchmark's op stream into an on-disk `.smtt` binary trace.
        The file can then be used anywhere a benchmark name is accepted via
        the `trace:<path>` workload scheme.

    smt-cli trace inspect <path.smtt>
        Validate a trace file end to end (header, every record, digest) and
        print its header summary.

    smt-cli trace stats <path.smtt>
        Print a trace file's op-kind mix, branch and dependency statistics.

RUN FLAGS:
    --scale <tiny|test|standard|full>   Override the spec's run scale
    --instructions <n>                  Override instructions per thread
    --per-group <n>     Keep at most n workloads per ILP/MLP/MIX group
    --limit <n>         Keep at most the first n workloads
    --cores <n>         Override a chip spec's core count
    --threads <n>       Engine worker threads (default: all cores)
    --serial            Same as --threads 1
    --out <path>        Also write the report to a file (.json/.toml/.txt)
    --format <f>        Force text, json or toml output
    --quiet             With --out: suppress the stdout report
    --sampled           Sampled mode for policy grids: SMARTS-style
                        fast-forward/measure interleaving with shared warm
                        checkpoints and per-metric confidence intervals

CHECKPOINT SAVE FLAGS:
    --out <path>        Where to write the checkpoint JSON (required)
    --scale <name>      Scale whose warm-up prefix and seed to capture (default standard)
    --instructions <n>  Override the warm-up prefix length

TRACE RECORD FLAGS:
    --out <path>        Where to write the `.smtt` trace (required)
    --ops <n>           Ops to record (default: twice the scale's per-thread budget;
                        flush policies and sampled runs consume more - size it up)
    --scale <name>      Scale whose seed and budget to record under (default standard)
    --seed <n>          Override the scale's base seed

EXIT CODES (run):
    0   every cell completed
    3   degraded: some cells failed, partial report written
    1   total failure (no cells completed, or the run could not start,
        including a spec file that does not parse or validate)
    2   command-line parse error

EXAMPLES:
    smt-cli run fig09_two_thread_policies --scale test --out /tmp/r.json
    smt-cli run chip_2c2t_allocation_matrix --scale tiny --limit 1
    smt-cli describe fig09_two_thread_policies > my_experiment.toml
    smt-cli run my_experiment.toml --threads 8
    smt-cli run sampled_4t_policies --scale standard
    smt-cli run fig09_two_thread_policies --sampled --scale test
    smt-cli checkpoint save mcf,gcc --scale test --out /tmp/warm.json
    smt-cli checkpoint load /tmp/warm.json
    smt-cli trace record mcf --scale test --out /tmp/mcf.smtt
    smt-cli trace inspect /tmp/mcf.smtt
    smt-cli trace stats /tmp/mcf.smtt
";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Command {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    fn parse_err(args: &[&str]) -> String {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap_err()
    }

    #[test]
    fn top_level_commands() {
        assert_eq!(parse_ok(&[]), Command::Help);
        assert_eq!(parse_ok(&["help"]), Command::Help);
        assert_eq!(parse_ok(&["list"]), Command::List);
        assert_eq!(
            parse_ok(&["describe", "fig09_two_thread_policies"]),
            Command::Describe {
                name: "fig09_two_thread_policies".to_string()
            }
        );
    }

    #[test]
    fn run_flags_parse() {
        let command = parse_ok(&[
            "run",
            "fig09_two_thread_policies",
            "--scale",
            "test",
            "--per-group",
            "2",
            "--threads",
            "4",
            "--out",
            "/tmp/r.json",
        ]);
        let Command::Run(run) = command else {
            panic!("expected run");
        };
        assert_eq!(run.target, "fig09_two_thread_policies");
        assert_eq!(run.scale, Some(RunScale::test()));
        assert_eq!(run.per_group, Some(2));
        assert_eq!(run.threads, Some(4));
        assert_eq!(run.cores, None);
        assert_eq!(run.out.as_deref(), Some("/tmp/r.json"));
        assert!(!run.serial && !run.quiet);
    }

    #[test]
    fn run_errors_are_helpful() {
        assert!(parse_err(&["run"]).contains("needs an experiment name"));
        assert!(parse_err(&["run", "x", "--scale", "huge"]).contains("tiny"));
        assert!(parse_err(&["run", "x", "--threads", "0"]).contains("at least 1"));
        assert!(parse_err(&["run", "x", "--warp"]).contains("--warp"));
        assert!(parse_err(&["frobnicate"]).contains("frobnicate"));
        assert!(parse_err(&["list", "extra"]).contains("takes no arguments"));
    }

    #[test]
    fn cores_flags_parse_and_validate() {
        let Command::Run(run) = parse_ok(&["run", "chip_2c2t_allocation_matrix", "--cores", "4"])
        else {
            panic!("expected run");
        };
        assert_eq!(run.cores, Some(4));
        assert!(parse_err(&["run", "x", "--cores", "0"]).contains("at least 1"));
    }

    #[test]
    fn sampled_flag_parses() {
        let Command::Run(run) = parse_ok(&["run", "fig09_two_thread_policies", "--sampled"]) else {
            panic!("expected run");
        };
        assert!(run.sampled);
        let Command::Run(run) = parse_ok(&["run", "fig09_two_thread_policies"]) else {
            panic!("expected run");
        };
        assert!(!run.sampled);
    }

    #[test]
    fn checkpoint_save_parses_and_validates() {
        let command = parse_ok(&[
            "checkpoint",
            "save",
            "mcf,gcc",
            "--scale",
            "test",
            "--instructions",
            "5000",
            "--out",
            "/tmp/warm.json",
        ]);
        let Command::Checkpoint(CheckpointCmd::Save(save)) = command else {
            panic!("expected checkpoint save");
        };
        assert_eq!(save.benchmarks, vec!["mcf".to_string(), "gcc".to_string()]);
        assert_eq!(save.scale, Some(RunScale::test()));
        assert_eq!(save.instructions, Some(5_000));
        assert_eq!(save.out, "/tmp/warm.json");
        assert!(parse_err(&["checkpoint"]).contains("save or load"));
        assert!(parse_err(&["checkpoint", "save"]).contains("benchmark list"));
        assert!(parse_err(&["checkpoint", "save", ","]).contains("no benchmarks"));
        assert!(parse_err(&["checkpoint", "save", "mcf"]).contains("--out"));
        assert!(parse_err(&["checkpoint", "save", "mcf", "--warp"]).contains("--warp"));
        assert!(parse_err(&["checkpoint", "diff"]).contains("save or load"));
    }

    #[test]
    fn checkpoint_load_parses() {
        assert_eq!(
            parse_ok(&["checkpoint", "load", "/tmp/warm.json"]),
            Command::Checkpoint(CheckpointCmd::Load {
                path: "/tmp/warm.json".to_string()
            })
        );
        assert!(parse_err(&["checkpoint", "load"]).contains("file path"));
        assert!(parse_err(&["checkpoint", "load", "a", "b"]).contains("one argument"));
    }

    #[test]
    fn trace_record_parses_and_validates() {
        let command = parse_ok(&[
            "trace",
            "record",
            "mcf",
            "--scale",
            "test",
            "--ops",
            "4096",
            "--seed",
            "7",
            "--out",
            "/tmp/mcf.smtt",
        ]);
        let Command::Trace(TraceCmd::Record(record)) = command else {
            panic!("expected trace record");
        };
        assert_eq!(record.benchmark, "mcf");
        assert_eq!(record.scale, Some(RunScale::test()));
        assert_eq!(record.ops, Some(4_096));
        assert_eq!(record.seed, Some(7));
        assert_eq!(record.out, "/tmp/mcf.smtt");
        assert!(parse_err(&["trace"]).contains("record, inspect or stats"));
        assert!(parse_err(&["trace", "record"]).contains("benchmark name"));
        assert!(parse_err(&["trace", "record", "mcf"]).contains("--out"));
        assert!(parse_err(&["trace", "record", "mcf", "--ops", "0"]).contains("at least 1"));
        assert!(parse_err(&["trace", "record", "mcf", "--warp"]).contains("--warp"));
        assert!(parse_err(&["trace", "verify"]).contains("record, inspect or stats"));
    }

    #[test]
    fn trace_inspect_and_stats_parse() {
        assert_eq!(
            parse_ok(&["trace", "inspect", "/tmp/mcf.smtt"]),
            Command::Trace(TraceCmd::Inspect {
                path: "/tmp/mcf.smtt".to_string()
            })
        );
        assert_eq!(
            parse_ok(&["trace", "stats", "/tmp/mcf.smtt"]),
            Command::Trace(TraceCmd::Stats {
                path: "/tmp/mcf.smtt".to_string()
            })
        );
        assert!(parse_err(&["trace", "inspect"]).contains("file path"));
        assert!(parse_err(&["trace", "stats", "a", "b"]).contains("one argument"));
    }

    #[test]
    fn formats_from_name_and_path() {
        assert_eq!(OutputFormat::from_name("json"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::from_name("yaml"), None);
        assert_eq!(OutputFormat::from_path("r.json"), Some(OutputFormat::Json));
        assert_eq!(OutputFormat::from_path("r.toml"), Some(OutputFormat::Toml));
        assert_eq!(
            OutputFormat::from_path("report.txt"),
            Some(OutputFormat::Text)
        );
        assert_eq!(OutputFormat::from_path("noext"), None);
    }
}
