//! Regenerates every figure of the paper's evaluation section (§3).
//!
//! Usage:
//!   figures <figure|all>      [--seeds N] [--jobs N] [--exact]
//!                             [--client-model exact|aggregate] [--metrics]
//!                             [output=csv:PATH] [output=json:PATH]
//!   figures run <file.dcs>    (same flags and outputs)
//!   figures serve <file.dcs>  [--seeds N] [--exact] [--client-model M]
//!                             [--listen ADDR]
//!   figures list
//!
//! An unknown `--flag`, or a `--seeds`/`--jobs` value that is not a
//! number, exits 2 with the list of valid flags.
//!
//! Every figure is a scenario file under `examples/scenarios/` named
//! after it (grammar in EXPERIMENTS.md), embedded in this binary:
//! `figures fig6` runs `fig6.dcs` exactly as `figures run
//! examples/scenarios/fig6.dcs` would, and `figures all` runs the
//! golden-capture set in order. `serve` runs a scenario while
//! answering `/status`, `/metrics` and `/scenarios` as JSON on a local
//! HTTP port. `list` enumerates everything runnable.
//!
//! A scenario's whole (config, seed) grid runs through the
//! [`dclue_cluster::sweep`] worker pool and prints in submission order,
//! so the output is byte-identical whatever `--jobs` is (`--jobs 1`
//! bypasses the pool for the exact serial loop; the default is the
//! file's `[engine] jobs`, then `DCLUE_JOBS`, then all cores).
//!
//! The figure files run the segment-train fast path (statistically
//! equivalent, far fewer events — see DESIGN.md "The hybrid train
//! model"). `--exact` switches every point to the bit-reproducible
//! segment-exact engine; the committed `figures_output.txt` golden
//! capture is produced with `figures all --seeds 2 --exact`.
//!
//! `--client-model` replaces every point's driver model. `aggregate`
//! is the pooled session engine (DESIGN.md §14): one arrival process
//! and a connection multiplexer per node instead of per-terminal
//! timers and sockets. Statistically equivalent to `exact` (pinned by
//! `tests/aggregate_equivalence.rs`) and the only way to drive
//! million-terminal populations; keep it away from golden-capture
//! comparisons.
//!
//! Absolute numbers come from the 100x-scaled model (multiply tpm-C by
//! 100 for real-system equivalents); the paper's claims are about
//! *shapes* — who wins, by what factor, where the knees are.

use dclue_cluster::ClientModel;
use dclue_scenario::emit::OutputRequest;
use dclue_scenario::{runner, Plan};

/// `(name, source)` of the named `examples/scenarios/<name>.dcs` files.
macro_rules! embed {
    ($($name:literal),* $(,)?) => {
        &[$(($name, include_str!(concat!("../../../../examples/scenarios/", $name, ".dcs")))),*]
    };
}

/// `figures all`: the golden-capture figure set, in print order.
/// fig4.dcs prints the columns of paper figs 4 and 5 both.
const ALL: &[(&str, &str)] = embed! {
    "baseline", "fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "ablate-subpage", "ablate-thrash",
    "ablate-elevator", "ablate-mvcc", "ablate-wfq", "ablate-red", "ablate-san",
    "ablate-group-commit", "ablate-cac", "ablate-autonomic",
};

/// The figures outside `figures all`.
const MORE: &[(&str, &str)] = embed! { "fig5", "protocol", "scale", "fault-flap", "fault-crash" };

/// Every figure, as `(name, source)`.
fn figures() -> impl Iterator<Item = &'static (&'static str, &'static str)> {
    ALL.iter().chain(MORE)
}

/// The embedded source of figure `name`.
fn figure(name: &str) -> Option<&'static str> {
    figures().find(|(n, _)| *n == name).map(|&(_, src)| src)
}

/// Where `figures list` and `/scenarios` look for scenario files,
/// relative to the working directory (i.e. the repo root).
const SCENARIO_DIR: &str = "examples/scenarios";

/// Print a message and exit 2.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("[figures] {msg}");
    std::process::exit(2);
}

/// Parse and compile a scenario source, or die with its message (parse
/// errors carry the line number).
fn load_plan(label: &str, src: &str) -> Plan {
    let scenario = dclue_scenario::parse(src).unwrap_or_else(|e| die(format!("{label}: {e}")));
    dclue_scenario::compile(&scenario).unwrap_or_else(|e| die(format!("{label}: {e}")))
}

/// Read a scenario file, or die.
fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("cannot read '{path}': {e}")))
}

/// The `<file.dcs>` operand of `run` / `serve`.
fn file_operand(args: &[String], cmd: &str) -> String {
    match args.get(1).filter(|a| !a.starts_with('-')) {
        Some(f) => f.clone(),
        None => die(format!(
            "usage: figures {cmd} <file.dcs>  (see `figures list`)"
        )),
    }
}

/// The `output=csv:<path>` / `output=json:<path>` operands.
fn output_requests(args: &[String]) -> Vec<OutputRequest> {
    args.iter()
        .filter_map(|a| a.strip_prefix("output="))
        .map(|spec| OutputRequest::parse(spec).unwrap_or_else(|e| die(e)))
        .collect()
}

/// The command line's choices, applied to every scenario it runs.
struct Opts {
    seeds: Option<u64>,
    jobs: Option<usize>,
    exact: bool,
    client_model: Option<ClientModel>,
    metrics: bool,
    outputs: Vec<OutputRequest>,
}

/// Compile a scenario source and apply the command line to it.
fn prepare(label: &str, src: &str, opts: &Opts) -> Plan {
    let mut plan = load_plan(label, src);
    if let Some(s) = opts.seeds {
        plan.seeds = s.max(1);
    }
    plan.override_engine(opts.exact, opts.client_model)
        .unwrap_or_else(|e| die(format!("{label}: {e}")));
    plan
}

/// Execute a scenario and print its table, then write any `output=`
/// files from the same finished rows. `figures run <file>` and every
/// figure alias take this path.
fn cmd_run(label: &str, src: &str, opts: &Opts) {
    let plan = prepare(label, src, opts);
    // CLI --jobs wins, then the scenario's [engine] jobs, then the
    // environment; --metrics pins the serial path as everywhere else.
    let jobs = if opts.metrics {
        1
    } else {
        runner::resolve_plan_jobs(&plan, opts.jobs)
    };
    println!(
        "# scenario: {} — {}",
        plan.scenario.name, plan.scenario.description
    );
    let outcome = runner::run(&plan, jobs);
    match &outcome {
        runner::Outcome::Grid(rows) => print!("{}", runner::render_grid_table(&plan, rows)),
        runner::Outcome::Knee(out) => print!("{}", runner::render_knee_table(out)),
    }
    for req in &opts.outputs {
        req.write(&plan, &outcome).unwrap_or_else(|e| die(e));
        eprintln!("[figures] wrote {}", req.path);
    }
}

/// The one-line description of an embedded figure.
fn describe(src: &str) -> String {
    dclue_scenario::parse(src)
        .map(|sc| sc.description)
        .unwrap_or_else(|e| format!("parse error: {e}"))
}

/// Everything runnable, for `figures list` and `/scenarios`: the
/// figures, then the other scenario files in [`SCENARIO_DIR`]. A file
/// that does not parse is listed with its error as the description.
fn scenario_infos() -> Vec<dclue_scenario::service::ScenarioInfo> {
    use dclue_scenario::service::ScenarioInfo;
    let files = dclue_scenario::discover::discover_dir(std::path::Path::new(SCENARIO_DIR))
        .into_iter()
        .filter(|d| d.error.is_some() || figure(&d.name).is_none())
        .map(|d| ScenarioInfo {
            name: d.name,
            description: d
                .error
                .map_or(d.description, |e| format!("parse error: {e}")),
            source: d.path.display().to_string(),
        });
    figures()
        .map(|&(name, src)| ScenarioInfo {
            name: name.to_string(),
            description: describe(src),
            source: "built-in".to_string(),
        })
        .chain(files)
        .collect()
}

/// `figures serve <file.dcs>`: run the scenario with live endpoints.
fn cmd_serve(path: &str, opts: &Opts, listen_flag: Option<String>) {
    use dclue_scenario::service;
    let plan = prepare(path, &read_file(path), opts);
    let listen = listen_flag
        .or_else(|| plan.scenario.listen.clone())
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let svc = service::start(&plan, &listen, scenario_infos()).unwrap_or_else(|e| die(e));
    println!(
        "[figures] serving scenario '{}' on http://{}/  (GET /status /metrics /scenarios)",
        plan.scenario.name,
        svc.addr()
    );
    svc.run_blocking(&plan);
    println!("[figures] run complete; endpoints stay up (Ctrl-C to stop)");
    loop {
        std::thread::park();
    }
}

/// `figures list`: everything runnable.
fn cmd_list() {
    println!("`figures <name>` runs a built-in figure (`all`: the golden-capture set, in order);");
    println!("`figures run <path>` runs a file (figure sources are {SCENARIO_DIR}/<name>.dcs):");
    for s in scenario_infos() {
        println!("  {:<22} {}  [{}]", s.name, s.description, s.source);
    }
}

/// Every flag `figures` accepts, with the value it takes (if any).
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--exact", None),
    ("--metrics", None),
    ("--seeds", Some("N")),
    ("--jobs", Some("N")),
    ("--client-model", Some("exact|aggregate")),
    ("--listen", Some("ADDR")),
];

/// Report a bad command line with the list of valid flags; exit 2.
fn usage_error(msg: &str) -> ! {
    let valid: Vec<String> = FLAGS
        .iter()
        .map(|&(flag, val)| match val {
            Some(v) => format!("{flag} {v}"),
            None => flag.to_string(),
        })
        .collect();
    eprintln!("[figures] {msg}; valid flags: {}", valid.join(", "));
    std::process::exit(2);
}

/// Refuse any `-`-prefixed argument that is not in [`FLAGS`], and a
/// value-taking flag given last with no value.
fn check_flags(args: &[String]) {
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with('-') {
            match FLAGS.iter().find(|&&(flag, _)| flag == a) {
                None => usage_error(&format!("unknown flag '{a}'")),
                Some((_, Some(_))) if i + 1 == args.len() => {
                    usage_error(&format!("{a} needs a value"))
                }
                Some((_, Some(_))) => i += 1,
                Some((_, None)) => {}
            }
        }
        i += 1;
    }
}

/// `--metrics` reads the `dclue-trace` registry, which exists only
/// when `enabled` (debug builds, or `--features dclue-trace/trace`);
/// without it the flag would print nothing and still exit 0.
fn check_metrics(metrics: bool, enabled: bool) -> Result<(), &'static str> {
    if metrics && !enabled {
        return Err(
            "--metrics needs the metrics registry, which this build compiles out; \
             rebuild with `--features dclue-trace/trace` (or use a debug build)",
        );
    }
    Ok(())
}

/// The numeric value of `flag`, if given; a value that does not parse
/// is a usage error.
fn number_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let s = &args[i + 1]; // present: `check_flags` ran first
    Some(
        s.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} expects a number, got '{s}'"))),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_flags(&args);
    let flag_val = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let client_model = match flag_val("--client-model").map(String::as_str) {
        None => None,
        Some("exact") => Some(ClientModel::Exact),
        Some("aggregate") => Some(ClientModel::Aggregate),
        Some(other) => die(format!(
            "unknown --client-model '{other}' (choices: exact, aggregate)"
        )),
    };
    let opts = Opts {
        seeds: number_flag(&args, "--seeds"),
        jobs: number_flag(&args, "--jobs"),
        exact: args.iter().any(|a| a == "--exact"),
        client_model,
        // The metrics registry is thread-local, so `--metrics` pins the
        // serial (jobs=1) path and dumps the registry when the run
        // ends. Compiled in for debug builds or
        // `--features dclue-trace/trace`; refused otherwise.
        metrics: args.iter().any(|a| a == "--metrics"),
        outputs: output_requests(&args),
    };
    check_metrics(opts.metrics, dclue_trace::ENABLED).unwrap_or_else(|e| die(e));
    if let Some(j) = opts.jobs.filter(|&j| opts.metrics && j > 1) {
        eprintln!(
            "[figures] warning: --metrics reads a thread-local registry and must run \
             serially; ignoring --jobs {j} and using --jobs 1 (see EXPERIMENTS.md)"
        );
    }
    dclue_trace::metrics::set_enabled(opts.metrics);
    let which = args.first().map(String::as_str).unwrap_or("all");
    let t0 = std::time::Instant::now();
    match which {
        "run" => {
            let path = file_operand(&args, "run");
            cmd_run(&path, &read_file(&path), &opts)
        }
        "serve" => cmd_serve(
            &file_operand(&args, "serve"),
            &opts,
            flag_val("--listen").cloned(),
        ),
        "list" => cmd_list(),
        "all" => {
            if !opts.outputs.is_empty() {
                die("output= takes one scenario; run the figures one at a time");
            }
            for &(name, src) in ALL {
                cmd_run(name, src, &opts);
            }
        }
        name => match figure(name) {
            Some(src) => cmd_run(name, src, &opts),
            None => {
                eprintln!("unknown figure '{name}'");
                std::process::exit(2);
            }
        },
    }
    if opts.metrics {
        for (k, v) in dclue_trace::metrics::snapshot() {
            eprintln!("[figures] metric {which} {k}={v}");
        }
    }
    eprintln!("[figures] {which} done in {:?}", t0.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_is_named_after_its_file_and_compiles() {
        let mut names: Vec<&str> = figures().map(|&(name, _)| name).collect();
        for &(name, src) in figures() {
            let plan = load_plan(name, src);
            assert_eq!(plan.scenario.name, name, "scenario name of {name}.dcs");
            assert!(!plan.scenario.description.is_empty(), "{name}.dcs");
            assert!(!plan.points.is_empty(), "{name}.dcs is a grid");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len() + MORE.len(), "duplicate figure");
    }

    #[test]
    fn metrics_is_refused_when_the_registry_is_compiled_out() {
        let e = check_metrics(true, false).unwrap_err();
        assert!(e.contains("--features dclue-trace/trace"), "{e}");
        assert_eq!(check_metrics(true, true), Ok(()));
        assert_eq!(check_metrics(false, false), Ok(()));
    }
}
