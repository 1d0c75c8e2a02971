//! Subcommand implementations. Each command takes parsed [`Args`] and
//! writes to the given output stream, so tests can drive them end to end.

use std::io::Write;

use skyline_core::container;
use skyline_core::diagram::merge::merge;
use skyline_core::dynamic::DynamicEngine;
use skyline_core::geometry::{Dataset, Point};
use skyline_core::quadrant::QuadrantEngine;
use skyline_data::{csv, generators, hotel};

use crate::args::{ArgError, Args};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument problems.
    Args(ArgError),
    /// File system problems.
    Io(std::io::Error),
    /// CSV parse problems.
    Csv(csv::CsvError),
    /// Snapshot container problems.
    Container(container::Error),
    /// A mode or kind the command does not have (unknown subcommand,
    /// `mem` mode or `trace build --kind`): a usage error, like
    /// [`CliError::Args`].
    Usage(String),
    /// `query` was given an index container (from `save`), which `load`
    /// opens; carries the path.
    IndexContainer(String),
    /// Anything else, with a message.
    Other(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Csv(e) => write!(f, "csv error: {e}"),
            CliError::Container(e) => write!(f, "container error: {e}"),
            CliError::IndexContainer(path) => write!(
                f,
                "{path} is an index container (from `skydiag save`); open it with `skydiag load`"
            ),
            CliError::Usage(msg) | CliError::Other(msg) => write!(f, "{msg}"),
        }
    }
}

impl CliError {
    /// The process exit code: 2 for usage errors (bad arguments, unknown
    /// subcommands, modes or kinds), 1 for everything else.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Args(_) | CliError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<csv::CsvError> for CliError {
    fn from(e: csv::CsvError) -> Self {
        CliError::Csv(e)
    }
}

impl From<container::Error> for CliError {
    fn from(e: container::Error) -> Self {
        CliError::Container(e)
    }
}

fn parse_engine(name: &str) -> Result<QuadrantEngine, CliError> {
    QuadrantEngine::ALL
        .into_iter()
        .find(|e| e.name() == name)
        .ok_or_else(|| {
            CliError::Other(format!(
                "unknown engine {name:?}; expected one of baseline, dsg, scanning, sweeping"
            ))
        })
}

fn parse_distribution(name: &str) -> Result<generators::Distribution, CliError> {
    generators::Distribution::ALL
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| {
            CliError::Other(format!(
                "unknown distribution {name:?}; expected corr, inde or anti"
            ))
        })
}

fn load_dataset(path: &str) -> Result<Dataset, CliError> {
    if path == "hotel" {
        return Ok(hotel::dataset());
    }
    Ok(csv::parse_dataset_2d(&std::fs::read_to_string(path)?)?)
}

/// `skydiag gen --dist anti --n 100 --domain 1000 --seed 1 --out data.csv`
pub fn cmd_gen(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let spec = generators::DatasetSpec {
        n: args.get_usize("n", 100)?,
        dims: 2,
        domain: args.get_i64("domain", 1000)?,
        distribution: parse_distribution(args.get_or("dist", "inde"))?,
        seed: args.get_i64("seed", 1)? as u64,
    };
    let out_path = args.get("out").map(str::to_string);
    args.reject_unknown()?;
    let text = csv::to_csv_2d(&spec.build_2d());
    match out_path {
        Some(path) => std::fs::write(path, text)?,
        None => out.write_all(text.as_bytes())?,
    }
    Ok(())
}

/// `skydiag build data.csv --engine sweeping --kind quadrant --out d.skyd`
///
/// Writes one diagram, with its dataset, as a standalone snapshot
/// container ([`container::encode_cell_diagram`] or
/// [`container::encode_subcell_diagram`]).
pub fn cmd_build(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "input csv path (or 'hotel')")?;
    let dataset = load_dataset(input)?;
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let kind = args.get_or("kind", "quadrant").to_string();
    let out_path = args.require("out")?.to_string();
    let k = args.get_usize("k", 2)?;
    args.reject_unknown()?;
    let k = u32::try_from(k)
        .ok()
        .filter(|&k| k >= 1)
        .ok_or_else(|| ArgError::BadValue("k".into(), k.to_string(), "band order in 1..=2^32-1"))?;

    let cell = |diagram| container::encode_cell_diagram(&dataset, &diagram);
    let bytes = match kind.as_str() {
        "quadrant" => cell(engine.build(&dataset)),
        "skyband" => cell(skyline_core::skyband::build_incremental(&dataset, k)),
        "global" => cell(skyline_core::global::build(&dataset, engine)),
        "dynamic" => {
            container::encode_subcell_diagram(&dataset, &DynamicEngine::Scanning.build(&dataset))
        }
        other => {
            return Err(CliError::Other(format!(
                "unknown kind {other:?}; expected quadrant, global, dynamic or skyband"
            )))
        }
    };
    std::fs::write(&out_path, &bytes)?;
    writeln!(out, "wrote {} bytes to {}", bytes.len(), out_path)?;
    Ok(())
}

/// `skydiag query d.skyd --at 10,80` — the file's flags say whether it
/// holds a cell or a subcell diagram.
pub fn cmd_query(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.positional(0, "diagram path")?;
    let at = args.require("at")?;
    args.reject_unknown()?;

    let q = parse_point(at)?;
    let bytes = std::fs::read(path)?;
    let result: Vec<u32> = match container::kind(&bytes)? {
        container::Kind::CellDiagram => container::decode_cell_diagram(&bytes)?
            .1
            .query(q)
            .iter()
            .map(|id| id.0)
            .collect(),
        container::Kind::SubcellDiagram => container::decode_subcell_diagram(&bytes)?
            .1
            .query(q)
            .iter()
            .map(|id| id.0)
            .collect(),
        container::Kind::Index => return Err(CliError::IndexContainer(path.to_string())),
    };
    let names: Vec<String> = result.iter().map(|id| format!("p{id}")).collect();
    writeln!(out, "skyline at {q}: {{{}}}", names.join(", "))?;
    Ok(())
}

fn parse_point(text: &str) -> Result<Point, CliError> {
    let parts: Vec<&str> = text.split(',').collect();
    if parts.len() != 2 {
        return Err(CliError::Other(format!("expected x,y but found {text:?}")));
    }
    let x = parts[0]
        .trim()
        .parse()
        .map_err(|_| CliError::Other(format!("bad x coordinate {:?}", parts[0].trim())))?;
    let y = parts[1]
        .trim()
        .parse()
        .map_err(|_| CliError::Other(format!("bad y coordinate {:?}", parts[1].trim())))?;
    Ok(Point::new(x, y))
}

/// `skydiag stats data.csv [--engine sweeping]`
pub fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "input csv path (or 'hotel')")?;
    let dataset = load_dataset(input)?;
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    args.reject_unknown()?;

    let diagram = engine.build(&dataset);
    let merged = merge(&diagram);
    let stats = diagram.stats();
    writeln!(out, "points:            {}", dataset.len())?;
    writeln!(
        out,
        "grid:              {} x {} lines",
        diagram.grid().nx(),
        diagram.grid().ny()
    )?;
    writeln!(out, "cells:             {}", stats.cell_count)?;
    writeln!(out, "polyominoes:       {}", merged.len())?;
    writeln!(out, "distinct results:  {}", stats.distinct_results)?;
    writeln!(out, "avg skyline size:  {:.2}", stats.avg_result_len)?;
    writeln!(out, "max skyline size:  {}", stats.max_result_len)?;
    writeln!(out, "interned ids:      {}", stats.interned_ids)?;
    Ok(())
}

/// `skydiag render data.csv --out diagram.svg [--engine sweeping]`
pub fn cmd_render(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "input csv path (or 'hotel')")?;
    let dataset = load_dataset(input)?;
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let out_path = args.require("out")?.to_string();
    args.reject_unknown()?;

    let diagram = engine.build(&dataset);
    let merged = merge(&diagram);
    let svg = skyline_viz::svg::render_merged_diagram(
        &dataset,
        &diagram,
        &merged,
        &skyline_viz::svg::SvgOptions::default(),
    );
    std::fs::write(&out_path, &svg)?;
    writeln!(out, "wrote {} to {}", human_bytes(svg.len()), out_path)?;
    Ok(())
}

/// `skydiag ascii data.csv [--engine sweeping]`
pub fn cmd_ascii(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "input csv path (or 'hotel')")?;
    let dataset = load_dataset(input)?;
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    args.reject_unknown()?;
    let diagram = engine.build(&dataset);
    out.write_all(skyline_viz::ascii::render_cells(&diagram).as_bytes())?;
    writeln!(out, "\nlegend:\n{}", skyline_viz::ascii::legend(&diagram))?;
    Ok(())
}

/// `skydiag report <input>` — two families behind one verb, told apart by
/// sniffing the input file:
///
/// * `skydiag report trace.json [--json verdict.json]` diagnoses a Chrome
///   trace recorded by `skydiag trace build`/`serve-bench`: per-thread
///   busy fractions, stitch-stall time, chunk-claim imbalance, and a
///   critical-path phase table, plus a machine-checkable JSON verdict
///   naming the dominant bound (see `skyline_bench::diag`).
/// * `skydiag report data.csv --out report.html [--engine E] [--title T]`
///   is the classic dataset HTML report.
pub fn cmd_report(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "input csv path (or 'hotel') or trace.json")?;
    if input != "hotel" {
        if let Ok(content) = std::fs::read_to_string(input) {
            if content.trim_start().starts_with("{\"traceEvents\":[") {
                return cmd_report_trace(&content, args, out);
            }
        }
    }
    let dataset = load_dataset(input)?;
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let title = args.get_or("title", "Skyline diagram report").to_string();
    let out_path = args.require("out")?.to_string();
    args.reject_unknown()?;

    let html = skyline_viz::report::html_report(&title, &dataset, engine);
    std::fs::write(&out_path, &html)?;
    writeln!(out, "wrote {} to {}", human_bytes(html.len()), out_path)?;
    Ok(())
}

/// The trace-diagnosis arm of [`cmd_report`]: prints the human table and
/// either writes the JSON verdict to `--json PATH` or appends it to the
/// output stream, so both CI and a terminal get a machine-checkable
/// verdict without extra flags. With `--mem metrics.json` (the snapshot
/// `skydiag trace ... --metrics` writes), the allocator counters join the
/// diagnosis: `mem.alloc_bytes` against `mem.arena.index_bytes` drives
/// the `alloc-churn` verdict.
fn cmd_report_trace(trace: &str, args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let json_path = args.get("json").map(str::to_string);
    let mem_path = args.get("mem").map(str::to_string);
    args.reject_unknown()?;
    let diagnosis = match mem_path {
        Some(path) => {
            let metrics = std::fs::read_to_string(&path)?;
            let events = skyline_bench::diag::parse_chrome_trace(trace)
                .map_err(|e| CliError::Other(format!("trace diagnosis failed: {e}")))?;
            skyline_bench::diag::diagnose_with_mem(
                &events,
                metrics_counter(&metrics, "mem.alloc_bytes"),
                metrics_counter(&metrics, "mem.arena.index_bytes"),
            )
        }
        None => skyline_bench::diag::diagnose_trace(trace)
            .map_err(|e| CliError::Other(format!("trace diagnosis failed: {e}")))?,
    };
    out.write_all(skyline_bench::diag::render_diagnosis_table(&diagnosis).as_bytes())?;
    let json = skyline_bench::diag::render_diagnosis_json(&diagnosis);
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json)?;
            writeln!(out, "verdict json -> {path}")?;
        }
        None => out.write_all(json.as_bytes())?,
    }
    Ok(())
}

/// `skydiag trace <mode>` — two families behind one verb:
///
/// * `skydiag trace build --out trace.json [...]` and
///   `skydiag trace serve-bench --out trace.json [...]` record a telemetry
///   session around a diagram build (resp. a serving workload) and export
///   the phase spans as a Chrome trace-event file loadable in Perfetto or
///   `chrome://tracing`. `--metrics m.json` additionally dumps the flat
///   metrics snapshot.
/// * `skydiag trace data.csv --from 0,0 --to 25,100 [--engine sweeping]`
///   is the continuous-query segment trace (result changes along a route).
pub fn cmd_trace(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "trace mode (build|serve-bench) or input csv path")?;
    match input {
        "build" => return cmd_trace_build(args, out),
        "serve-bench" => return cmd_trace_serve_bench(args, out),
        _ => {}
    }
    let dataset = load_dataset(input)?;
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let from = parse_point(args.require("from")?)?;
    let to = parse_point(args.require("to")?)?;
    args.reject_unknown()?;

    let diagram = engine.build(&dataset);
    let steps = skyline_apps::continuous::trace_segment(&diagram, from, to);
    writeln!(
        out,
        "route {from} -> {to}: {} result changes",
        steps.len() - 1
    )?;
    for step in steps {
        let names: Vec<String> = step.result.iter().map(|id| format!("p{}", id.0)).collect();
        writeln!(
            out,
            "  t in [{:.4}, {:.4}]  {{{}}}",
            step.t_start,
            step.t_end,
            names.join(", ")
        )?;
    }
    Ok(())
}

/// Dataset for the telemetry trace modes: `--data <csv|hotel>` loads a
/// file, otherwise `--n/--dist/--domain/--seed` drive the generator (the
/// same knobs as `skydiag gen`).
fn trace_dataset(args: &Args, default_n: usize) -> Result<Dataset, CliError> {
    if let Some(path) = args.get("data") {
        return load_dataset(path);
    }
    let spec = generators::DatasetSpec {
        n: args.get_usize("n", default_n)?,
        dims: 2,
        domain: args.get_i64("domain", 1000)?,
        distribution: parse_distribution(args.get_or("dist", "inde"))?,
        seed: args.get_i64("seed", 1)? as u64,
    };
    Ok(spec.build_2d())
}

/// Explicit `--threads T` wins; otherwise the process-wide
/// `SKYLINE_THREADS` configuration applies (so traces show the same
/// schedule the user's builds run with).
fn trace_parallel_config(args: &Args) -> Result<skyline_core::parallel::ParallelConfig, CliError> {
    use skyline_core::parallel::ParallelConfig;
    Ok(if args.get("threads").is_some() {
        ParallelConfig::with_threads(args.get_usize("threads", 0)?)
    } else {
        ParallelConfig::from_env()
    })
}

/// Stops the active recording session, renders the captured spans as a
/// Chrome trace, validates the rendering before anything touches disk, and
/// writes the trace (plus, optionally, the metrics that moved since the
/// `before` snapshot).
fn write_trace_outputs(
    label: &str,
    out_path: &str,
    metrics: Option<(&str, &skyline_core::telemetry::MetricsSnapshot)>,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let events = skyline_core::telemetry::stop_recording();
    let trace = skyline_bench::json::render_chrome_trace(&events, label);
    let summary = skyline_bench::json::validate_chrome_trace(&trace)
        .map_err(|e| CliError::Other(format!("internal error: generated trace is invalid: {e}")))?;
    std::fs::write(out_path, &trace)?;
    let threads: std::collections::HashSet<u64> = events.iter().map(|e| e.thread).collect();
    writeln!(
        out,
        "trace:       {} spans across {} threads -> {}",
        summary.complete_events,
        threads.len(),
        out_path
    )?;
    if summary.complete_events == 0 {
        writeln!(
            out,
            "note:        no spans captured (was the CLI built without the `telemetry` feature?)"
        )?;
    }
    if let Some((path, before)) = metrics {
        let snapshot =
            skyline_core::telemetry::delta(before, &skyline_core::telemetry::metrics_snapshot());
        std::fs::write(
            path,
            skyline_bench::json::render_metrics_snapshot(&snapshot),
        )?;
        writeln!(
            out,
            "metrics:     {} counters, {} histograms -> {}",
            snapshot.counters.len(),
            snapshot.histograms.len(),
            path
        )?;
    }
    Ok(())
}

/// `skydiag trace build --out trace.json [--n N] [--dist ...] [--domain S]
/// [--seed K] [--data data.csv|hotel] [--engine ...]
/// [--kind quadrant|global|dynamic] [--threads T] [--metrics m.json]`
fn cmd_trace_build(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let kind = args.get_or("kind", "quadrant").to_string();
    // Resolved before the session starts: the peak re-seat and the
    // recording session are process-global, so a bad kind must not touch
    // them.
    type Build = fn(&Dataset, QuadrantEngine, &skyline_core::parallel::ParallelConfig) -> usize;
    let build: Build = match kind.as_str() {
        "quadrant" => |ds, engine, cfg| engine.build_with(ds, cfg).heap_bytes(),
        "global" => {
            |ds, engine, cfg| skyline_core::global::build_with(ds, engine, cfg).heap_bytes()
        }
        "dynamic" => |ds, _, cfg| DynamicEngine::Scanning.build_with(ds, cfg).heap_bytes(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown kind {other:?}; expected quadrant, global or dynamic"
            )))
        }
    };
    let out_path = args.require("out")?.to_string();
    let metrics_path = args.get("metrics").map(str::to_string);
    let cfg = trace_parallel_config(args)?;
    // The dynamic diagram is O(n^4) subcells; keep its default dataset small.
    let dataset = trace_dataset(args, if kind == "dynamic" { 40 } else { 400 })?;
    args.reject_unknown()?;

    skyline_core::telemetry::mem::reseat_peak();
    let before = skyline_core::telemetry::metrics_snapshot();
    skyline_core::telemetry::start_recording();
    let arena_bytes = build(&dataset, engine, &cfg);
    // Lands the retained arena size in the metrics snapshot so a later
    // `skydiag report <trace> --mem <metrics>` can compute the
    // transient-vs-retained churn ratio against `mem.alloc_bytes`.
    skyline_core::counter!("mem.arena.index_bytes").add(arena_bytes as u64);
    writeln!(
        out,
        "traced {kind} build: n={} engine={}",
        dataset.len(),
        engine.name()
    )?;
    write_trace_outputs(
        &format!("skydiag trace build ({kind})"),
        &out_path,
        metrics_path.as_deref().map(|path| (path, &before)),
        out,
    )
}

/// Parses `--stall NTH,MS` into the server's injected-stall test hook.
fn parse_stall(text: &str) -> Result<(u64, u64), CliError> {
    text.split_once(',')
        .and_then(|(nth, ms)| Some((nth.trim().parse().ok()?, ms.trim().parse().ok()?)))
        .ok_or_else(|| {
            CliError::Other(format!(
                "bad --stall {text:?}; expected NTH,MS (stall the NTH refresh for MS ms)"
            ))
        })
}

/// `skydiag trace serve-bench --out trace.json [--n N | --data ...]
/// [--readers R] [--rounds K] [--queries Q] [--updates U] [--seed S]
/// [--global 0|1] [--engine ...] [--metrics m.json]
/// [--stall NTH,MS [--anomaly dump.json]]`
///
/// `--stall NTH,MS` wedges the NTH refresh barrier for MS milliseconds
/// (the deterministic anomaly the flight recorder exists for). With
/// `--anomaly PATH`, the latency trigger is armed at half the stall just
/// before the workload runs; the stall span fires it, and the frozen
/// flight-recorder dump is validated and written to PATH as a Chrome
/// trace — the whole capture-after-the-fact flow, driven end to end.
fn cmd_trace_serve_bench(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let readers = args.get_usize("readers", 2)?;
    let rounds = args.get_usize("rounds", 3)?;
    let queries = args.get_usize("queries", 50)?;
    let updates = args.get_usize("updates", 8)?;
    let seed = args.get_i64("seed", 1)? as u64;
    let with_global = args.get_usize("global", 1)? != 0;
    let out_path = args.require("out")?.to_string();
    let metrics_path = args.get("metrics").map(str::to_string);
    let injected_stall = match args.get("stall") {
        Some(text) => parse_stall(text)?,
        None => (0, 0),
    };
    let anomaly_path = args.get("anomaly").map(str::to_string);
    let dataset = trace_dataset(args, 200)?;
    args.reject_unknown()?;
    if anomaly_path.is_some() && injected_stall.0 == 0 {
        return Err(CliError::Other(
            "--anomaly needs --stall NTH,MS: without a stall nothing fires the trigger".into(),
        ));
    }

    let domain = dataset
        .points()
        .iter()
        .flat_map(|p| [p.x, p.y])
        .max()
        .unwrap_or(1000)
        .max(1);
    let options = skyline_serve::ServerOptions {
        engine,
        with_global,
        injected_stall,
        ..skyline_serve::ServerOptions::default()
    };
    let spec = skyline_serve::WorkloadSpec {
        readers,
        rounds,
        queries_per_reader: queries,
        updates_per_round: updates,
        domain,
        seed,
        mix: skyline_serve::QueryMix::default(),
    };

    skyline_core::telemetry::mem::reseat_peak();
    let before = skyline_core::telemetry::metrics_snapshot();
    skyline_core::telemetry::start_recording();
    let (server, handles) = skyline_serve::SkylineServer::with_dataset(&dataset, options);
    if anomaly_path.is_some() {
        // Armed after the build so a slow construction span cannot win the
        // first-trigger race; half the stall clears every benign span.
        skyline_core::telemetry::set_latency_trigger((injected_stall.1 * 1_000_000 / 2).max(1));
    }
    let report = skyline_serve::workload::run(&server, &spec, &handles);
    skyline_core::telemetry::set_latency_trigger(0);
    writeln!(
        out,
        "traced serve-bench: n={} readers={readers} rounds={rounds} queries/reader/round={queries} \
         updates/round={updates}",
        dataset.len(),
    )?;
    writeln!(out, "queries:     {}", report.queries)?;
    writeln!(out, "epochs:      {}", report.epochs_published)?;
    writeln!(out, "checksum:    {:#018x}", report.checksum)?;
    write_trace_outputs(
        "skydiag trace serve-bench",
        &out_path,
        metrics_path.as_deref().map(|path| (path, &before)),
        out,
    )?;
    if let Some(path) = anomaly_path {
        let dump = skyline_core::telemetry::take_anomaly_dump().ok_or_else(|| {
            CliError::Other(
                "no anomaly trigger fired (is the CLI built without the `telemetry` feature, \
                 or the stall too short to cross the armed threshold?)"
                    .into(),
            )
        })?;
        let trace = skyline_bench::json::render_chrome_trace(&dump.events, "anomaly dump");
        skyline_bench::json::validate_chrome_trace(&trace).map_err(|e| {
            CliError::Other(format!(
                "internal error: anomaly dump trace is invalid: {e}"
            ))
        })?;
        std::fs::write(&path, &trace)?;
        writeln!(
            out,
            "anomaly:     {} ({} spans) -> {}",
            dump.reason,
            dump.events.len(),
            path
        )?;
    }
    Ok(())
}

/// `skydiag serve-bench <data.csv|hotel> [--readers R] [--rounds K]
/// [--queries Q] [--updates U] [--seed S] [--global 0|1] [--engine ...]`
///
/// Closed-loop serving benchmark: loads the dataset into a
/// [`skyline_serve::SkylineServer`], then drives `rounds` rounds of
/// `updates` writer updates (fenced by a refresh barrier) followed by
/// `readers × queries` concurrent reader queries on the scoped pool.
/// The printed checksum is deterministic for a given spec and dataset —
/// identical across thread counts and handle-arena warmth.
pub fn cmd_serve_bench(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let input = args.positional(0, "input csv path (or 'hotel')")?;
    let dataset = load_dataset(input)?;
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let readers = args.get_usize("readers", 4)?;
    let rounds = args.get_usize("rounds", 8)?;
    let queries = args.get_usize("queries", 250)?;
    let updates = args.get_usize("updates", 0)?;
    let seed = args.get_i64("seed", 1)? as u64;
    let with_global = args.get_usize("global", 1)? != 0;
    args.reject_unknown()?;

    let domain = dataset
        .points()
        .iter()
        .flat_map(|p| [p.x, p.y])
        .max()
        .unwrap_or(1000)
        .max(1);
    let options = skyline_serve::ServerOptions {
        engine,
        with_global,
        ..skyline_serve::ServerOptions::default()
    };
    let (server, handles) = skyline_serve::SkylineServer::with_dataset(&dataset, options);
    let spec = skyline_serve::WorkloadSpec {
        readers,
        rounds,
        queries_per_reader: queries,
        updates_per_round: updates,
        domain,
        seed,
        mix: skyline_serve::QueryMix::default(),
    };
    let report = skyline_serve::workload::run(&server, &spec, &handles);

    writeln!(
        out,
        "serve-bench: n={} readers={readers} rounds={rounds} queries/reader/round={queries} \
         updates/round={updates} global={with_global}",
        dataset.len(),
    )?;
    writeln!(out, "queries:     {}", report.queries)?;
    writeln!(out, "updates:     {}", report.updates)?;
    writeln!(out, "epochs:      {}", report.epochs_published)?;
    writeln!(out, "elapsed:     {:.1} ms", report.elapsed_ms)?;
    writeln!(
        out,
        "throughput:  {:.0} queries/s",
        report.queries_per_sec()
    )?;
    let arena = report.cache;
    writeln!(
        out,
        "arena:       {} hits / {} fills (final epoch)",
        arena.hits, arena.misses
    )?;
    writeln!(out, "checksum:    {:#018x}", report.checksum)?;
    Ok(())
}

/// Value of a named counter in a rendered metrics-snapshot JSON file
/// ([`skyline_bench::json::render_metrics_snapshot`] output; 0 when
/// absent). Line-oriented like the trace parser — counters render as
/// `"name": value` entries.
fn metrics_counter(json: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\": ");
    json.find(&pat)
        .and_then(|at| {
            let digits: String = json[at + pat.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            digits.parse().ok()
        })
        .unwrap_or(0)
}

/// `skydiag top [--ticks T] [--interval-ms MS] [--n N | --data ...]
/// [--readers R] [--queries Q] [--updates U] [--seed S] [--global 0|1]
/// [--engine ...]`
///
/// Interval-sampled serving monitor: builds one server, then runs `ticks`
/// workload slices against it and prints the metrics-registry *deltas* per
/// tick — query rate, epoch publications, handle-arena hits and fills, and a bucket
/// sparkline per histogram that moved. With `--interval-ms` the tick
/// starts are paced on a fixed schedule through the telemetry clock
/// ([`skyline_core::telemetry::spin_until`]), open-loop style; the default
/// of 0 runs ticks back to back.
pub fn cmd_top(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use skyline_core::telemetry;

    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let ticks = args.get_usize("ticks", 5)?.max(1);
    let interval_ms = args.get_usize("interval-ms", 0)? as u64;
    let readers = args.get_usize("readers", 2)?;
    let queries = args.get_usize("queries", 200)?;
    let updates = args.get_usize("updates", 4)?;
    let seed = args.get_i64("seed", 1)? as u64;
    let with_global = args.get_usize("global", 1)? != 0;
    let dataset = trace_dataset(args, 200)?;
    args.reject_unknown()?;

    let domain = dataset
        .points()
        .iter()
        .flat_map(|p| [p.x, p.y])
        .max()
        .unwrap_or(1000)
        .max(1);
    let options = skyline_serve::ServerOptions {
        engine,
        with_global,
        ..skyline_serve::ServerOptions::default()
    };
    let (server, handles) = skyline_serve::SkylineServer::with_dataset(&dataset, options);
    writeln!(
        out,
        "top: n={} readers={readers} queries/reader/tick={queries} updates/tick={updates} \
         interval={interval_ms}ms",
        dataset.len(),
    )?;

    let mut prev = telemetry::metrics_snapshot();
    // The last tick's epoch and its snapshot's arena counters: ticks that
    // publish nothing keep reading one snapshot, whose counters accumulate.
    let mut prev_arena: Option<(u64, skyline_serve::CacheStats)> = None;
    let origin_ns = telemetry::now_ns();
    for tick in 0..ticks {
        telemetry::spin_until(origin_ns + tick as u64 * interval_ms * 1_000_000);
        let spec = skyline_serve::WorkloadSpec {
            readers,
            rounds: 1,
            queries_per_reader: queries,
            updates_per_round: updates,
            domain,
            // A fresh seed per tick keeps the query stream moving instead
            // of replaying tick 1 into fully warmed arenas.
            seed: seed.wrapping_add(tick as u64),
            mix: skyline_serve::QueryMix::default(),
        };
        let tick_start = telemetry::now_ns();
        let report = skyline_serve::workload::run(&server, &spec, &handles);
        let wall_ms = telemetry::ms_since(tick_start).max(1e-6);
        let snap = telemetry::metrics_snapshot();
        let moved = telemetry::delta(&prev, &snap);

        // Per-tick arena hits/fills from the tick report's snapshot
        // counters, saturating like the allocator columns.
        let epoch = server.epoch();
        let arena = match prev_arena {
            Some((e, before)) if e == epoch => skyline_serve::CacheStats {
                hits: report.cache.hits.saturating_sub(before.hits),
                misses: report.cache.misses.saturating_sub(before.misses),
            },
            _ => report.cache,
        };
        prev_arena = Some((epoch, report.cache));
        writeln!(
            out,
            "tick {}/{ticks}: {} queries in {wall_ms:.1} ms ({:.0} q/s) | epochs {} \
             | arena +{} hits +{} fills | live {} | peak {} | +{} allocs",
            tick + 1,
            report.queries,
            report.queries as f64 * 1_000.0 / wall_ms,
            report.epochs_published,
            arena.hits,
            arena.misses,
            human_bytes(moved.counter("mem.live_bytes") as usize),
            human_bytes(moved.counter("mem.peak_bytes") as usize),
            moved.counter("mem.allocs"),
        )?;
        for h in &moved.histograms {
            // Only moved buckets survive the delta; the sparkline runs up
            // to the last of them, so its width tracks the magnitude range
            // actually exercised.
            let Some(&(last, _)) = h.buckets.last() else {
                continue;
            };
            let mut dense = vec![0u64; last + 1];
            for &(i, count) in &h.buckets {
                dense[i] = count;
            }
            writeln!(
                out,
                "  {:<20} {} (+{} samples)",
                h.name,
                skyline_viz::ascii::sparkline(&dense),
                dense.iter().sum::<u64>(),
            )?;
        }
        if snap.histograms.is_empty() && tick == 0 {
            writeln!(
                out,
                "  (metrics registry is empty — built without the `telemetry` feature?)"
            )?;
        }
        prev = snap;
    }
    Ok(())
}

/// `skydiag save <out.skd> [--data data.csv|hotel | --n N --dist D --domain S
/// --seed K] [--engine ...] [--global 0|1] [--dynamic 0|1]`
///
/// Builds a [`skyline_core::index::SkylineIndex`] over the dataset and
/// writes it as a versioned snapshot container
/// ([`skyline_core::container`]): a later `skydiag load` (or
/// [`skyline_serve::SkylineServer::from_container`]) cold-starts from the
/// file without rebuilding any diagram.
pub fn cmd_save(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let out_path = args
        .positional(0, "output container path (out.skd)")?
        .to_string();
    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let with_global = args.get_usize("global", 1)? != 0;
    let with_dynamic = args.get_usize("dynamic", 0)? != 0;
    let dataset = trace_dataset(args, 200)?;
    args.reject_unknown()?;

    let index = skyline_core::index::SkylineIndex::builder()
        .engine(engine)
        .with_global(with_global)
        .with_dynamic(with_dynamic)
        .build(&dataset);
    let handles: Vec<skyline_core::maintained::Handle> = (0..dataset.len() as u64)
        .map(skyline_core::maintained::Handle)
        .collect();
    let bytes = container::encode_index(&index, &handles);
    std::fs::write(&out_path, &bytes)?;
    writeln!(
        out,
        "wrote {} to {} (container v{}.{})",
        human_bytes(bytes.len()),
        out_path,
        container::MAJOR_VERSION,
        container::MINOR_VERSION,
    )?;
    for s in container::sections(&bytes)? {
        writeln!(
            out,
            "  section {:>2}  {:<24} {:>9} bytes @ {}",
            s.id, s.name, s.length, s.offset
        )?;
    }
    Ok(())
}

/// `skydiag load <in.skd> [--at X,Y]`
///
/// Cold-starts a [`skyline_serve::SkylineServer`] from a snapshot container
/// written by `skydiag save` — every section is checksum-validated and
/// bounds-checked, then the diagrams are adopted without rebuilding. With
/// `--at` the loaded server also answers the three query families at that
/// point.
pub fn cmd_load(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use skyline_core::telemetry;

    let path = args.positional(0, "input container path (in.skd)")?;
    let at = args.get("at").map(str::to_string);
    let bytes = std::fs::read(path)?;
    args.reject_unknown()?;

    let start_ns = telemetry::now_ns();
    let (server, _handles) = skyline_serve::SkylineServer::from_container(
        &bytes,
        skyline_serve::ServerOptions::default(),
    )?;
    let cold_ms = telemetry::ms_since(start_ns);

    let mut reader = server.reader();
    let snap = reader.snapshot();
    let (has_global, has_dynamic) = snap.index().map_or((false, false), |ix| {
        (
            ix.global_diagram().is_some(),
            ix.dynamic_diagram().is_some(),
        )
    });
    writeln!(
        out,
        "cold-started epoch {} from {} ({}) in {cold_ms:.2} ms",
        snap.epoch(),
        path,
        human_bytes(bytes.len()),
    )?;
    writeln!(
        out,
        "points: {}  diagrams: quadrant{}{}",
        snap.len(),
        if has_global { " + global" } else { "" },
        if has_dynamic { " + dynamic" } else { "" },
    )?;
    if let Some(at) = at {
        let q = parse_point(&at)?;
        let show = |ids: &[skyline_core::maintained::Handle]| {
            let names: Vec<String> = ids.iter().map(|h| format!("h{}", h.0)).collect();
            format!("{{{}}}", names.join(", "))
        };
        writeln!(out, "quadrant at {q}: {}", show(&snap.quadrant(q)))?;
        writeln!(out, "global   at {q}: {}", show(&snap.global(q)))?;
        writeln!(out, "dynamic  at {q}: {}", show(&snap.dynamic(q)))?;
    }
    Ok(())
}

/// `skydiag mem <build|serve-bench>` — the memory-observatory report:
/// runs the workload under the counting allocator and prints where the
/// bytes went. Both modes print the allocator totals (allocated / freed /
/// peak) and the per-phase attribution table; `build` adds the retained
/// arena breakdown of the built index plus the container section sizes a
/// `skydiag save` of it would write, `serve-bench` adds the published
/// snapshot's retained footprint.
pub fn cmd_mem(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let mode = args.positional(0, "mem mode (build|serve-bench)")?;
    match mode {
        "build" => cmd_mem_build(args, out),
        "serve-bench" => cmd_mem_serve_bench(args, out),
        other => Err(CliError::Usage(format!(
            "unknown mem mode {other:?}; expected build or serve-bench"
        ))),
    }
}

/// Allocator totals and per-phase attribution, shared by both `mem`
/// modes, from the [`delta`](skyline_core::telemetry::delta) of the
/// snapshots taken right before and right after the workload. The peak
/// is the workload's own because the caller re-seats it
/// ([`reseat_peak`](skyline_core::telemetry::mem::reseat_peak)) before
/// taking `before`.
fn write_mem_tables(
    before: &skyline_core::telemetry::MetricsSnapshot,
    after: &skyline_core::telemetry::MetricsSnapshot,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    use skyline_core::telemetry::{self, mem};
    if !mem::enabled() {
        writeln!(
            out,
            "allocator:   counters read zero (built without the `mem-telemetry` feature)"
        )?;
        return Ok(());
    }
    let moved = telemetry::delta(before, after);
    let baseline = before.counter("mem.live_bytes");
    writeln!(
        out,
        "allocator:   {} allocated across {} allocations, {} freed",
        human_bytes(moved.counter("mem.alloc_bytes") as usize),
        moved.counter("mem.allocs"),
        human_bytes(moved.counter("mem.dealloc_bytes") as usize),
    )?;
    writeln!(
        out,
        "working set: {} retained (live delta), {} peak over baseline",
        human_bytes(moved.counter("mem.live_bytes").saturating_sub(baseline) as usize),
        human_bytes(moved.counter("mem.peak_bytes").saturating_sub(baseline) as usize),
    )?;
    writeln!(
        out,
        "{:<18} {:>12} {:>12} {:>10}",
        "phase", "alloc", "freed", "allocs"
    )?;
    for (phase, (alloc_bytes, dealloc_bytes, allocs, _)) in
        mem::MemPhase::ALL.iter().zip(mem::PHASE_METRIC_NAMES)
    {
        let (alloc_bytes, dealloc_bytes) =
            (moved.counter(alloc_bytes), moved.counter(dealloc_bytes));
        if alloc_bytes == 0 && dealloc_bytes == 0 {
            continue;
        }
        writeln!(
            out,
            "{:<18} {:>12} {:>12} {:>10}",
            phase.name(),
            human_bytes(alloc_bytes as usize),
            human_bytes(dealloc_bytes as usize),
            moved.counter(allocs),
        )?;
    }
    Ok(())
}

/// `skydiag mem build [--n N | --data ...] [--dist ...] [--domain S]
/// [--seed K] [--engine ...] [--global 0|1] [--dynamic 0|1] [--threads T]`
fn cmd_mem_build(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use skyline_core::telemetry;

    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let with_global = args.get_usize("global", 1)? != 0;
    let with_dynamic = args.get_usize("dynamic", 0)? != 0;
    let cfg = trace_parallel_config(args)?;
    // The dynamic diagram is O(n^4) subcells; keep its default dataset small.
    let dataset = trace_dataset(args, if with_dynamic { 40 } else { 400 })?;
    args.reject_unknown()?;

    telemetry::mem::reseat_peak();
    let before = telemetry::metrics_snapshot();
    let start_ns = telemetry::now_ns();
    let index = skyline_core::index::SkylineIndex::builder()
        .engine(engine)
        .with_global(with_global)
        .with_dynamic(with_dynamic)
        .build_with(&dataset, &cfg);
    let build_ms = telemetry::ms_since(start_ns);
    let after = telemetry::metrics_snapshot();

    writeln!(
        out,
        "mem build: n={} engine={} global={with_global} dynamic={with_dynamic} ({build_ms:.1} ms)",
        dataset.len(),
        engine.name(),
    )?;
    write_mem_tables(&before, &after, out)?;

    writeln!(out, "retained arenas:")?;
    let mut arena =
        |name: &str, bytes: usize| writeln!(out, "  {:<24} {:>12}", name, human_bytes(bytes));
    arena("dataset", index.dataset().heap_bytes())?;
    arena("quadrant diagram", index.quadrant_diagram().heap_bytes())?;
    arena("merged polyominoes", index.polyominoes().heap_bytes())?;
    if let Some(global) = index.global_diagram() {
        arena("global diagram", global.heap_bytes())?;
    }
    if let Some(dynamic) = index.dynamic_diagram() {
        arena("dynamic diagram", dynamic.heap_bytes())?;
    }
    arena("total", index.heap_bytes())?;

    let bytes = container::encode_index(&index, &[]);
    writeln!(
        out,
        "container:   {} total (what `skydiag save` would write)",
        human_bytes(bytes.len())
    )?;
    for sec in container::sections(&bytes)? {
        writeln!(
            out,
            "  section {:>2}  {:<24} {:>9} bytes",
            sec.id, sec.name, sec.length
        )?;
    }
    Ok(())
}

/// `skydiag mem serve-bench [--n N | --data ...] [--readers R] [--rounds K]
/// [--queries Q] [--updates U] [--seed S] [--global 0|1] [--engine ...]`
fn cmd_mem_serve_bench(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    use skyline_core::telemetry;

    let engine = parse_engine(args.get_or("engine", "sweeping"))?;
    let readers = args.get_usize("readers", 2)?;
    let rounds = args.get_usize("rounds", 3)?;
    let queries = args.get_usize("queries", 50)?;
    let updates = args.get_usize("updates", 8)?;
    let seed = args.get_i64("seed", 1)? as u64;
    let with_global = args.get_usize("global", 1)? != 0;
    let dataset = trace_dataset(args, 200)?;
    args.reject_unknown()?;

    let domain = dataset
        .points()
        .iter()
        .flat_map(|p| [p.x, p.y])
        .max()
        .unwrap_or(1000)
        .max(1);
    let options = skyline_serve::ServerOptions {
        engine,
        with_global,
        ..skyline_serve::ServerOptions::default()
    };
    let spec = skyline_serve::WorkloadSpec {
        readers,
        rounds,
        queries_per_reader: queries,
        updates_per_round: updates,
        domain,
        seed,
        mix: skyline_serve::QueryMix::default(),
    };

    telemetry::mem::reseat_peak();
    let before = telemetry::metrics_snapshot();
    let start_ns = telemetry::now_ns();
    let (server, handles) = skyline_serve::SkylineServer::with_dataset(&dataset, options);
    let report = skyline_serve::workload::run(&server, &spec, &handles);
    let elapsed_ms = telemetry::ms_since(start_ns);
    let after = telemetry::metrics_snapshot();

    writeln!(
        out,
        "mem serve-bench: n={} readers={readers} rounds={rounds} queries/reader/round={queries} \
         updates/round={updates} ({elapsed_ms:.1} ms, {} queries, checksum {:#018x})",
        dataset.len(),
        report.queries,
        report.checksum,
    )?;
    write_mem_tables(&before, &after, out)?;
    writeln!(
        out,
        "snapshot:    {} retained by the published epoch (index arenas, \
         handle table, handle arenas)",
        human_bytes(server.reader().snapshot().heap_bytes()),
    )?;
    Ok(())
}

fn human_bytes(n: usize) -> String {
    if n >= 1 << 20 {
        format!("{:.1} MiB", n as f64 / (1 << 20) as f64)
    } else if n >= 1 << 10 {
        format!("{:.1} KiB", n as f64 / (1 << 10) as f64)
    } else {
        format!("{n} B")
    }
}

/// Usage text.
pub const USAGE: &str = "skydiag — skyline diagrams on the command line

USAGE:
  skydiag gen    [--dist corr|inde|anti] [--n N] [--domain S] [--seed K] [--out data.csv]
  skydiag build  <data.csv|hotel> --out d.skyd [--engine baseline|dsg|scanning|sweeping]
                 [--kind quadrant|global|dynamic|skyband] [--k K]
  skydiag query  <d.skyd> --at X,Y
  skydiag stats  <data.csv|hotel> [--engine ...]
  skydiag render <data.csv|hotel> --out d.svg [--engine ...]
  skydiag ascii  <data.csv|hotel> [--engine ...]
  skydiag trace  <data.csv|hotel> --from X,Y --to X,Y [--engine ...]
  skydiag trace  build --out trace.json [--n N] [--dist ...] [--domain S] [--seed K]
                 [--data data.csv|hotel] [--engine ...] [--kind quadrant|global|dynamic]
                 [--threads T] [--metrics metrics.json]
  skydiag trace  serve-bench --out trace.json [--n N | --data ...] [--readers R]
                 [--rounds K] [--queries Q] [--updates U] [--seed S]
                 [--global 0|1] [--engine ...] [--metrics metrics.json]
                 [--stall NTH,MS [--anomaly dump.json]]
                 (--stall wedges the NTH refresh for MS ms; --anomaly arms the
                 latency trigger and writes the flight-recorder dump it freezes)
  skydiag report <data.csv|hotel> --out report.html [--engine ...] [--title T]
  skydiag report <trace.json> [--json verdict.json] [--mem metrics.json]
                 (Chrome-trace input is auto-detected; prints a per-thread
                 busy/stall diagnosis table plus a machine-readable verdict;
                 --mem joins the allocator counters and can re-label the
                 verdict alloc-churn when transient allocations dominate)
  skydiag serve-bench <data.csv|hotel> [--readers R] [--rounds K] [--queries Q]
                 [--updates U] [--seed S] [--global 0|1] [--engine ...]
  skydiag top    [--ticks T] [--interval-ms MS] [--n N | --data ...] [--readers R]
                 [--queries Q] [--updates U] [--seed S] [--global 0|1] [--engine ...]
                 (interval-sampled serving monitor: per-tick metric deltas,
                 live/peak heap bytes and allocation counts from the counting
                 allocator, with histogram-bucket sparklines — the
                 mem.alloc_size row is the allocation-size distribution)
  skydiag mem    build [--n N | --data ...] [--dist ...] [--domain S] [--seed K]
                 [--engine ...] [--global 0|1] [--dynamic 0|1] [--threads T]
  skydiag mem    serve-bench [--n N | --data ...] [--readers R] [--rounds K]
                 [--queries Q] [--updates U] [--seed S] [--global 0|1] [--engine ...]
                 (memory observatory: allocator totals, per-phase allocation
                 attribution, retained arena breakdown, container sections)
  skydiag save   <out.skd> [--n N | --data data.csv|hotel] [--dist ...] [--domain S]
                 [--seed K] [--engine ...] [--global 0|1] [--dynamic 0|1]
                 (build an index and write it as a versioned snapshot container)
  skydiag load   <in.skd> [--at X,Y]
                 (cold-start a server from a container — checksum-validated,
                 no diagram rebuild; --at also answers all three families)

Input CSV: one `x,y` integer row per point; `#` comments allowed.
The literal input 'hotel' loads the paper's 11-hotel running example.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        cmd: fn(&Args, &mut dyn Write) -> Result<(), CliError>,
        parts: &[&str],
    ) -> Result<String, CliError> {
        let args = Args::parse(parts.iter().map(|s| s.to_string()))?;
        let mut out = Vec::new();
        cmd(&args, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    /// The two counters the observer tests watch: one only they bump, and
    /// one every quadrant build bumps. No command zeroes a counter, so
    /// whatever runs concurrently, neither may read lower later.
    fn watched_counters() -> (u64, u64) {
        let snap = skyline_core::telemetry::metrics_snapshot();
        (
            snap.counter("test.skydiag.observed"),
            snap.counter("quadrant.builds"),
        )
    }

    fn assert_not_lower(before: (u64, u64), after: (u64, u64), what: &str) {
        assert!(
            after.0 >= before.0 && after.1 >= before.1,
            "{what} lowered a counter: (test, quadrant.builds) {before:?} -> {after:?}"
        );
    }

    #[test]
    fn gen_with_out_flag_writes_the_file() {
        // Regression: --out must be consumed before unknown-flag rejection.
        let dir = std::env::temp_dir().join("skydiag-test-gen");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.csv");
        run(cmd_gen, &["--n", "5", "--out", path.to_str().unwrap()]).unwrap();
        let ds = csv::parse_dataset_2d(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(ds.len(), 5);
    }

    #[test]
    fn gen_to_stdout_is_valid_csv() {
        let text = run(cmd_gen, &["--n", "25", "--dist", "anti", "--seed", "3"]).unwrap();
        let ds = csv::parse_dataset_2d(&text).unwrap();
        assert_eq!(ds.len(), 25);
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("skydiag-test-container");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hotel.skd");
        let path_str = path.to_str().unwrap();

        let msg = run(cmd_save, &[path_str, "--data", "hotel", "--global", "1"]).unwrap();
        assert!(msg.contains("wrote"), "{msg}");
        assert!(msg.contains("section"), "{msg}");

        let answer = run(cmd_load, &[path_str, "--at", "12,81"]).unwrap();
        assert!(answer.contains("cold-started epoch 1"), "{answer}");
        // Handles are 0-based over the hotel dataset: the paper's {p8, p10}
        // loads as {h7, h9}.
        assert!(answer.contains("{h7, h9}"), "{answer}");
    }

    #[test]
    fn load_rejects_corrupt_containers_with_a_typed_error() {
        let dir = std::env::temp_dir().join("skydiag-test-container-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.skd");
        let path_str = path.to_str().unwrap();

        run(cmd_save, &[path_str, "--data", "hotel"]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        std::fs::write(&path, &bytes).unwrap();

        let err = run(cmd_load, &[path_str]).unwrap_err();
        assert!(
            matches!(err, CliError::Container(_)),
            "expected a container error, got: {err}"
        );
    }

    #[test]
    fn build_query_roundtrip() {
        let dir = std::env::temp_dir().join("skydiag-test-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let diagram_path = dir.join("hotel.skyd");
        let diagram_str = diagram_path.to_str().unwrap();

        let msg = run(
            cmd_build,
            &["hotel", "--out", diagram_str, "--engine", "scanning"],
        )
        .unwrap();
        assert!(msg.contains("wrote"));

        let answer = run(cmd_query, &[diagram_str, "--at", "12,81"]).unwrap();
        // Point ids are 0-based: the paper's {p8, p10} prints as {p7, p9}.
        assert!(answer.contains("{p7, p9}"), "{answer}");
    }

    #[test]
    fn build_skyband_and_query() {
        let dir = std::env::temp_dir().join("skydiag-test-skyband");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hotel-band.skyd");
        let path_str = path.to_str().unwrap();
        run(
            cmd_build,
            &["hotel", "--out", path_str, "--kind", "skyband", "--k", "2"],
        )
        .unwrap();
        // Serialized skyband diagrams answer like any cell diagram; the
        // 2-band at (12, 81) adds p5 and p7 to the skyline {p8, p10}
        // (0-based: p4, p6, p7, p9).
        let answer = run(cmd_query, &[path_str, "--at", "12,81"]).unwrap();
        assert!(answer.contains("{p4, p6, p7, p9}"), "{answer}");
    }

    #[test]
    fn build_dynamic_and_query() {
        let dir = std::env::temp_dir().join("skydiag-test-dynamic");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hotel-dyn.skyd");
        let path_str = path.to_str().unwrap();
        run(
            cmd_build,
            &["hotel", "--out", path_str, "--kind", "dynamic"],
        )
        .unwrap();
        // (19, 50) lies strictly inside a subcell; its dynamic skyline in
        // the reconstruction is {p6, p10} (0-based: p5, p9).
        // The file's flags mark it a subcell diagram; query needs no kind.
        let answer = run(cmd_query, &[path_str, "--at", "19,50"]).unwrap();
        assert!(answer.contains("{p5, p9}"), "{answer}");
    }

    /// `build --kind skyband --k <k>` fails with an argument error on
    /// `--k` and writes nothing.
    fn assert_band_order_refused(k: &str) {
        let path = std::env::temp_dir().join(format!("skydiag-test-band-{k}.skyd"));
        let path_str = path.to_str().unwrap();
        let err = run(
            cmd_build,
            &["hotel", "--out", path_str, "--kind", "skyband", "--k", k],
        );
        assert!(
            matches!(&err, Err(CliError::Args(ArgError::BadValue(flag, _, _))) if flag == "k"),
            "--k {k}: {err:?}"
        );
        assert!(!path.exists(), "nothing is written for --k {k}");
    }

    #[test]
    fn build_rejects_a_zero_band_order() {
        assert_band_order_refused("0");
    }

    #[test]
    fn build_rejects_a_band_order_past_u32() {
        // 2^32 + 1 would truncate to the 1-band under `as u32`.
        assert_band_order_refused("4294967297");
    }

    #[test]
    fn query_refuses_an_index_container() {
        let dir = std::env::temp_dir().join("skydiag-test-query-index");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hotel.skd");
        let path_str = path.to_str().unwrap();
        run(cmd_save, &[path_str, "--data", "hotel"]).unwrap();
        let err = run(cmd_query, &[path_str, "--at", "12,81"]).unwrap_err();
        assert!(matches!(err, CliError::IndexContainer(_)), "{err}");
        assert!(err.to_string().contains("skydiag load"), "{err}");
    }

    #[test]
    fn serve_bench_reports_and_is_deterministic() {
        let flags = [
            "hotel",
            "--readers",
            "2",
            "--rounds",
            "3",
            "--queries",
            "40",
            "--updates",
            "2",
            "--seed",
            "7",
        ];
        let first = run(cmd_serve_bench, &flags).unwrap();
        assert!(first.contains("queries:     240"), "{first}");
        assert!(first.contains("epochs:"), "{first}");
        assert!(first.contains("checksum:    0x"), "{first}");
        let second = run(cmd_serve_bench, &flags).unwrap();
        let checksum = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("checksum:"))
                .map(str::to_owned)
        };
        assert_eq!(checksum(&first), checksum(&second), "must be deterministic");

        // The arena counters are deterministic too: one fill per distinct
        // result asked for, whatever the readers' interleaving.
        let arena = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("arena:"))
                .map(str::to_owned)
        };
        assert!(
            arena(&first).is_some_and(|l| l.contains(" fills")),
            "{first}"
        );
        assert_eq!(arena(&first), arena(&second));

        // There is no cache to size any more.
        let mut with_cache = flags.to_vec();
        with_cache.extend(["--cache", "0"]);
        let err = run(cmd_serve_bench, &with_cache).unwrap_err();
        assert!(matches!(err, CliError::Args(_)), "{err}");
    }

    #[test]
    fn serve_bench_rejects_unknown_flags() {
        let err = run(cmd_serve_bench, &["hotel", "--reader", "2"]).unwrap_err();
        assert!(matches!(err, CliError::Args(_)), "{err}");
    }

    #[test]
    fn stats_output() {
        let text = run(cmd_stats, &["hotel"]).unwrap();
        assert!(text.contains("points:            11"));
        assert!(text.contains("polyominoes"));
    }

    #[test]
    fn ascii_output() {
        let text = run(cmd_ascii, &["hotel"]).unwrap();
        assert!(text.contains("legend"));
        assert!(text.lines().next().unwrap().contains('.'));
    }

    #[test]
    fn report_writes_html() {
        let dir = std::env::temp_dir().join("skydiag-test-report");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hotel.html");
        run(cmd_report, &["hotel", "--out", path.to_str().unwrap()]).unwrap();
        let html = std::fs::read_to_string(&path).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("polyominoes"));
    }

    #[test]
    fn trace_produces_tiling_itinerary() {
        let text = run(cmd_trace, &["hotel", "--from", "0,0", "--to", "25,100"]).unwrap();
        assert!(text.contains("result changes"));
        assert!(text.contains("t in [0.0000"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn trace_build_and_serve_bench_write_valid_chrome_traces() {
        // One test drives both telemetry modes back to back: recording
        // sessions are process-global, so concurrent tests would stop each
        // other's sessions. It also watches that neither trace mode lowers
        // a counter (`observers_never_lower_a_counter` covers `mem`).
        skyline_core::counter!("test.skydiag.observed").add(3);
        let watched = watched_counters();
        let dir = std::env::temp_dir().join("skydiag-test-trace");
        std::fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("build-trace.json");
        let metrics_path = dir.join("build-metrics.json");
        let text = run(
            cmd_trace,
            &[
                "build",
                "--n",
                "60",
                "--threads",
                "2",
                "--out",
                trace_path.to_str().unwrap(),
                "--metrics",
                metrics_path.to_str().unwrap(),
            ],
        )
        .unwrap();
        assert!(text.contains("traced quadrant build: n=60"), "{text}");
        let after_build = watched_counters();
        assert_not_lower(watched, after_build, "trace build");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let summary = skyline_bench::json::validate_chrome_trace(&trace).unwrap();
        if cfg!(feature = "telemetry") {
            assert!(summary.complete_events > 0, "no spans in {trace}");
            let metrics = std::fs::read_to_string(&metrics_path).unwrap();
            assert!(metrics.contains("\"quadrant.builds\""), "{metrics}");
            assert!(watched.0 >= 3 && after_build.1 > watched.1);
        }

        let serve_path = dir.join("serve-trace.json");
        let text = run(
            cmd_trace,
            &[
                "serve-bench",
                "--n",
                "40",
                "--readers",
                "1",
                "--rounds",
                "1",
                "--queries",
                "10",
                "--out",
                serve_path.to_str().unwrap(),
            ],
        )
        .unwrap();
        assert!(text.contains("checksum:"), "{text}");
        assert_not_lower(after_build, watched_counters(), "trace serve-bench");
        let trace = std::fs::read_to_string(&serve_path).unwrap();
        let summary = skyline_bench::json::validate_chrome_trace(&trace).unwrap();
        if cfg!(feature = "telemetry") {
            assert!(summary.complete_events > 0, "no spans in {trace}");
        }

        // Injected-stall anomaly flow: the stall span fires the armed
        // latency trigger and the frozen dump lands as a validated trace.
        let anomaly_trace = dir.join("anomaly-trace.json");
        let anomaly_dump = dir.join("anomaly-dump.json");
        let text = run(
            cmd_trace,
            &[
                "serve-bench",
                "--n",
                "40",
                "--readers",
                "1",
                "--rounds",
                "1",
                "--queries",
                "5",
                "--stall",
                "1,120",
                "--out",
                anomaly_trace.to_str().unwrap(),
                "--anomaly",
                anomaly_dump.to_str().unwrap(),
            ],
        );
        if cfg!(feature = "telemetry") {
            let text = text.unwrap();
            assert!(
                text.contains("anomaly:     latency-over-threshold"),
                "{text}"
            );
            let dump = std::fs::read_to_string(&anomaly_dump).unwrap();
            skyline_bench::json::validate_chrome_trace(&dump).unwrap();
            assert!(dump.contains("serve.refresh.injected_stall"), "{dump}");
        } else {
            // Without the feature the recorder cannot freeze anything and
            // the command says so instead of writing an empty dump.
            assert!(text.is_err());
        }

        // `report` sniffs the Chrome-trace shape in the same positional
        // slot the CSV path uses, and dispatches to the trace diagnosis.
        let verdict_path = dir.join("verdict.json");
        let text = run(
            cmd_report,
            &[
                trace_path.to_str().unwrap(),
                "--json",
                verdict_path.to_str().unwrap(),
            ],
        )
        .unwrap();
        assert!(text.contains("verdict:"), "{text}");
        let verdict = std::fs::read_to_string(&verdict_path).unwrap();
        for key in ["\"verdict\"", "\"wall_us\"", "\"chunk_imbalance\""] {
            assert!(verdict.contains(key), "missing {key} in {verdict}");
        }

        // `--mem` joins the allocator counters from the metrics snapshot
        // written next to the trace: the verdict JSON gains the churn
        // fields (real readings only when `mem-telemetry` is compiled in).
        let text = run(
            cmd_report,
            &[
                trace_path.to_str().unwrap(),
                "--mem",
                metrics_path.to_str().unwrap(),
            ],
        )
        .unwrap();
        assert!(text.contains("\"alloc_bytes\""), "{text}");
        assert!(text.contains("\"churn_ratio\""), "{text}");
        if skyline_core::telemetry::mem::enabled() {
            let metrics = std::fs::read_to_string(&metrics_path).unwrap();
            assert!(metrics.contains("\"mem.arena.index_bytes\""), "{metrics}");
            assert!(metrics.contains("\"mem.alloc_bytes\""), "{metrics}");
            assert!(!text.contains("\"arena_bytes\": 0,"), "{text}");
        }
    }

    #[test]
    fn top_prints_per_tick_metric_deltas() {
        let text = run(
            cmd_top,
            &[
                "--ticks",
                "2",
                "--n",
                "50",
                "--readers",
                "1",
                "--queries",
                "20",
                "--updates",
                "1",
            ],
        )
        .unwrap();
        assert!(text.contains("tick 1/2:"), "{text}");
        assert!(text.contains("tick 2/2:"), "{text}");
        assert!(text.contains("queries in"), "{text}");
        // The allocator columns are always printed; with `mem-telemetry`
        // compiled in they carry real readings and the allocation-size
        // histogram earns a sparkline row.
        assert!(text.contains("| live "), "{text}");
        assert!(text.contains("| peak "), "{text}");
        assert!(text.contains("allocs"), "{text}");
        if skyline_core::telemetry::mem::enabled() {
            assert!(text.contains("mem.alloc_size"), "{text}");
        }
        // Each tick issues updates, so the rebuild-latency histogram must
        // move and earn a sparkline row (telemetry builds only).
        #[cfg(feature = "telemetry")]
        assert!(text.contains("serve.rebuild_us"), "{text}");
    }

    #[test]
    fn mem_build_reports_phases_arenas_and_container_sections() {
        let text = run(cmd_mem, &["build", "--n", "60", "--global", "1"]).unwrap();
        assert!(text.contains("mem build: n=60"), "{text}");
        assert!(text.contains("retained arenas:"), "{text}");
        assert!(text.contains("quadrant diagram"), "{text}");
        assert!(text.contains("global diagram"), "{text}");
        assert!(text.contains("container:"), "{text}");
        assert!(text.contains("section"), "{text}");
        if skyline_core::telemetry::mem::enabled() {
            // The build must charge the quadrant- and global-build phases.
            assert!(text.contains("quadrant_build"), "{text}");
            assert!(text.contains("global_build"), "{text}");
        } else {
            assert!(text.contains("counters read zero"), "{text}");
        }
    }

    #[test]
    fn mem_serve_bench_reports_snapshot_footprint() {
        let text = run(
            cmd_mem,
            &[
                "serve-bench",
                "--n",
                "50",
                "--readers",
                "1",
                "--rounds",
                "1",
                "--queries",
                "10",
            ],
        )
        .unwrap();
        assert!(text.contains("mem serve-bench: n=50"), "{text}");
        assert!(text.contains("snapshot:"), "{text}");
        assert!(matches!(run(cmd_mem, &["warp"]), Err(CliError::Usage(_))));
    }

    /// `mem build` and `mem serve-bench` read their interval as a delta;
    /// before that they zeroed the registry, which dropped this counter
    /// to 0 under any concurrent reader.
    #[test]
    fn observers_never_lower_a_counter() {
        skyline_core::counter!("test.skydiag.observed").add(5);
        let mut last = watched_counters();
        let modes: [&[&str]; 2] = [
            &["build", "--n", "40", "--global", "0"],
            &[
                "serve-bench",
                "--n",
                "30",
                "--readers",
                "1",
                "--rounds",
                "1",
                "--queries",
                "5",
            ],
        ];
        for parts in modes {
            run(cmd_mem, parts).unwrap();
            let now = watched_counters();
            assert_not_lower(last, now, &format!("mem {}", parts[0]));
            last = now;
        }
        if cfg!(feature = "telemetry") {
            assert!(last.0 >= 5, "the bump survives: {last:?}");
            assert!(last.1 >= 1, "the builds were counted: {last:?}");
        }
    }

    #[test]
    fn trace_build_rejects_unknown_kind() {
        assert!(matches!(
            run(
                cmd_trace,
                &["build", "--kind", "warp", "--out", "/tmp/unused-trace.json"]
            ),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn render_svg() {
        let dir = std::env::temp_dir().join("skydiag-test-render");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hotel.svg");
        run(cmd_render, &["hotel", "--out", path.to_str().unwrap()]).unwrap();
        let svg = std::fs::read_to_string(&path).unwrap();
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        assert!(matches!(
            run(
                cmd_build,
                &["hotel", "--out", "/tmp/x.skyd", "--engine", "warp"]
            ),
            Err(CliError::Other(_))
        ));
        assert!(matches!(
            run(cmd_query, &["/nonexistent.skyd", "--at", "1,2"]),
            Err(CliError::Io(_))
        ));
        assert!(matches!(
            run(cmd_gen, &["--dist", "weird"]),
            Err(CliError::Other(_))
        ));
        assert!(matches!(parse_point("1;2"), Err(CliError::Other(_))));
        assert!(matches!(parse_point("a,2"), Err(CliError::Other(_))));
    }

    #[test]
    fn human_bytes_formatting() {
        assert_eq!(human_bytes(10), "10 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.0 MiB");
    }
}
