//! The repository benchmark.
//!
//! Three workloads, each putting a different module on the critical
//! path and each driving it through its public surface only:
//!
//! * [`emu`] — `emu-10k`: `Emulator::new` + `Emulator::run`,
//!   sequential, one edge;
//! * [`delta`] — `delta-100k`: `SlotRuntime::run` over the synthetic
//!   driver, wrapped in a timing `SlotSource`/`SlotSink`;
//! * [`serve`] — `serve-ingest`: the real `lpvs-serve` binary as a
//!   child process, loaded over HTTP.
//!
//! A run with `--trace 0` prints the end-to-end metrics; a run with
//! `--trace 1` turns on the program's own span recording (or scrapes
//! its `/metrics`) and prints the per-layer metrics instead.

pub mod delta;
pub mod emu;
pub mod host;
pub mod http;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Metric;
use std::path::PathBuf;

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed phase lasts.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory for checkpoints and journals; removed afterwards.
    pub scratch: PathBuf,
    /// The `lpvs-serve` executable (serve-ingest only).
    pub serve_bin: Option<PathBuf>,
}

/// Every end-to-end metric, with its unit. Every workload reports each
/// one, so each name means "this quantity on this workload":
///
/// * `setup_s` — workload start to the first timed op: the emulator
///   build plus slot 0 alone — its content windows, cold solve and
///   playback — until the first decision is in force (emu-10k); fleet
///   build + runtime spawn + slot 0's cold solve (delta-100k); server
///   boot + paced admission + backlog drained (serve-ingest);
/// * `op_ms` — the time of one op as its user waits for it: a slot on
///   emu-10k (median over two-slot horizon passes of the mean slot) and
///   delta-100k (median from `SlotSource::gather` returning to
///   `SlotSink::solved`). On serve-ingest it is the median telemetry
///   request from its due time to its last response byte: connect,
///   accept → parse → queue → respond, and the wake-ups between them.
///   The p99 lies among the requests the server's slot work (op drain,
///   journal write, solve, checkpoint) delays; it doubled in runs with
///   much host CPU steal, so it is the per-layer `serve.req_ms_p99`;
/// * `cpu_ms_per_op` — CPU time of the process under test per completed
///   slot or accepted request;
/// * `ok_frac` — completed ops over attempted ones (a refused request
///   counts as failed);
/// * `exact_frac` — share of slots whose worst shard rung is `exact`,
///   so a speedup gained by degrading shows;
/// * `peak_rss_mb` — peak RSS of the process under test.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ok_frac", "ratio"),
    ("exact_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric: name, unit, which direction is better, and the
/// end-to-end metric (on which workload) it should move. On every
/// workload not named, the prediction is no change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

const EMU: &str = "emu-10k setup_s and op_ms";
const PHASE1: &str = "emu-10k setup_s and op_ms; delta-100k setup_s and op_ms";
const PHASE2: &str = "emu-10k setup_s and op_ms; delta-100k op_ms";
const FLEET: &str = "delta-100k op_ms and runtime.slot_ms_p90";
const RUNTIME: &str = "delta-100k op_ms and cpu_ms_per_op";
const CKPT: &str = "delta-100k runtime.slot_ms_p90";
const HTTP: &str = "serve-ingest op_ms and cpu_ms_per_op";
const ENGINE: &str = "serve-ingest ok_frac, exact_frac and serve.req_ms_p99";

/// Every per-layer metric, in print order. A traced run reports each
/// one, measured or marked absent with a reason.
pub const PER_LAYER: &[LayerMetric] = &[
    layer("emulator.gather_ms", "ms", "lower", EMU),
    layer("emulator.play_ms", "ms", "lower", EMU),
    layer(
        "emulator.energy_saving",
        "ratio",
        "higher",
        "none: the paper's quality number, which a speedup must keep",
    ),
    layer("core.sanitize_ms", "ms", "lower", PHASE1),
    layer("core.compact_ms", "ms", "lower", PHASE1),
    layer("core.phase1_ms", "ms", "lower", PHASE1),
    layer("core.phase2_ms", "ms", "lower", PHASE2),
    layer("solver.bnb_nodes", "count", "lower", PHASE1),
    layer("solver.pivots", "count", "lower", PHASE1),
    layer("core.swaps_tried", "count", "lower", PHASE2),
    layer("core.swaps_accepted", "count", "higher", PHASE2),
    layer("core.swap_accept_ratio", "ratio", "higher", PHASE2),
    layer("delta.frontier_rows", "count", "lower", "delta-100k op_ms"),
    layer(
        "delta.incremental_frac",
        "ratio",
        "higher",
        "delta-100k op_ms",
    ),
    layer("edge.shard_ms_max", "ms", "lower", FLEET),
    layer("edge.shard_skew", "ratio", "lower", FLEET),
    layer("edge.rebalance_ms", "ms", "lower", FLEET),
    layer("edge.migrations", "count", "lower", FLEET),
    layer("runtime.begin_ms", "ms", "lower", RUNTIME),
    layer("runtime.gather_ms", "ms", "lower", RUNTIME),
    layer("runtime.apply_ms", "ms", "lower", RUNTIME),
    layer("runtime.solve_ms", "ms", "lower", RUNTIME),
    layer("runtime.dispatch_wait_ms", "ms", "lower", RUNTIME),
    layer("runtime.slots_per_s", "1/s", "higher", RUNTIME),
    layer(
        "runtime.slot_ms_p90",
        "ms",
        "lower",
        "none: the checkpoint-slot tail of delta-100k itself",
    ),
    layer("ckpt.rounds", "count", "higher", CKPT),
    layer("ckpt.bytes", "bytes", "lower", CKPT),
    layer("ckpt.slot_ms", "ms", "lower", CKPT),
    layer("http.connect_ms", "ms", "lower", HTTP),
    layer("http.ttfb_ms", "ms", "lower", HTTP),
    layer("http.conns_per_req", "ratio", "lower", HTTP),
    layer("serve.queue_depth_max", "count", "lower", ENGINE),
    layer("serve.shed_429", "count", "lower", ENGINE),
    layer("serve.slots_decided", "count", "higher", ENGINE),
    layer(
        "serve.req_ms_p99",
        "ms",
        "lower",
        "none: the slot-work tail of serve-ingest itself",
    ),
    layer(
        "gen.late_ms_max",
        "ms",
        "lower",
        "none: it shows the load generator kept its schedule",
    ),
    layer(
        "obs.overhead_frac",
        "ratio",
        "lower",
        "none: tracing must stay cheap",
    ),
];

/// Checks that `metrics` is exactly [`END_TO_END`], in order.
///
/// # Errors
///
/// A missing, extra or misnamed metric — a benchmark bug.
pub fn end_to_end(metrics: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let names: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    if names != END_TO_END {
        return Err(format!(
            "end-to-end metrics {names:?} differ from {END_TO_END:?}"
        ));
    }
    Ok(metrics)
}

/// Puts `measured` into [`PER_LAYER`] order and fills every metric the
/// workload does not exercise from `absent`, a list of
/// `(name prefix, reason)`.
///
/// # Errors
///
/// A metric that is neither measured nor covered by a reason, or a
/// measured one that is not in [`PER_LAYER`] — both benchmark bugs.
pub fn per_layer(
    measured: Vec<Metric>,
    absent: &[(&str, &'static str)],
) -> Result<Vec<Metric>, String> {
    if let Some(m) = measured
        .iter()
        .find(|m| !PER_LAYER.iter().any(|l| l.name == m.name))
    {
        return Err(format!("per-layer metric {} is not listed", m.name));
    }
    PER_LAYER
        .iter()
        .map(
            |&LayerMetric { name, unit, .. }| match measured.iter().find(|m| m.name == name) {
                Some(m) if m.unit == unit => Ok(m.clone()),
                Some(m) => Err(format!(
                    "per-layer metric {name} measured in {} not {unit}",
                    m.unit
                )),
                None => absent
                    .iter()
                    .find(|(prefix, _)| name.starts_with(prefix))
                    .map(|&(_, why)| Metric::absent(name, unit, why))
                    .ok_or_else(|| {
                        format!("per-layer metric {name} is neither measured nor explained")
                    }),
            },
        )
        .collect()
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["emu-10k", "delta-100k", "serve-ingest"];

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload, or a run that could not be measured (as
/// opposed to one whose outputs failed a check, which is reported in
/// the outcome).
pub fn run(name: &str, p: &Params) -> Result<report::Outcome, String> {
    match name {
        "emu-10k" => emu::run(p),
        "delta-100k" => delta::run(p),
        "serve-ingest" => serve::run(p),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
