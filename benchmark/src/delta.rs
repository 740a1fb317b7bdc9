//! `delta-100k`: the provider-scale steady state.
//!
//! The synthetic driver's 100k-device fleet runs through the pipelined
//! `SlotRuntime` on 2 shards, 1% of rows mutating per slot, deltas on,
//! and checkpoints every 4 slots (the cadence `lpvs-serve` deploys
//! with). A timing wrapper around the driver's `SlotSource`/`SlotSink`
//! halves sees every hop. Set-up runs from the driver's construction to
//! slot 0's decision, so the cold all-dirty solve is set-up; the timed
//! phase is the incremental steady state after it.

use crate::host;
use crate::report::{Metric, Outcome};
use crate::stats::{mean, median, percentile, Digest};
use crate::trace::span_totals;
use crate::{end_to_end, per_layer, Params};
use lpvs_core::fleet::DeviceFleet;
use lpvs_core::scheduler::Degradation;
use lpvs_edge::fleet::{FleetConfig, Partitioner};
use lpvs_runtime::{
    BankOps, CheckpointConfig, GatheredSlot, RuntimeConfig, SlotFeedback, SlotRuntime, SlotSink,
    SlotSource, SolvedSlot, SyntheticConfig, SyntheticDriver,
};
use std::time::{Duration, Instant};

/// Fleet size.
pub const DEVICES: usize = 100_000;
/// Shards (one per core of the 2-core reference host).
pub const SHARDS: usize = 2;
/// Slots between checkpoint rounds.
pub const CHECKPOINT_INTERVAL: usize = 4;
/// Leading slots whose selections the output digest covers.
pub const DIGEST_SLOTS: usize = 24;
/// Horizon bound; the wrapper ends the run when the seconds are spent.
const MAX_SLOTS: usize = 1_000_000;
/// Timed slots a traced run decides at least, even past its seconds, so
/// that `runtime.slot_ms_p90` has more than ten samples beyond it.
pub const MIN_TRACED_SLOTS: usize = 112;

/// Everything the wrapper saw of one slot.
#[derive(Debug, Clone, Default)]
struct SlotLog {
    begin_ms: f64,
    gather_ms: f64,
    apply_ms: f64,
    gathered_at: Option<Instant>,
    solved_at: Option<Instant>,
    frontier: usize,
    tier: Option<Degradation>,
    shard_ms: Vec<f64>,
    migrations: usize,
    nodes: usize,
    pivots: usize,
    swaps_tried: usize,
    swaps_accepted: usize,
}

impl SlotLog {
    fn decide_ms(&self) -> Option<f64> {
        Some(
            self.solved_at?
                .saturating_duration_since(self.gathered_at?)
                .as_secs_f64()
                * 1e3,
        )
    }
}

/// The timing `SlotSource`/`SlotSink` around the synthetic driver.
struct Timed {
    inner: SyntheticDriver,
    seconds: f64,
    started: Instant,
    /// When slot 0's decision landed: the end of set-up.
    setup_end: Option<Instant>,
    cpu_at_setup_end: f64,
    logs: Vec<SlotLog>,
    /// Per-device compute and storage cost; the driver never mutates
    /// them, so slot 0's fleet holds them for the whole run.
    costs: Vec<(f64, f64)>,
    /// Per-shard compute and storage capacity (an even split).
    shard_capacity: (f64, f64),
    violations: Vec<String>,
    digest: Digest,
    /// Traced run: recording turns on at the first slot begun after half
    /// the timed phase, so one process measures both halves.
    trace: bool,
    traced_from: Option<usize>,
}

impl Timed {
    fn log(&mut self, slot: usize) -> &mut SlotLog {
        if self.logs.len() <= slot {
            self.logs.resize(slot + 1, SlotLog::default());
        }
        &mut self.logs[slot]
    }

    /// Every shard's selected load must fit its share of the edge.
    fn check_capacity(&mut self, solved: &SolvedSlot) {
        let schedule = &solved.schedule;
        let mut owner = vec![usize::MAX; schedule.selected.len()];
        for shard in &schedule.shards {
            for &i in &shard.devices {
                owner[i] = shard.shard;
            }
        }
        for shard in &schedule.shards {
            for &i in &shard.migrated_in {
                owner[i] = shard.shard;
            }
        }
        let mut load = vec![(0.0, 0.0); schedule.shards.len()];
        for (i, _) in schedule.selected.iter().enumerate().filter(|(_, &on)| on) {
            match load.get_mut(owner[i]) {
                Some(l) => {
                    l.0 += self.costs[i].0;
                    l.1 += self.costs[i].1;
                }
                None => self.violations.push(format!(
                    "slot {}: device {i} selected outside every shard",
                    solved.slot
                )),
            }
        }
        let (compute, storage) = self.shard_capacity;
        for (s, &(c, st)) in load.iter().enumerate() {
            if c > compute * (1.0 + 1e-9) || st > storage * (1.0 + 1e-9) {
                self.violations.push(format!(
                    "slot {}: shard {s} load ({c}, {st}) exceeds capacity ({compute}, {storage})",
                    solved.slot
                ));
            }
        }
    }
}

impl SlotSource for Timed {
    fn begin_slot(&mut self, slot: usize) -> Option<BankOps> {
        if let Some(end) = self.setup_end {
            let elapsed = end.elapsed().as_secs_f64();
            // Slots 1..slot have begun; they are decided by the drain.
            if elapsed >= self.seconds && (!self.trace || slot > MIN_TRACED_SLOTS) {
                return None;
            }
            if self.trace && self.traced_from.is_none() && elapsed >= self.seconds / 2.0 {
                self.traced_from = Some(slot);
                lpvs_obs::set_enabled(true);
            }
        }
        let t = Instant::now();
        let ops = self.inner.begin_slot(slot);
        self.log(slot).begin_ms = t.elapsed().as_secs_f64() * 1e3;
        ops
    }

    fn gather(
        &mut self,
        slot: usize,
        posteriors: &[(f64, f64)],
        recycled: Option<DeviceFleet>,
    ) -> Option<GatheredSlot> {
        let t = Instant::now();
        let gathered = self.inner.gather(slot, posteriors, recycled);
        let now = Instant::now();
        let log = self.log(slot);
        log.gather_ms = now.duration_since(t).as_secs_f64() * 1e3;
        log.gathered_at = Some(now);
        if let Some(g) = gathered.as_ref() {
            log.frontier = g.delta.as_ref().map_or(g.fleet.len(), |d| d.dirty.len());
            if self.costs.is_empty() {
                let f = &g.fleet;
                self.costs = (0..f.len())
                    .map(|i| (f.compute_cost(i), f.storage_cost_gb(i)))
                    .collect();
                self.shard_capacity = (
                    g.compute_capacity / SHARDS as f64,
                    g.storage_capacity_gb / SHARDS as f64,
                );
            }
        }
        gathered
    }
}

impl SlotSink for Timed {
    fn solved(&mut self, solved: &SolvedSlot) {
        let now = Instant::now();
        if solved.slot == 0 {
            self.setup_end = Some(now);
            self.cpu_at_setup_end = host::cpu_ms(std::process::id()).unwrap_or(0.0);
        }
        self.inner.solved(solved);
        self.check_capacity(solved);
        if solved.slot < DIGEST_SLOTS {
            self.digest.u64(solved.slot as u64);
            self.digest.bytes(solved.tier.label().as_bytes());
            self.digest.bits(&solved.schedule.selected);
        }
        let s = &solved.schedule;
        let log = self.log(solved.slot);
        log.solved_at = Some(now);
        log.tier = Some(solved.tier);
        log.shard_ms = s
            .shards
            .iter()
            .map(|r| r.stats.runtime.as_secs_f64() * 1e3)
            .collect();
        log.migrations = s.migrations;
        log.nodes = s.shards.iter().map(|r| r.stats.phase1_nodes).sum();
        log.pivots = s.shards.iter().map(|r| r.stats.phase1_pivots).sum();
        log.swaps_tried = s.shards.iter().map(|r| r.stats.phase2.swaps_tried).sum();
        log.swaps_accepted = s.shards.iter().map(|r| r.stats.phase2.swaps_accepted).sum();
    }

    fn apply(&mut self, slot: usize) -> SlotFeedback {
        let t = Instant::now();
        let feedback = self.inner.apply(slot);
        self.log(slot).apply_ms = t.elapsed().as_secs_f64() * 1e3;
        feedback
    }
}

fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs the workload.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let recorder = p.trace.then(lpvs_obs::init);
    lpvs_obs::set_enabled(false);
    let ckpt_dir = p.scratch.join("checkpoints");
    std::fs::create_dir_all(&ckpt_dir)
        .map_err(|e| format!("create {}: {e}", ckpt_dir.display()))?;

    let started = Instant::now();
    let mut config = SyntheticConfig::steady(DEVICES, MAX_SLOTS, p.seed);
    config.delta_enabled = true;
    let mut driver = Timed {
        inner: SyntheticDriver::new(config),
        seconds: p.seconds,
        started,
        setup_end: None,
        cpu_at_setup_end: 0.0,
        logs: Vec::new(),
        costs: Vec::new(),
        shard_capacity: (0.0, 0.0),
        violations: Vec::new(),
        digest: Digest::default(),
        trace: p.trace,
        traced_from: None,
    };
    let mut checkpoints = CheckpointConfig::new(&ckpt_dir);
    checkpoints.interval = CHECKPOINT_INTERVAL;
    let runtime = SlotRuntime::new(RuntimeConfig {
        fleet: FleetConfig {
            num_shards: SHARDS,
            partitioner: Partitioner::Locality,
            ..FleetConfig::default()
        },
        checkpoints: Some(checkpoints),
        ..RuntimeConfig::default()
    });
    let estimators = driver.inner.estimators();
    let report = runtime.run(&mut driver, estimators);
    lpvs_obs::set_enabled(false);
    let cpu_end = host::cpu_ms(std::process::id()).unwrap_or(0.0);
    let ckpt_bytes = dir_bytes(&ckpt_dir);

    let setup_end = driver.setup_end.ok_or("slot 0 was never decided")?;
    let setup_s = setup_end.duration_since(driver.started).as_secs_f64();
    let mut out = Outcome {
        violations: std::mem::take(&mut driver.violations),
        ..Outcome::default()
    };
    out.check(report.summary.workers_lost == 0, || {
        format!("{} shard workers lost", report.summary.workers_lost)
    });
    out.check(report.summary.recovery.fell_back.is_none(), || {
        "runtime fell back to the sequential path".into()
    });

    // Timed slots: decided after set-up ended (slot 0 is set-up).
    let timed: Vec<(usize, &SlotLog)> = driver.logs.iter().enumerate().skip(1).collect();
    let decided: Vec<(usize, &SlotLog)> = timed
        .iter()
        .copied()
        .filter(|(_, l)| l.solved_at.is_some())
        .collect();
    out.attempted = timed
        .iter()
        .filter(|(_, l)| l.gathered_at.is_some())
        .count() as u64;
    out.failed = out.attempted
        - decided
            .iter()
            .filter(|(_, l)| l.tier.is_some_and(|t| t != Degradation::Passthrough))
            .count() as u64;
    out.check(!decided.is_empty(), || {
        "no slot was decided after set-up".into()
    });
    if decided.is_empty() {
        return Ok(out);
    }
    let last = decided
        .iter()
        .filter_map(|(_, l)| l.solved_at)
        .max()
        .expect("decided slots");
    let timed_s = last.duration_since(setup_end).as_secs_f64();
    let slot_ms: Vec<f64> = decided.iter().filter_map(|(_, l)| l.decide_ms()).collect();
    let regime_ms = |checkpoint: bool| -> Vec<f64> {
        decided
            .iter()
            .filter(|(slot, _)| (slot % CHECKPOINT_INTERVAL == 0) == checkpoint)
            .filter_map(|(_, l)| l.decide_ms())
            .collect()
    };
    let (ckpt_ms, plain_ms) = (regime_ms(true), regime_ms(false));
    let mid = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    out.notes.push(format!(
        "regime: {} plain slots (median {:.1} ms) hold slot_ms_p50; {} checkpoint slots \
         (median {:.1} ms, every {CHECKPOINT_INTERVAL}th) hold slot_ms_p90",
        plain_ms.len(),
        mid(&plain_ms),
        ckpt_ms.len(),
        mid(&ckpt_ms)
    ));
    let digested = driver.logs.len().min(DIGEST_SLOTS);
    out.notes.push(format!(
        "digest: delta-100k selections of slots 0..{digested} = {}",
        driver.digest.hex()
    ));
    let exact = decided
        .iter()
        .filter(|(_, l)| l.tier == Some(Degradation::Exact))
        .count();
    let n = decided.len();

    let slots_per_s = n as f64 / timed_s;
    let p90 = percentile(&slot_ms, 0.90);
    out.notes.push(format!(
        "delta-100k: slots_per_s = {slots_per_s:.4}, slot_ms_p90 = {} over {} slots",
        p90.as_ref()
            .map_or_else(|e| format!("unavailable ({e})"), |v| format!("{v:.3} ms")),
        slot_ms.len()
    ));
    if !p.trace {
        out.metrics = end_to_end(vec![
            Metric::new("setup_s", "s", setup_s, 1),
            Metric::new("op_ms", "ms", percentile(&slot_ms, 0.50)?, slot_ms.len()),
            Metric::new(
                "cpu_ms_per_op",
                "ms",
                (cpu_end - driver.cpu_at_setup_end) / n as f64,
                n,
            ),
            Metric::new(
                "ok_frac",
                "ratio",
                1.0 - out.failed as f64 / out.attempted as f64,
                out.attempted as usize,
            ),
            Metric::new("exact_frac", "ratio", exact as f64 / n as f64, n),
            Metric::new(
                "peak_rss_mb",
                "MB",
                host::peak_rss_mb(std::process::id()).unwrap_or(0.0),
                1,
            ),
        ])?;
        return Ok(out);
    }

    // --- traced: per-layer figures from the traced half ----------------
    let from = driver
        .traced_from
        .ok_or("the timed phase ended before tracing turned on")?;
    let (untraced, decided): (Vec<_>, Vec<_>) =
        decided.iter().copied().partition(|(slot, _)| *slot < from);
    let n = decided.len();
    let untraced_ms: Vec<f64> = untraced.iter().filter_map(|(_, l)| l.decide_ms()).collect();
    let traced_ms: Vec<f64> = decided.iter().filter_map(|(_, l)| l.decide_ms()).collect();
    if untraced_ms.is_empty() || traced_ms.is_empty() {
        return Err("a traced run needs decided slots on both sides of the switch".into());
    }
    let events = recorder
        .as_ref()
        .expect("traced run has a recorder")
        .events();
    let spans = span_totals(&events);
    let solve_ms: Vec<(usize, f64)> = report
        .slot_solve_runtimes
        .iter()
        .filter(|(slot, _)| {
            *slot >= from
                && driver
                    .logs
                    .get(*slot)
                    .is_some_and(|l| l.solved_at.is_some())
        })
        .map(|&(slot, d): &(usize, Duration)| (slot, d.as_secs_f64() * 1e3))
        .collect();
    let decide: std::collections::HashMap<usize, f64> = decided
        .iter()
        .filter_map(|&(slot, l)| Some((slot, l.decide_ms()?)))
        .collect();
    let snapshot = recorder
        .as_ref()
        .expect("traced run has a recorder")
        .metrics()
        .snapshot();
    let path_count = |path: &str| {
        snapshot
            .counter_labeled("delta_solve_total", &[("path", path)])
            .unwrap_or(0) as f64
    };
    let solves = path_count("cold") + path_count("incremental") + path_count("reuse");
    let tried = decided
        .iter()
        .map(|(_, l)| l.swaps_tried as f64)
        .sum::<f64>();
    let accepted = decided
        .iter()
        .map(|(_, l)| l.swaps_accepted as f64)
        .sum::<f64>();
    let per_slot =
        |f: &dyn Fn(&SlotLog) -> f64| mean(&decided.iter().map(|(_, l)| f(l)).collect::<Vec<_>>());
    let rebalance_calls = spans.get("fleet.rebalance").map_or(0, |t| t.count).max(1) as f64;
    // Whole-run figures: the tail needs every timed slot for its sample
    // count, so these include the untraced half.
    let measured = vec![
        Metric::new("runtime.slots_per_s", "1/s", slots_per_s, slot_ms.len()),
        Metric::new("runtime.slot_ms_p90", "ms", p90?, slot_ms.len()),
        Metric::new("ckpt.rounds", "count", ckpt_ms.len() as f64, ckpt_ms.len()),
        Metric::new("ckpt.bytes", "bytes", ckpt_bytes as f64, 1),
        Metric::new("ckpt.slot_ms", "ms", mid(&ckpt_ms), ckpt_ms.len()),
        // Traced half only.
        Metric::new(
            "solver.bnb_nodes",
            "count",
            per_slot(&|l| l.nodes as f64),
            n,
        ),
        Metric::new("solver.pivots", "count", per_slot(&|l| l.pivots as f64), n),
        Metric::new("core.swaps_tried", "count", tried / n as f64, n),
        Metric::new("core.swaps_accepted", "count", accepted / n as f64, n),
        Metric::new(
            "core.swap_accept_ratio",
            "ratio",
            if tried > 0.0 { accepted / tried } else { 0.0 },
            n,
        ),
        Metric::new(
            "delta.frontier_rows",
            "count",
            per_slot(&|l| l.frontier as f64),
            n,
        ),
        Metric::new(
            "delta.incremental_frac",
            "ratio",
            path_count("incremental") / solves.max(1.0),
            solves as usize,
        ),
        Metric::new(
            "edge.shard_ms_max",
            "ms",
            per_slot(&|l| l.shard_ms.iter().copied().fold(0.0, f64::max)),
            n,
        ),
        Metric::new(
            "edge.shard_skew",
            "ratio",
            per_slot(&|l| {
                let max = l.shard_ms.iter().copied().fold(0.0, f64::max);
                let min = l.shard_ms.iter().copied().fold(f64::INFINITY, f64::min);
                if min > 0.0 {
                    max / min
                } else {
                    1.0
                }
            }),
            n,
        ),
        Metric::new(
            "edge.rebalance_ms",
            "ms",
            spans.get("fleet.rebalance").map_or(0.0, |t| t.total_ms) / rebalance_calls,
            rebalance_calls as usize,
        ),
        Metric::new(
            "edge.migrations",
            "count",
            per_slot(&|l| l.migrations as f64),
            n,
        ),
        Metric::new("runtime.begin_ms", "ms", per_slot(&|l| l.begin_ms), n),
        Metric::new("runtime.gather_ms", "ms", per_slot(&|l| l.gather_ms), n),
        Metric::new("runtime.apply_ms", "ms", per_slot(&|l| l.apply_ms), n),
        Metric::new(
            "runtime.solve_ms",
            "ms",
            mean(&solve_ms.iter().map(|&(_, ms)| ms).collect::<Vec<_>>()),
            solve_ms.len(),
        ),
        Metric::new(
            "runtime.dispatch_wait_ms",
            "ms",
            mean(
                &solve_ms
                    .iter()
                    .filter_map(|(slot, ms)| Some(decide.get(slot)? - ms))
                    .collect::<Vec<_>>(),
            ),
            solve_ms.len(),
        ),
        Metric::new(
            "obs.overhead_frac",
            "ratio",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
            traced_ms.len() + untraced_ms.len(),
        ),
    ];
    let why_phases =
        "delta-100k's timed slots solve inside delta.incremental, which has no per-phase spans";
    let why_http = "delta-100k makes no HTTP requests";
    out.metrics = per_layer(
        measured,
        &[
            ("emulator.", "delta-100k does not run the emulator"),
            ("core.", why_phases),
            ("http.", why_http),
            ("serve.", why_http),
            ("gen.", why_http),
        ],
    )?;
    Ok(out)
}
