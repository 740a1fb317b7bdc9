//! `emu-10k`: the paper-default sequential emulator on 10k devices.
//!
//! A run repeats rounds of two passes until its seconds are spent:
//!
//! * a *first-decision* pass builds a fresh [`Emulator`] from the seed
//!   and runs slot 0 alone: population build, slot 0's content windows,
//!   its cold Phase-1/Phase-2 solve and playback — what a user waits
//!   before the first decision is in force (`setup_s`);
//! * a *horizon* pass builds another one and runs a [`SLOTS`]-slot
//!   horizon (the timed op). Slot 1 starts from depleted batteries, γ
//!   learned from slot 0's playback and slot 0's selection as warm
//!   start, so those instances are timed too.
//!
//! The fleet is rebuilt every slot, so each slot pays gather, a solve
//! and playback on one thread. Equal seeds give equal passes, so every
//! pass of a kind must produce the same outputs, and slot 0 must come
//! out the same in both kinds.
//!
//! The sequential emulator exposes no per-slot hook, so a horizon pass
//! yields its mean slot time; the run reports medians over passes.

use crate::host;
use crate::report::{Metric, Outcome};
use crate::stats::{median, Digest};
use crate::trace::{field_sum, span_totals};
use crate::{end_to_end, per_layer, Params};
use lpvs_core::baseline::Policy;
use lpvs_core::scheduler::Degradation;
use lpvs_emulator::{EmulationReport, Emulator, EmulatorConfig};
use std::time::Instant;

/// Fleet size.
pub const DEVICES: usize = 10_000;
/// Slots per horizon pass.
pub const SLOTS: usize = 2;
/// Rounds a run makes at least, so the medians have a middle.
const MIN_ROUNDS: usize = 3;

fn config(seed: u64, slots: usize) -> EmulatorConfig {
    EmulatorConfig {
        devices: DEVICES,
        slots,
        seed,
        // Edge capacity at 40% of the fleet.
        server_streams: DEVICES * 2 / 5,
        ..EmulatorConfig::default()
    }
}

/// Digest of everything a pass decides and plays: per-slot selections
/// and energy, final batteries and learned γ.
fn digest(report: &EmulationReport) -> String {
    let mut d = Digest::default();
    for s in &report.slots {
        d.u64(s.slot as u64);
        d.u64(s.selected as u64);
        d.u64(s.watching as u64);
        d.bytes(s.degradation.map_or("none", Degradation::label).as_bytes());
        d.f64(s.display_energy_j);
        d.f64(s.counterfactual_display_j);
        d.f64(s.mean_anxiety);
    }
    d.bits(&report.ever_selected);
    d.bits(&report.gave_up);
    for (&b, &(mean, std)) in report.final_battery.iter().zip(&report.gamma_posteriors) {
        d.f64(b);
        d.f64(mean);
        d.f64(std);
    }
    d.hex()
}

struct Pass {
    run_s: f64,
    cpu_ms: f64,
    report: EmulationReport,
}

/// Times a freshly built emulator over `slots` slots. The build is
/// inside `run_s` only when `with_build` is set.
fn timed_pass(seed: u64, slots: usize, with_build: bool) -> Pass {
    let pid = std::process::id();
    let built = Instant::now();
    let emulator = Emulator::new(config(seed, slots), Policy::Lpvs);
    let cpu0 = host::cpu_ms(pid).unwrap_or(0.0);
    let started = if with_build { built } else { Instant::now() };
    let report = emulator.run();
    let run_s = started.elapsed().as_secs_f64();
    let cpu_ms = host::cpu_ms(pid).unwrap_or(0.0) - cpu0;
    Pass {
        run_s,
        cpu_ms,
        report,
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let recorder = p.trace.then(lpvs_obs::init);
    lpvs_obs::set_enabled(false);
    let mut firsts: Vec<Pass> = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut events = Vec::new();
    let started = Instant::now();
    let mut last_round_s = 0.0;
    // A round starts only if it is expected to end within the seconds.
    while firsts.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() + last_round_s <= p.seconds {
        let round_started = Instant::now();
        firsts.push(timed_pass(p.seed, 1, true));
        // A traced run alternates untraced and traced horizon passes, so
        // the tracing overhead is measured against the same host state.
        let trace_this = recorder.is_some() && untraced.len() > traced.len();
        if let Some(r) = recorder.as_ref().filter(|_| trace_this) {
            r.reset();
            lpvs_obs::set_enabled(true);
        }
        let pass = timed_pass(p.seed, SLOTS, false);
        lpvs_obs::set_enabled(false);
        if trace_this {
            events.extend(
                recorder
                    .as_ref()
                    .expect("traced pass has a recorder")
                    .drain_events(),
            );
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
        last_round_s = round_started.elapsed().as_secs_f64();
    }

    // --- correctness: passes of a kind decide and play identically -----
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    let first = &all[0].report;
    let first_digest = digest(first);
    for (i, pass) in all.iter().enumerate() {
        let d = digest(&pass.report);
        out.check(d == first_digest, || {
            format!("horizon pass {i} digest {d} differs from {first_digest}")
        });
        out.check(pass.report.slots.len() == SLOTS, || {
            format!("horizon pass {i} ran {} slots", pass.report.slots.len())
        });
    }
    let slot0_digest = digest(&firsts[0].report);
    for (i, pass) in firsts.iter().enumerate() {
        let d = digest(&pass.report);
        out.check(d == slot0_digest, || {
            format!("first-decision pass {i} digest {d} differs from {slot0_digest}")
        });
        // Slot 0 does not depend on how long the horizon is.
        out.check(pass.report.slots.first() == first.slots.first(), || {
            format!("first-decision pass {i} decided slot 0 unlike the horizon passes")
        });
    }
    let saving = first.display_saving_ratio();
    out.check(saving > 0.0 && saving < 1.0, || {
        format!("display saving {saving} outside (0, 1)")
    });
    out.notes.push(format!(
        "digest: emu-10k selections and playback of a {SLOTS}-slot pass = {first_digest}"
    ));

    let slots: Vec<_> = all
        .iter()
        .flat_map(|pass| pass.report.slots.iter())
        .collect();
    out.attempted = slots.len() as u64;
    out.failed = slots
        .iter()
        .filter(|s| matches!(s.degradation, None | Some(Degradation::Passthrough)))
        .count() as u64;
    let exact = slots
        .iter()
        .filter(|s| s.degradation == Some(Degradation::Exact))
        .count();

    let slot_ms = |passes: &[Pass]| -> Vec<f64> {
        passes
            .iter()
            .map(|pass| pass.run_s * 1e3 / SLOTS as f64)
            .collect()
    };
    let untraced_ms = slot_ms(&untraced);
    let setups: Vec<f64> = firsts.iter().map(|pass| pass.run_s).collect();
    let shown = |values: &[f64], scale: f64| -> String {
        let v: Vec<String> = values.iter().map(|x| format!("{:.1}", x * scale)).collect();
        v.join(", ")
    };
    out.notes.push(format!(
        "passes: untraced mean slot ms per horizon pass = [{}]; first-decision ms = [{}]",
        shown(&untraced_ms, 1.0),
        shown(&setups, 1e3)
    ));
    out.notes.push(format!(
        "emu-10k: slots_per_s = {:.4} (median pass), energy_saving = {saving:.6}",
        1e3 / median(&untraced_ms)
    ));
    if !p.trace {
        let cpu: f64 = untraced.iter().map(|pass| pass.cpu_ms).sum();
        out.metrics = end_to_end(vec![
            Metric::new("setup_s", "s", median(&setups), setups.len()),
            Metric::new("op_ms", "ms", median(&untraced_ms), untraced_ms.len()),
            Metric::new(
                "cpu_ms_per_op",
                "ms",
                cpu / (SLOTS * untraced.len()) as f64,
                SLOTS * untraced.len(),
            ),
            Metric::new(
                "ok_frac",
                "ratio",
                1.0 - out.failed as f64 / out.attempted as f64,
                slots.len(),
            ),
            Metric::new(
                "exact_frac",
                "ratio",
                exact as f64 / slots.len() as f64,
                slots.len(),
            ),
            Metric::new(
                "peak_rss_mb",
                "MB",
                host::peak_rss_mb(std::process::id()).unwrap_or(0.0),
                1,
            ),
        ])?;
        return Ok(out);
    }

    // --- traced: per-layer figures from the program's spans ------------
    let n = (SLOTS * traced.len()) as f64;
    let spans = span_totals(&events);
    let self_ms = |name: &str| spans.get(name).map_or(0.0, |t| t.self_ms) / n;
    let traced_ms = slot_ms(&traced);
    let tried = field_sum(&events, "sched.phase2", "swaps_tried");
    let accepted = field_sum(&events, "sched.phase2", "swaps_accepted");
    let samples = traced.len() * SLOTS;
    let measured = vec![
        Metric::new("emulator.gather_ms", "ms", self_ms("emu.gather"), samples),
        Metric::new("emulator.play_ms", "ms", self_ms("emu.play"), samples),
        Metric::new("emulator.energy_saving", "ratio", saving, 1),
        Metric::new("core.sanitize_ms", "ms", self_ms("sched.sanitize"), samples),
        Metric::new("core.compact_ms", "ms", self_ms("sched.compact"), samples),
        Metric::new("core.phase1_ms", "ms", self_ms("sched.phase1"), samples),
        Metric::new("core.phase2_ms", "ms", self_ms("sched.phase2"), samples),
        Metric::new(
            "solver.bnb_nodes",
            "count",
            field_sum(&events, "sched.phase1", "nodes") / n,
            samples,
        ),
        Metric::new(
            "solver.pivots",
            "count",
            field_sum(&events, "sched.phase1", "pivots") / n,
            samples,
        ),
        Metric::new("core.swaps_tried", "count", tried / n, samples),
        Metric::new("core.swaps_accepted", "count", accepted / n, samples),
        Metric::new(
            "core.swap_accept_ratio",
            "ratio",
            if tried > 0.0 { accepted / tried } else { 0.0 },
            samples,
        ),
        Metric::new(
            "obs.overhead_frac",
            "ratio",
            median(&traced_ms) / median(&untraced_ms) - 1.0,
            traced.len() + untraced.len(),
        ),
    ];
    let why_fleet = "emu-10k schedules one edge in-line: no shards, runtime or checkpoints";
    let why_http = "emu-10k makes no HTTP requests";
    out.metrics = per_layer(
        measured,
        &[
            (
                "delta.",
                "emu-10k rebuilds its fleet every slot, so no delta is shipped",
            ),
            ("edge.", why_fleet),
            ("runtime.", why_fleet),
            ("ckpt.", why_fleet),
            ("http.", why_http),
            ("serve.", why_http),
            ("gen.", why_http),
        ],
    )?;
    Ok(out)
}
