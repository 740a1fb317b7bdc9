//! `serve-ingest`: the request path of the real `lpvs-serve` binary.
//!
//! The server runs as a child process with 2 shards, an interval slot
//! tick, and its op journal and checkpoint store on. Set-up boots it,
//! admits a few thousand sessions paced across ticks (a queue-full 429
//! is retried once a tick has passed), and waits until a decided slot
//! shows the admission backlog drained; it is repeated so `setup_s` is
//! a median. Then telemetry arrives open-loop at a fixed rate well
//! below the op-drain ceiling, over two connections, for the run's
//! seconds. `op_ms` is the median request, from its due time to its
//! last response byte: the accept → parse → queue → respond path and
//! the connection set-up it pays.

use crate::host;
use crate::http::{open_loop, Client, Sent};
use crate::report::{Metric, Outcome};
use crate::stats::{mean, median, percentile, Digest};
use crate::{end_to_end, per_layer, Params};
use lpvs_core::scheduler::Degradation;
use lpvs_obs::dashboard::parse_prometheus;
use lpvs_obs::json::Json;
use lpvs_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Device-id ceiling the server is sized for.
pub const DEVICES: usize = 4096;
/// Session arrivals sent in set-up: more than the edge admits (72% of
/// the ceiling), so admission control refuses some.
pub const ARRIVALS: usize = 3200;
/// Depth of the server's op queue (`ServeConfig::ops_queue`).
const OPS_QUEUE: usize = 256;
/// Arrivals sent per tick, below the 256-op queue.
const ARRIVAL_BATCH: usize = 192;
/// Slot tick (ms).
pub const TICK_MS: u64 = 50;
/// Offered telemetry rate (requests/s). At the 50 ms tick that is 25
/// ops per slot, a tenth of the 256-op queue. A slot sheds to a lower
/// rung only if 128 ops queue before a drain, so only a stall of the
/// slot loop longer than 256 ms lowers `exact_frac`, and only one
/// longer than 512 ms refuses a request. At 1000 requests/s those
/// margins were halved, and on a busy shared host some runs had
/// requests refused and others shed more than an eighth of their slots.
///
/// The median request (`op_ms`) does not overlap slot work. The slot
/// work (each slot's drain, journal write, solve and, every 4th slot,
/// checkpoint) delays 7–10% of the requests on the quiet 2-core
/// reference host and 12–18% when another process competes for it;
/// the p99 lies among those (per-layer `serve.req_ms_p99`). That tail
/// tracks host contention more than the program: over ten seeds it was
/// 2.3–2.5 ms in runs with little CPU steal and 5.6–7.0 ms in runs with
/// much, so it is not gated. The median moved 0.150–0.186 ms over six
/// quiet seeds and to 0.19–0.20 ms beside a busy process.
///
/// Server CPU per request fell from 0.61 ms at 250 requests/s to 0.33
/// ms at 500 and 0.20 ms at 1000: about 0.07 ms is per request and the
/// rest is slot work, so at this rate the request path is about a
/// fifth of `cpu_ms_per_op`.
pub const RATE: f64 = 500.0;
/// Latency (ms) above which a request counts as delayed by slot work;
/// printed so a shift of regime shows.
const SLOW_MS: f64 = 1.0;
/// Client connections (= cores of the reference host).
pub const CONNS: usize = 2;
/// Set-ups per run; the last one's server takes the timed load.
const SETUPS: usize = 3;
/// Bound on every client socket operation, and the latency charged to a
/// request that fails or is refused.
const TIMEOUT: Duration = Duration::from_secs(5);

/// The server child; killed and reaped if dropped while running.
struct Server {
    child: Child,
    addr: SocketAddr,
    journal: PathBuf,
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Server {
    fn boot(bin: &Path, dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let journal = dir.join("ops.jsonl");
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--devices",
                &DEVICES.to_string(),
                "--shards",
                "2",
            ])
            .args([
                "--tick-interval-ms",
                &TICK_MS.to_string(),
                "--checkpoint-interval",
                "4",
            ])
            .arg("--checkpoint-dir")
            .arg(dir.join("checkpoints"))
            .arg("--journal")
            .arg(&journal)
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut banner = String::new();
        let read = BufReader::new(stdout).read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("lpvs-serve listening on ")
            .and_then(|a| a.parse().ok());
        let mut server = Server {
            child,
            addr: "127.0.0.1:0".parse().expect("literal"),
            journal,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                server.addr = addr;
                Ok(server)
            }
            _ => Err(format!(
                "lpvs-serve printed no listening banner (got {banner:?})"
            )),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains and stops the server, then reaps it.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let _ = client.request("POST", "/v1/shutdown", b"{}");
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("lpvs-serve exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("lpvs-serve did not stop within 30 s of shutdown".into())
    }
}

fn get_json(client: &mut Client, path: &str) -> Result<(u16, Json), String> {
    let (r, _) = client
        .request("GET", path, b"")
        .map_err(|e| format!("GET {path}: {e}"))?;
    let text = String::from_utf8(r.body).map_err(|_| format!("GET {path}: body is not UTF-8"))?;
    let json = Json::parse(&text).map_err(|_| format!("GET {path}: body is not JSON"))?;
    Ok((r.status, json))
}

/// Slots the server has applied, from `/healthz`.
fn applied_slots(client: &mut Client) -> Result<u64, String> {
    let (_, health) = get_json(client, "/healthz")?;
    health
        .get("slots")
        .and_then(Json::as_u64)
        .ok_or_else(|| "healthz has no slot count".into())
}

/// Polls `/healthz` until the applied-slot count passes `after`.
fn wait_for_tick(client: &mut Client, after: u64) -> Result<u64, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let slots = applied_slots(client)?;
        if slots > after {
            return Ok(slots);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "no slot was applied after slot {after} within 30 s"
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// splitmix64 of `(seed, i, salt)`: per-request inputs that depend on
/// the seed and nothing else.
fn mix(seed: u64, i: u64, salt: u64) -> u64 {
    let mut z =
        seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt.wrapping_mul(0xd6e8_feb8_6659_fd93);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Admission outcome of one set-up.
struct Admitted {
    devices: Vec<usize>,
    rejected: usize,
}

/// Sends every arrival, paced across ticks, and returns once a decided
/// slot covers the last admitted session.
fn admit(client: &mut Client, seed: u64) -> Result<Admitted, String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, health) = get_json(client, "/healthz")?;
        if health.get("status").and_then(Json::as_str) == Some("live") {
            break;
        }
        if Instant::now() > deadline {
            return Err("lpvs-serve never went live".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut admitted = Admitted {
        devices: Vec::new(),
        rejected: 0,
    };
    let mut slots = applied_slots(client)?;
    for batch in (0..ARRIVALS).collect::<Vec<_>>().chunks(ARRIVAL_BATCH) {
        for &device in batch {
            let body = format!(
                "{{\"action\":\"arrive\",\"device\":{device},\"energy_j\":{:.1},\"gamma\":{:.4},\"display\":\"{}\"}}",
                2_000.0 + 50_000.0 * unit(mix(seed, device as u64, 1)),
                0.1 + 0.5 * unit(mix(seed, device as u64, 2)),
                if mix(seed, device as u64, 3) & 1 == 0 { "oled" } else { "lcd" },
            );
            loop {
                let (r, _) = client
                    .request("POST", "/v1/sessions", body.as_bytes())
                    .map_err(|e| format!("arrival {device}: {e}"))?;
                let detail = String::from_utf8_lossy(&r.body);
                match r.status {
                    202 => admitted.devices.push(device),
                    429 if detail.contains("admission control") => admitted.rejected += 1,
                    // The op queue is full: retry once a tick drained it.
                    429 => {
                        slots = wait_for_tick(client, slots)?;
                        continue;
                    }
                    other => return Err(format!("arrival {device} answered {other}: {detail}")),
                }
                break;
            }
        }
        slots = wait_for_tick(client, slots)?;
    }
    // The last arrival was queued by now; the slot after the next one
    // to begin has surely drained it. Wait until that slot is decided.
    let covering = applied_slots(client)? + 1;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, decision) = get_json(client, &format!("/v1/schedule/{covering}"))?;
        if status == 200 {
            let selected = decision
                .get("selected_count")
                .and_then(Json::as_u64)
                .unwrap_or(0);
            if selected == 0 {
                return Err(format!(
                    "slot {covering} decided with no admitted session selected"
                ));
            }
            return Ok(admitted);
        }
        if Instant::now() > deadline {
            return Err(format!("slot {covering} was not decided within 30 s"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn scrape(client: &mut Client) -> Result<MetricsSnapshot, String> {
    let (r, _) = client
        .request("GET", "/metrics", b"")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    parse_prometheus(&String::from_utf8_lossy(&r.body)).map_err(|e| format!("GET /metrics: {e}"))
}

/// Slots the server reports solved at rung `tier`.
fn solved_at(m: &MetricsSnapshot, tier: Degradation) -> u64 {
    m.counter_labeled("serve_slots_solved_total", &[("tier", tier.label())])
        .unwrap_or(0)
}

/// Op counts in the journal: `(kind → count, ops per slot marker)`.
fn read_journal(path: &Path) -> Result<(BTreeMap<String, u64>, Vec<u64>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read journal: {e}"))?;
    let mut kinds = BTreeMap::new();
    let mut per_slot = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line).map_err(|_| "journal line is not JSON".to_owned())?;
        let kind = v.get("op").and_then(Json::as_str).unwrap_or("?").to_owned();
        if kind == "slot" {
            per_slot.push(v.get("ops").and_then(Json::as_u64).unwrap_or(0));
        }
        *kinds.entry(kind).or_insert(0) += 1;
    }
    Ok((kinds, per_slot))
}

/// Runs the workload.
pub fn run(p: &Params) -> Result<Outcome, String> {
    let bin = p
        .serve_bin
        .as_deref()
        .ok_or("serve-ingest needs --serve-bin")?;
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut server = None;
    let mut admitted = None;
    for round in 0..SETUPS {
        let started = Instant::now();
        let s = Server::boot(bin, &p.scratch.join(format!("server-{round}")))?;
        let mut client = Client::new(s.addr, TIMEOUT);
        let a = admit(&mut client, p.seed)?;
        setups.push(started.elapsed().as_secs_f64());
        // Admission conservation, by the server's own count.
        let m = scrape(&mut client)?;
        let accepted = m.counter("serve_sessions_accepted_total").unwrap_or(0);
        let rejected = m.counter("serve_sessions_rejected_total").unwrap_or(0);
        out.check(accepted + rejected == ARRIVALS as u64, || {
            format!("server counted {accepted} accepted + {rejected} rejected sessions, not {ARRIVALS} arrivals")
        });
        out.check(
            accepted == a.devices.len() as u64 && rejected == a.rejected as u64,
            || {
                format!(
                    "server counted {accepted} accepted / {rejected} rejected sessions, client saw {} / {}",
                    a.devices.len(),
                    a.rejected
                )
            },
        );
        if round + 1 < SETUPS {
            s.shutdown(&mut client)?;
        } else {
            server = Some(s);
            admitted = Some(a);
        }
    }
    let server = server.expect("last set-up keeps its server");
    let admitted = admitted.expect("last set-up keeps its admissions");
    if admitted.devices.is_empty() {
        return Err("no session was admitted".into());
    }
    let mut client = Client::new(server.addr, TIMEOUT);
    let (_, journal_before) = read_journal(&server.journal)?;

    // --- timed phase: open-loop telemetry -------------------------------
    let count = (RATE * p.seconds).round().max(1.0) as usize;
    let slots_before = applied_slots(&mut client)?;
    let tiers_before = scrape(&mut client)?;
    let cpu_before = host::cpu_ms(server.pid()).ok_or("cannot read the server's CPU time")?;
    let seed = p.seed;
    let devices = &admitted.devices;
    let start = Instant::now() + Duration::from_millis(20);
    let run = open_loop(
        server.addr,
        start,
        Duration::from_secs_f64(1.0 / RATE),
        count,
        CONNS,
        TIMEOUT,
        |i| {
            let device = devices[(mix(seed, i as u64, 4) % devices.len() as u64) as usize];
            let body = format!(
                "{{\"device\":{device},\"energy_j\":{:.1},\"observed\":{:.4}}}",
                1_000.0 + 50_000.0 * unit(mix(seed, i as u64, 5)),
                0.1 + 0.5 * unit(mix(seed, i as u64, 6)),
            );
            ("POST", "/v1/telemetry".to_owned(), body.into_bytes())
        },
    );
    let cpu_ms =
        host::cpu_ms(server.pid()).ok_or("cannot read the server's CPU time")? - cpu_before;
    let slots_decided = applied_slots(&mut client)? - slots_before;
    let peak_rss = host::peak_rss_mb(server.pid()).ok_or("cannot read the server's peak RSS")?;
    let metrics = scrape(&mut client)?;
    let tier_delta = |tiers: &[Degradation]| -> f64 {
        tiers
            .iter()
            .map(|&t| solved_at(&metrics, t) as f64 - solved_at(&tiers_before, t) as f64)
            .sum()
    };
    let (exact_slots, solved_slots) = (
        tier_delta(&[Degradation::Exact]),
        tier_delta(&Degradation::ALL),
    );
    if solved_slots < 1.0 {
        return Err("no slot was decided during the timed phase".into());
    }
    let journal = server.journal.clone();
    server.shutdown(&mut client)?;

    // --- correctness -----------------------------------------------------
    let mut statuses: BTreeMap<String, u64> = BTreeMap::new();
    for s in &run.sent {
        *statuses
            .entry(
                s.status
                    .map_or("transport-error".to_owned(), |c| c.to_string()),
            )
            .or_insert(0) += 1;
    }
    let accepted = statuses.get("202").copied().unwrap_or(0);
    let count_of = |pred: &dyn Fn(&Sent) -> bool| run.sent.iter().filter(|s| pred(s)).count();
    let server_errors = count_of(&|s| s.status.is_some_and(|c| c >= 500));
    let transport = count_of(&|s| s.status.is_none());
    out.check(server_errors == 0, || {
        format!("{server_errors} responses were 5xx")
    });
    out.check(transport == 0, || {
        format!("{transport} requests failed in transport")
    });
    let (kinds, journal_after) = read_journal(&journal)?;
    let journaled = kinds.get("telemetry").copied().unwrap_or(0);
    out.check(journaled == accepted, || {
        format!("{journaled} telemetry ops journaled, {accepted} accepted")
    });
    let arrivals = kinds.get("arrive").copied().unwrap_or(0);
    out.check(arrivals == admitted.devices.len() as u64, || {
        format!(
            "{arrivals} arrivals journaled, {} admitted",
            admitted.devices.len()
        )
    });
    let mut digest = Digest::default();
    for (status, n) in &statuses {
        digest.bytes(status.as_bytes());
        digest.u64(*n);
    }
    digest.u64(admitted.devices.len() as u64);
    digest.u64(admitted.rejected as u64);
    out.notes.push(format!(
        "digest: serve-ingest response statuses = {} (statuses {statuses:?}, sessions {} admitted / {} rejected)",
        digest.hex(),
        admitted.devices.len(),
        admitted.rejected
    ));
    out.attempted = run.sent.len() as u64;
    out.failed = out.attempted - accepted;

    // Refused or failed requests miss any latency limit: charge them the
    // client timeout.
    let timeout_ms = TIMEOUT.as_secs_f64() * 1e3;
    let latency: Vec<f64> = run
        .sent
        .iter()
        .map(|s| {
            if s.status == Some(202) {
                s.latency_ms
            } else {
                timeout_ms
            }
        })
        .collect();
    let slow = latency.iter().filter(|&&ms| ms > SLOW_MS).count();
    let timed_slots = &journal_after[journal_before.len().min(journal_after.len())..];
    let deepest = timed_slots.iter().copied().max().unwrap_or(0);
    out.notes.push(format!(
        "queue: the deepest slot drained {deepest} ops; a slot sheds to a lower rung from {} \
         queued ops, and requests are refused from {OPS_QUEUE}",
        OPS_QUEUE / 2
    ));
    out.notes.push(format!(
        "regime: {:.1}% of requests took over {SLOW_MS} ms (slot work delaying them); \
         the median (op_ms) lies outside that regime and serve.req_ms_p99 inside it",
        100.0 * slow as f64 / latency.len() as f64
    ));
    let p99 = percentile(&latency, 0.99)?;
    out.notes.push(format!(
        "serve-ingest: req_ms_p99 = {p99:.4} ms over {} requests",
        latency.len()
    ));
    if !p.trace {
        out.metrics = end_to_end(vec![
            Metric::new("setup_s", "s", median(&setups), setups.len()),
            Metric::new("op_ms", "ms", percentile(&latency, 0.50)?, latency.len()),
            Metric::new(
                "cpu_ms_per_op",
                "ms",
                cpu_ms / accepted.max(1) as f64,
                accepted as usize,
            ),
            Metric::new(
                "ok_frac",
                "ratio",
                accepted as f64 / out.attempted as f64,
                out.attempted as usize,
            ),
            Metric::new(
                "exact_frac",
                "ratio",
                exact_slots / solved_slots,
                solved_slots as usize,
            ),
            Metric::new("peak_rss_mb", "MB", peak_rss, 1),
        ])?;
        return Ok(out);
    }

    // --- per-layer: client-side hops, /metrics and the journal ----------
    let n = run.sent.len();
    let connects: Vec<f64> = run.sent.iter().filter_map(|s| s.connect_ms).collect();
    let ttfb: Vec<f64> = run
        .sent
        .iter()
        .filter(|s| s.status.is_some())
        .map(|s| s.ttfb_ms)
        .collect();
    let path_count = |path: &str| {
        metrics
            .counter_labeled("delta_solve_total", &[("path", path)])
            .unwrap_or(0) as f64
    };
    let solves = path_count("cold") + path_count("incremental") + path_count("reuse");
    let measured = vec![
        Metric::new(
            "delta.incremental_frac",
            "ratio",
            path_count("incremental") / solves.max(1.0),
            solves as usize,
        ),
        Metric::new("http.connect_ms", "ms", mean(&connects), connects.len()),
        Metric::new("http.ttfb_ms", "ms", mean(&ttfb), ttfb.len()),
        Metric::new(
            "http.conns_per_req",
            "ratio",
            run.connects as f64 / n as f64,
            n,
        ),
        Metric::new(
            "serve.queue_depth_max",
            "count",
            deepest as f64,
            timed_slots.len(),
        ),
        Metric::new(
            "serve.shed_429",
            "count",
            statuses.get("429").copied().unwrap_or(0) as f64,
            n,
        ),
        Metric::new("serve.slots_decided", "count", slots_decided as f64, 1),
        Metric::new("serve.req_ms_p99", "ms", p99, latency.len()),
        Metric::new(
            "gen.late_ms_max",
            "ms",
            run.sent.iter().map(|s| s.late_ms).fold(0.0, f64::max),
            n,
        ),
    ];
    let why_inside =
        "lpvs-serve solves in a child process: these layers are timed on emu-10k and delta-100k";
    out.metrics = per_layer(
        measured,
        &[
            ("emulator.", "serve-ingest does not run the emulator"),
            ("core.", why_inside),
            ("solver.", why_inside),
            ("delta.frontier_rows", why_inside),
            ("edge.", why_inside),
            ("runtime.", why_inside),
            ("ckpt.", why_inside),
            (
                "obs.",
                "lpvs-serve always records spans and metrics; it has no untraced mode to compare",
            ),
        ],
    )?;
    Ok(out)
}
