//! Self-tests of the benchmark's own machinery: the sample-count rule,
//! open-loop due-time accounting, and the HTTP client's connection
//! handling. They run against in-process fake servers, never against
//! the program.

use lpvs_benchmark::http::{open_loop, read_response, Client};
use lpvs_benchmark::report::{Metric, Outcome};
use lpvs_benchmark::stats::{beyond, min_samples, percentile, MIN_BEYOND};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    assert_eq!(MIN_BEYOND, 10);
    assert_eq!(min_samples(0.50), 20);
    assert_eq!(min_samples(0.90), 100);
    assert_eq!(min_samples(0.99), 1000);
    for q in [0.5, 0.9, 0.99] {
        let n = min_samples(q);
        assert!(beyond(n, q) >= MIN_BEYOND);
        assert!(beyond(n - 1, q) < MIN_BEYOND);
        let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
        assert!(percentile(&samples, q).is_ok());
        let err = percentile(&samples[..n - 1], q).expect_err("one sample short");
        assert!(err.contains(&n.to_string()), "{err}");
    }
    // Nearest rank: p90 of 1..=100 is 90, with 10 samples above it.
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.9), Ok(90.0));
}

#[test]
fn every_metric_prints_its_unit_and_sample_count() {
    let out = Outcome {
        attempted: 4,
        failed: 1,
        metrics: vec![
            Metric::new("req_ms_p99", "ms", 2.5, 1234),
            Metric::absent("http.ttfb_ms", "ms", "no HTTP here"),
        ],
        ..Outcome::default()
    };
    let table = out.table();
    let row = table
        .lines()
        .find(|l| l.starts_with("req_ms_p99"))
        .expect("metric row");
    assert!(
        row.contains(" ms ") && row.trim_end().ends_with("1234"),
        "{row}"
    );
    assert!(table.contains("absent: no HTTP here"));
    assert_eq!(
        out.json_line(),
        "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"req_ms_p99\": \
         {\"value\": 2.5, \"unit\": \"ms\"}, \"http.ttfb_ms\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
    );
}

/// How the fake server answers request `n` (counted across
/// connections): how long to stall first, and how to end the exchange.
#[derive(Clone, Copy)]
struct Answer {
    stall: Duration,
    /// Send `connection: close` and close.
    close_header: bool,
    /// Close silently after answering, as an idle-timeout would.
    drop_after: bool,
}

const KEEP: Answer = Answer {
    stall: Duration::ZERO,
    close_header: false,
    drop_after: false,
};

/// A fake HTTP/1.1 server that serves `conns` connections, then stops.
fn fake_server(
    conns: usize,
    answer: impl Fn(usize) -> Answer + Send + Sync + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let answer = Arc::new(answer);
    let served = Arc::new(AtomicUsize::new(0));
    let handle = std::thread::spawn(move || {
        let mut workers = Vec::new();
        for stream in listener.incoming().take(conns) {
            let stream = stream.expect("accept");
            let (answer, served) = (Arc::clone(&answer), Arc::clone(&served));
            workers.push(std::thread::spawn(move || {
                serve_conn(stream, &*answer, &served)
            }));
        }
        for w in workers {
            w.join().expect("fake connection thread");
        }
    });
    (addr, handle)
}

fn serve_conn(stream: TcpStream, answer: &dyn Fn(usize) -> Answer, served: &AtomicUsize) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    loop {
        let mut length = 0usize;
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            return; // client closed
        }
        loop {
            line.clear();
            reader.read_line(&mut line).expect("header");
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                length = v.trim().parse().expect("length");
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).expect("body");
        let a = answer(served.fetch_add(1, Ordering::SeqCst));
        std::thread::sleep(a.stall);
        let close = if a.close_header {
            "connection: close\r\n"
        } else {
            ""
        };
        let wire = format!("HTTP/1.1 202 Accepted\r\ncontent-length: 2\r\n{close}\r\nok");
        writer.write_all(wire.as_bytes()).expect("respond");
        if a.close_header || a.drop_after {
            return;
        }
    }
}

#[test]
fn a_stall_is_charged_to_the_requests_queued_behind_it() {
    let (addr, server) = fake_server(1, |n| Answer {
        stall: if n == 2 {
            Duration::from_millis(300)
        } else {
            Duration::ZERO
        },
        ..KEEP
    });
    let start = Instant::now() + Duration::from_millis(20);
    let interval = Duration::from_millis(20);
    let run = open_loop(addr, start, interval, 8, 1, Duration::from_secs(5), |_| {
        ("POST", "/x".into(), b"{}".to_vec())
    });
    server.join().expect("fake server");
    assert_eq!(run.sent.len(), 8);
    assert!(run.sent.iter().all(|s| s.status == Some(202)));
    let s = &run.sent;
    // Before the stall: on time and fast.
    assert!(
        s[0].latency_ms < 50.0 && s[1].latency_ms < 50.0,
        "{:?}",
        &s[..2]
    );
    // The stalled request itself.
    assert!(s[2].latency_ms >= 300.0, "{:?}", s[2]);
    // Request 3 was due 20 ms after request 2 but could only be sent
    // when the stall ended: its latency counts from its due time.
    assert!(s[3].late_ms >= 250.0, "{:?}", s[3]);
    assert!(s[3].latency_ms >= 250.0, "{:?}", s[3]);
    assert!(s[3].latency_ms >= s[3].late_ms);
    // Every request due during the stall waited for it, each a little
    // less than the one before.
    for w in s[3..].windows(2).take_while(|w| w[1].late_ms > 1.0) {
        assert!(w[1].latency_ms < w[0].latency_ms, "{w:?}");
    }
}

#[test]
fn kept_alive_connections_are_reused() {
    let (addr, server) = fake_server(1, |_| KEEP);
    let mut client = Client::new(addr, Duration::from_secs(5));
    for _ in 0..5 {
        let (r, _) = client.request("POST", "/x", b"{}").expect("request");
        assert_eq!(
            (r.status, r.body.as_slice(), r.close),
            (202, &b"ok"[..], false)
        );
    }
    assert_eq!(client.connects, 1);
    drop(client);
    server.join().expect("fake server");
}

#[test]
fn connection_close_makes_the_client_reconnect() {
    let (addr, server) = fake_server(5, |_| Answer {
        close_header: true,
        ..KEEP
    });
    let mut client = Client::new(addr, Duration::from_secs(5));
    for _ in 0..5 {
        let (r, t) = client.request("POST", "/x", b"{}").expect("request");
        assert!(r.close && t.connect.is_some());
    }
    assert_eq!(client.connects, 5);
    server.join().expect("fake server");
}

#[test]
fn a_silently_closed_idle_connection_is_retried_on_a_fresh_one() {
    let (addr, server) = fake_server(3, |_| Answer {
        drop_after: true,
        ..KEEP
    });
    let mut client = Client::new(addr, Duration::from_secs(5));
    for _ in 0..3 {
        // Let the server's close reach the client before it reuses.
        std::thread::sleep(Duration::from_millis(20));
        let (r, _) = client
            .request("POST", "/x", b"{}")
            .expect("request succeeds after a reconnect");
        assert_eq!(r.status, 202);
    }
    assert_eq!(client.connects, 3);
    server.join().expect("fake server");
}

#[test]
fn responses_are_framed_by_content_length() {
    let wire = b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\n\r\nabcHTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    let mut reader = BufReader::new(&wire[..]);
    let first = read_response(&mut reader).expect("first");
    assert_eq!(
        (first.status, first.body.as_slice(), first.close),
        (200, &b"abc"[..], false)
    );
    let second = read_response(&mut reader).expect("second");
    assert_eq!(
        (second.status, second.body.len(), second.close),
        (429, 0, true)
    );
    // A kept-alive response must carry its length; chunked is refused.
    assert!(read_response(&mut BufReader::new(&b"HTTP/1.1 200 OK\r\n\r\n"[..])).is_err());
    let chunked = b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n";
    assert!(read_response(&mut BufReader::new(&chunked[..])).is_err());
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    use lpvs_obs::json::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} list"))
            .to_vec()
    };
    let field = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{key}"))
            .to_owned()
    };
    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, lpvs_benchmark::WORKLOADS);
    let e2e: Vec<(String, String)> = list("end_to_end")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect();
    let want: Vec<(String, String)> = lpvs_benchmark::END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect();
    assert_eq!(e2e, want);
    let layers: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> = lpvs_benchmark::PER_LAYER
        .iter()
        .map(|l| (l.name.to_owned(), l.unit.to_owned(), l.better.to_owned()))
        .collect();
    assert_eq!(layers, want);
}
