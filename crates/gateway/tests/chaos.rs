//! Network chaos storm: 30 seeded runs against a live gateway, each
//! mixing well-behaved clients with seeded fault clients — slow writers
//! trickling header bytes, half-open sockets that never send, mid-body
//! disconnects, oversized heads and declared bodies, and a burst flood
//! past the connection cap. Every run must hang nothing (20s watchdog
//! with a health dump), answer every accepted request exactly once, shed
//! with typed responses, and drain cleanly at shutdown.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use codes_gateway::{Gateway, HttpClient, TenantSpec};
use common::{fast_config, silence_injected_panics, start_gateway, test_router};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Json;

const RUNS: u64 = 30;
const WATCHDOG: Duration = Duration::from_secs(20);
const CONNECTION_CAP: usize = 8;
const FLOOD: usize = 16;
const GOOD_CLIENTS: usize = 4;
/// Slow writer, half-open, mid-body, torn chunk, vanishing reader and the
/// two oversized senders: one connection each, under the cap together.
const FAULT_CLIENTS: u64 = 7;
const REQUESTS_PER_CLIENT: usize = 5;

/// What one seeded run observed; the main thread asserts on it after the
/// watchdog race.
struct RunReport {
    stats: codes_gateway::GatewayStats,
    ok_responses: usize,
    typed_failures: usize,
    flood_refusals: usize,
    protocol_timeouts: u64,
    oversize_head_resp: u16,
    oversize_body_resp: u16,
    client_gone_requests: u64,
    stream_aborts: u64,
    journal_seqs: Vec<u64>,
}

fn infer_json(question: &str) -> Json {
    Json::Obj(vec![
        ("db_id".to_string(), Json::Str("bank".to_string())),
        ("question".to_string(), Json::Str(question.to_string())),
    ])
}

/// A well-behaved client: one fresh connection per request, retrying
/// typed 503s (connection cap under the flood) until admitted. Returns
/// `(oks, typed_failures)`; anything else panics the run.
fn good_client(addr: SocketAddr, auth: &[(&str, &str)], id: usize, rng_seed: u64) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut oks = 0;
    let mut typed = 0;
    for req in 0..REQUESTS_PER_CLIENT {
        // A sprinkle of scripted failures keeps the error path hot under
        // network chaos too.
        let question = match rng.random_range(0..10u32) {
            0 => format!("err:parse: g{id} r{req}"),
            1 => format!("panic: g{id} r{req}"),
            _ => format!("good client {id} request {req}"),
        };
        let mut attempts = 0;
        loop {
            attempts += 1;
            assert!(attempts <= 200, "good client starved past 200 attempts");
            let Ok(mut client) = HttpClient::connect(addr) else {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            let Ok(resp) = client.post_json("/v1/infer", auth, &infer_json(&question)) else {
                // The cap refusal may close the socket before the
                // response is readable; treat as a retry.
                std::thread::sleep(Duration::from_millis(5));
                continue;
            };
            match resp.status {
                200 => {
                    oks += 1;
                    break;
                }
                // Typed, expected failures of the scripted questions.
                422 | 500 => {
                    typed += 1;
                    break;
                }
                // Shed at the edge or by the router: retry until admitted.
                429 | 503 => {
                    std::thread::sleep(Duration::from_millis(rng.random_range(1..8u64)));
                }
                other => panic!("good client saw unexpected status {other}: {}", resp.body_str()),
            }
        }
    }
    (oks, typed)
}

/// Trickle half a request head slower than the head budget; the gateway
/// must answer 408 (or close) rather than hang the slot.
fn slow_writer(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else { return false };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    for chunk in [b"GET /v1/he".as_slice(), b"alth HT".as_slice()] {
        if stream.write_all(chunk).is_err() {
            return true; // already cut off — fine
        }
        std::thread::sleep(Duration::from_millis(150));
    }
    // Past the 250ms head budget by now; never send the terminator.
    std::thread::sleep(Duration::from_millis(300));
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    let text = String::from_utf8_lossy(&buf);
    text.contains("408") || buf.is_empty()
}

/// Declare a body then vanish mid-upload.
fn mid_body_disconnect(addr: SocketAddr) {
    let Ok(mut stream) = TcpStream::connect(addr) else { return };
    let _ = stream
        .write_all(b"POST /v1/infer HTTP/1.1\r\nhost: x\r\ncontent-length: 100\r\n\r\npartial");
    // Drop: RST/FIN mid-body. The gateway must not forward anything.
}

/// Start a chunked upload and vanish mid-frame. Even seeds tear the
/// connection between two chunks; odd seeds tear *inside* a chunk size
/// line, leaving the decoder holding a partial frame. Either way the
/// truncated request must never reach the router.
fn torn_chunked_upload(addr: SocketAddr, seed: u64) {
    let Ok(mut stream) = TcpStream::connect(addr) else { return };
    let _ = stream.write_all(
        b"POST /v1/infer HTTP/1.1\r\nhost: x\r\ntransfer-encoding: chunked\r\n\r\n5\r\nhello\r\n",
    );
    if seed.is_multiple_of(2) {
        // Torn between chunks: a clean frame boundary, then silence.
        std::thread::sleep(Duration::from_millis(30));
    } else {
        // Torn inside the next chunk's size line.
        let _ = stream.write_all(b"1");
        std::thread::sleep(Duration::from_millis(30));
    }
    // Drop without ever sending the terminal chunk.
}

/// Open a streaming inference, read at most one event, then abandon the
/// connection while the backend is still generating. The server must
/// finish the ticket (exactly-once journaling) even though nobody is
/// listening, and count the torn stream rather than hanging on it.
fn stream_reader_vanishes(addr: SocketAddr) {
    let Ok(mut client) = HttpClient::connect(addr) else { return };
    let Ok(mut stream) = client.post_stream(
        "/v1/infer",
        &[("x-api-key", "sk-acme")],
        &infer_json("sleep:60: reader vanishes"),
    ) else {
        return;
    };
    let _ = stream.next();
    // Drop mid-stream: the remaining events have no transport.
}

/// A request head far past the byte budget must come back as a typed 431.
fn oversized_head(addr: SocketAddr) -> u16 {
    let Ok(mut stream) = TcpStream::connect(addr) else { return 0 };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut head = b"GET /v1/health HTTP/1.1\r\n".to_vec();
    for i in 0..200 {
        head.extend_from_slice(format!("x-pad-{i}: {}\r\n", "y".repeat(80)).as_bytes());
    }
    // The gateway drains what it refuses, so the whole head goes out even
    // though the refusal is decided a few kilobytes in.
    if stream.write_all(&head).is_err() {
        return 0;
    }
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    parse_status(&buf)
}

/// A declared body past the byte budget must come back as a typed 413.
fn oversized_body(addr: SocketAddr) -> u16 {
    let Ok(mut stream) = TcpStream::connect(addr) else { return 0 };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let _ = stream
        .write_all(b"POST /v1/infer HTTP/1.1\r\nhost: x\r\ncontent-length: 10000000\r\n\r\n");
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    parse_status(&buf)
}

fn parse_status(raw: &[u8]) -> u16 {
    let text = String::from_utf8_lossy(raw);
    text.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// The live router of the in-progress run, for the watchdog's health dump.
type Probe = Arc<parking_lot::Mutex<Option<Arc<codes_router::Router>>>>;

fn run_one(seed: u64, probe: &Probe) -> RunReport {
    let dir = std::env::temp_dir().join("codes-gateway-chaos");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let journal_path = dir.join(format!("audit-{}-{seed}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);

    let mut config = fast_config(vec![TenantSpec::new("acme", "sk-acme").with_rate(500.0, 500.0)]);
    config.max_connections = CONNECTION_CAP;
    config.journal_path = Some(journal_path.clone());
    let router = test_router(Duration::from_millis(2), &["acme"]);
    *probe.lock() = Some(Arc::clone(&router));
    let gateway = Gateway::start(router, config).expect("gateway starts");
    let addr = gateway.local_addr();
    let auth: [(&str, &str); 1] = [("x-api-key", "sk-acme")];

    // Fault clients that run alongside the good traffic.
    let slow = std::thread::spawn(move || slow_writer(addr));
    let half_open = std::thread::spawn(move || {
        // Connect and never send a byte; hold past several read slices,
        // then vanish without a FIN exchange the gateway can wait on.
        let stream = TcpStream::connect(addr);
        std::thread::sleep(Duration::from_millis(200));
        drop(stream);
    });
    let torn = std::thread::spawn(move || mid_body_disconnect(addr));
    let torn_chunk = std::thread::spawn(move || torn_chunked_upload(addr, seed));
    let vanisher = std::thread::spawn(move || stream_reader_vanishes(addr));
    let big_head = std::thread::spawn(move || oversized_head(addr));
    let big_body = std::thread::spawn(move || oversized_body(addr));
    // Every fault client is inside before the flood takes the cap: one
    // shed at the door with the cap's 503 would never exercise its fault.
    let accepted = gateway.registry().counter("codes_gateway_connections_total", &[]);
    let patience = Instant::now() + Duration::from_secs(5);
    while accepted.get() < FAULT_CLIENTS && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
    }

    // Burst flood: FLOOD simultaneous holders against a cap of
    // CONNECTION_CAP. A barrier guarantees they coexist, so at least
    // FLOOD - CONNECTION_CAP connections are refused with a typed 503.
    let barrier = Arc::new(std::sync::Barrier::new(FLOOD));
    let flood: Vec<_> = (0..FLOOD)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).ok();
                barrier.wait();
                let refused = match &stream {
                    None => true,
                    Some(s) => {
                        // A refused connection carries the typed 503 and
                        // closes; an accepted one stays silently open.
                        let _ = s.set_read_timeout(Some(Duration::from_millis(150)));
                        let mut buf = [0u8; 512];
                        let mut s = s;
                        matches!(s.read(&mut buf), Ok(n) if n > 0)
                    }
                };
                std::thread::sleep(Duration::from_millis(50));
                drop(stream);
                refused
            })
        })
        .collect();

    let good: Vec<_> = (0..GOOD_CLIENTS)
        .map(|id| {
            std::thread::spawn(move || {
                good_client(addr, &[("x-api-key", "sk-acme")], id, seed ^ (id as u64) << 8)
            })
        })
        .collect();

    let mut ok_responses = 0;
    let mut typed_failures = 0;
    for handle in good {
        let (oks, typed) = handle.join().expect("good client thread");
        ok_responses += oks;
        typed_failures += typed;
    }
    let slow_got_timeout = slow.join().expect("slow writer");
    assert!(slow_got_timeout, "slow writer neither got 408 nor a close");
    half_open.join().expect("half-open");
    torn.join().expect("mid-body");
    torn_chunk.join().expect("torn chunked upload");
    vanisher.join().expect("stream vanisher");
    let oversize_head_resp = big_head.join().expect("big head");
    let oversize_body_resp = big_body.join().expect("big body");
    let flood_refusals = flood
        .into_iter()
        .map(|h| h.join().expect("flood holder"))
        .filter(|refused| *refused)
        .count();

    // One last sanity request while everything above has drained.
    let mut client = HttpClient::connect(addr).expect("final connect");
    let final_resp =
        client.post_json("/v1/infer", &auth, &infer_json("final sanity")).expect("final infer");
    assert_eq!(final_resp.status, 200, "{}", final_resp.body_str());
    ok_responses += 1;

    let registry = Arc::clone(gateway.registry());
    let protocol_timeouts = registry
        .counter("codes_gateway_protocol_errors_total", &[("kind", "request_timeout")])
        .get();
    let client_gone_requests =
        registry.counter("codes_gateway_client_gone_total", &[("phase", "request")]).get();
    let stream_aborts =
        registry.counter("codes_gateway_stream_aborts_total", &[("reason", "client_gone")]).get();

    let stats = gateway.shutdown();
    let (_, records) = codes_gateway::AuditJournal::open(&journal_path).expect("journal reopens");
    let journal_seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
    let _ = std::fs::remove_file(&journal_path);

    RunReport {
        stats,
        ok_responses,
        typed_failures,
        flood_refusals,
        protocol_timeouts,
        oversize_head_resp,
        oversize_body_resp,
        client_gone_requests,
        stream_aborts,
        journal_seqs,
    }
}

#[test]
fn chaos_storm_30_seeded_runs() {
    silence_injected_panics();
    let mut stream_aborts_total = 0;
    for seed in 0..RUNS {
        let (tx, rx) = mpsc::channel();
        let probe: Probe = Arc::new(parking_lot::Mutex::new(None));
        let run_probe = Arc::clone(&probe);
        std::thread::spawn(move || {
            let _ = tx.send(run_one(seed, &run_probe));
        });
        let report = match rx.recv_timeout(WATCHDOG) {
            Ok(report) => report,
            Err(_) => {
                // Health dump before dying: what was the stack doing when
                // the watchdog fired?
                if let Some(router) = probe.lock().as_ref() {
                    eprintln!("watchdog health dump (seed {seed}): {:#?}", router.health());
                }
                panic!(
                    "seed {seed}: run exceeded the {WATCHDOG:?} watchdog — a socket or ticket hung"
                );
            }
        };

        let total_good = GOOD_CLIENTS * REQUESTS_PER_CLIENT + 1;
        assert_eq!(
            report.ok_responses + report.typed_failures,
            total_good,
            "seed {seed}: every good request answered exactly once"
        );
        // Exactly-once ticket resolution, observed two independent ways:
        // gateway accounting and the audit journal's dense sequence.
        assert_eq!(
            report.stats.infer_admitted, report.stats.infer_resolved,
            "seed {seed}: admitted tickets must all resolve (stats {:?})",
            report.stats
        );
        let mut seqs = report.journal_seqs.clone();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(
            seqs.len() as u64,
            report.stats.infer_requests,
            "seed {seed}: one journal record per authenticated infer attempt"
        );
        assert_eq!(
            seqs,
            (0..report.stats.infer_requests).collect::<Vec<_>>(),
            "seed {seed}: journal sequence is dense — nothing double-journaled or lost"
        );
        // The flood must have produced typed connection sheds, and the
        // refused holders must have *seen* the typed refusal bytes.
        assert!(
            report.stats.shed_connections >= (FLOOD - CONNECTION_CAP) as u64,
            "seed {seed}: expected >= {} connection sheds, saw {}",
            FLOOD - CONNECTION_CAP,
            report.stats.shed_connections
        );
        assert!(
            report.flood_refusals >= FLOOD - CONNECTION_CAP,
            "seed {seed}: only {} flood holders saw a typed refusal",
            report.flood_refusals
        );
        // Slowloris and byte-budget defenses all fired with typed answers.
        assert!(
            report.protocol_timeouts >= 1,
            "seed {seed}: slow writer never tripped the head budget"
        );
        assert_eq!(report.oversize_head_resp, 431, "seed {seed}: oversized head");
        assert_eq!(report.oversize_body_resp, 413, "seed {seed}: oversized body declaration");
        assert!(
            report.client_gone_requests >= 1,
            "seed {seed}: mid-body disconnect went unnoticed"
        );
        stream_aborts_total += report.stream_aborts;
    }
    // Whether a given run's vanishing reader tears the stream before or
    // after the final flush is a kernel-timing race, but across 30 runs
    // the abort path must have fired.
    assert!(
        stream_aborts_total >= 1,
        "no run ever recorded a torn stream ({stream_aborts_total} aborts in {RUNS} runs)"
    );
}

/// Graceful drain with a stream in flight: shutdown must let the
/// dispatched request finish, deliver its terminal `result` event, and
/// resolve every admitted ticket — then close the connection rather than
/// accept more work on it.
#[test]
fn drain_mid_stream_finishes_the_in_flight_stream() {
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let addr = gateway.local_addr();
    let streamer = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).expect("connect");
        let events: Vec<Json> = client
            .post_stream("/v1/infer", &[], &infer_json("sleep:300: drain me"))
            .expect("stream starts")
            .collect::<Result<_, _>>()
            .expect("every event decodes");
        events
    });
    // Let the request get admitted and dispatched before draining.
    std::thread::sleep(Duration::from_millis(100));
    let stats = gateway.shutdown();
    let events = streamer.join().expect("streamer thread");

    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").and_then(Json::as_str).expect("event name"))
        .collect();
    assert_eq!(names.last(), Some(&"result"), "{events:?}");
    let result = events.last().and_then(|e| e.get("data")).expect("result data");
    assert_eq!(
        result.get("sql").and_then(Json::as_str),
        Some("SELECT 'sleep:300: drain me'"),
    );
    assert_eq!(
        stats.infer_admitted, stats.infer_resolved,
        "drain resolved every admitted ticket: {stats:?}"
    );
}
