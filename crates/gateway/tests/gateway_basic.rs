//! End-to-end gateway behavior over real sockets: the four endpoints,
//! auth and quota enforcement, error mapping on the wire, keep-alive,
//! cache warm/invalidate round-trips, the audit journal, and graceful
//! shutdown draining in-flight work.

mod common;

use std::time::Duration;

use codes_gateway::{Gateway, HttpClient, TenantSpec};
use common::{fast_config, start_gateway, test_router};
use serde::Json;

fn infer_body(db: &str, question: &str) -> Json {
    Json::Obj(vec![
        ("db_id".to_string(), Json::Str(db.to_string())),
        ("question".to_string(), Json::Str(question.to_string())),
    ])
}

#[test]
fn infer_health_metrics_and_invalidate_round_trip() {
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");

    // Health first: a fresh gateway is ready.
    let health = client.get("/v1/health", &[]).expect("health");
    assert_eq!(health.status, 200);
    let health_json = health.data().expect("health data");
    assert_eq!(health_json.get("ready").and_then(Json::as_bool), Some(true));
    assert_eq!(health_json.get("draining").and_then(Json::as_bool), Some(false));

    // Cold inference.
    let resp = client
        .post_json("/v1/infer", &[], &infer_body("bank", "list accounts"))
        .expect("infer");
    assert_eq!(resp.status, 200, "body: {}", resp.body_str());
    let body = resp.data().expect("infer data");
    assert_eq!(body.get("sql").and_then(Json::as_str), Some("SELECT 'list accounts'"));
    assert_eq!(body.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(body.get("tenant").and_then(Json::as_str), Some("default"));

    // Same question again: served from the shard-local cache.
    let warm = client
        .post_json("/v1/infer", &[], &infer_body("bank", "list accounts"))
        .expect("warm infer");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.data().expect("data").get("cached").and_then(Json::as_bool), Some(true));

    // Invalidate the database: the generation bumps and the next hit is
    // cold again.
    let inv = client
        .post_json(
            "/v1/invalidate",
            &[],
            &Json::Obj(vec![("db_id".to_string(), Json::Str("bank".to_string()))]),
        )
        .expect("invalidate");
    assert_eq!(inv.status, 200, "body: {}", inv.body_str());
    assert!(inv.data().expect("data").get("generation").and_then(Json::as_i64).is_some());
    let cold = client
        .post_json("/v1/infer", &[], &infer_body("bank", "list accounts"))
        .expect("re-infer");
    assert_eq!(cold.data().expect("data").get("cached").and_then(Json::as_bool), Some(false));

    // Metrics exposes the gateway family alongside the router's.
    let metrics = client.get("/metrics", &[]).expect("metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.body_str();
    assert!(text.contains("codes_gateway_connections_total 1"), "{text}");
    assert!(text.contains("codes_gateway_requests_total{endpoint=\"infer\"} 3"), "{text}");
    assert!(text.contains("codes_gateway_infer_outcomes_total{code=\"ok\"} 3"), "{text}");
    assert!(text.contains("codes_router_submitted_total"), "{text}");
    // One result cache: the full-result series and no stage-tier series.
    assert!(text.contains("codes_cache_hits_total{tier=\"full_result\"} 1"), "{text}");
    assert!(text.contains("codes_cache_misses_total{tier=\"full_result\"} 2"), "{text}");
    assert!(text.contains("codes_cache_invalidations_total 1"), "{text}");
    // Both clean answers stay resident: the generation bump only makes the
    // first unreachable, and nothing presses the capacity.
    assert!(text.contains("codes_cache_entries{tier=\"full_result\"} 2"), "{text}");
    assert!(text.contains("codes_cache_evictions_total{tier=\"full_result\"} 0"), "{text}");
    assert!(!text.contains("tier=\"schema_filter\""), "{text}");
    assert!(!text.contains("tier=\"value_retrieval\""), "{text}");

    let stats = gateway.shutdown();
    assert_eq!(stats.infer_admitted, stats.infer_resolved);
    assert_eq!(stats.accepted_connections, 1);
}

#[test]
fn unknown_routes_and_methods_are_typed() {
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");
    let missing = client.get("/nope", &[]).expect("404");
    assert_eq!(missing.status, 404);
    assert_eq!(missing.error_code().as_deref(), Some("not_found"));
    let wrong_method = client.get("/v1/infer", &[]).expect("405");
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.error_code().as_deref(), Some("method_not_allowed"));
    let bad_json = client
        .request("POST", "/v1/infer", &[], b"{not json")
        .expect("400");
    assert_eq!(bad_json.status, 400);
    assert_eq!(bad_json.error_code().as_deref(), Some("bad_request"));
    let no_question = client
        .request("POST", "/v1/infer", &[], br#"{"db_id":"bank"}"#)
        .expect("400");
    assert_eq!(no_question.status, 400);
}

#[test]
fn engine_failures_map_onto_the_wire() {
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");
    for (question, status, code) in [
        ("err:parse: broken", 422, "engine_parse"),
        ("err:unsupported: window fns", 422, "engine_unsupported"),
        ("err:unknown_table: ghosts", 404, "engine_unknown_table"),
        ("err:budget: slow", 504, "engine_budget"),
        ("err:internal: bug", 500, "engine_internal"),
    ] {
        let resp = client
            .post_json("/v1/infer", &[], &infer_body("bank", question))
            .expect("infer");
        assert_eq!(resp.status, status, "question {question}: {}", resp.body_str());
        assert_eq!(resp.error_code().as_deref(), Some(code), "question {question}");
    }
    let stats = gateway.shutdown();
    // Failures still resolve their tickets exactly once.
    assert_eq!(stats.infer_admitted, 5);
    assert_eq!(stats.infer_resolved, 5);
}

#[test]
fn auth_rate_limits_and_budgets_gate_the_router() {
    let tenants = vec![
        TenantSpec::new("acme", "sk-acme").with_rate(1000.0, 1000.0),
        // Negligible refill: only the burst of 2 admits, regardless of
        // how slowly the test machine issues the three requests.
        TenantSpec::new("tiny", "sk-tiny").with_rate(0.001, 2.0),
        TenantSpec::new("broke", "sk-broke").with_spend_budget_ms(1),
    ];
    let router = test_router(Duration::from_millis(5), &["acme", "tiny", "broke"]);
    let gateway = Gateway::start(router, fast_config(tenants)).expect("start");
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");

    // No key → 401; wrong key → 401.
    let anon = client
        .post_json("/v1/infer", &[], &infer_body("bank", "q"))
        .expect("anon");
    assert_eq!(anon.status, 401);
    assert_eq!(anon.error_code().as_deref(), Some("unauthorized"));
    let wrong = client
        .post_json("/v1/infer", &[("authorization", "Bearer nope")], &infer_body("bank", "q"))
        .expect("wrong");
    assert_eq!(wrong.status, 401);

    // Valid key works, via both header styles.
    let ok = client
        .post_json("/v1/infer", &[("authorization", "Bearer sk-acme")], &infer_body("bank", "q"))
        .expect("ok");
    assert_eq!(ok.status, 200, "{}", ok.body_str());
    assert_eq!(ok.data().expect("data").get("tenant").and_then(Json::as_str), Some("acme"));
    let ok2 = client
        .post_json("/v1/infer", &[("x-api-key", "sk-acme")], &infer_body("bank", "q2"))
        .expect("ok2");
    assert_eq!(ok2.status, 200);

    // Burst of 2 exhausts tiny's bucket; the third answer is a typed 429
    // with a Retry-After hint.
    let mut limited = 0;
    for i in 0..3 {
        let resp = client
            .post_json(
                "/v1/infer",
                &[("x-api-key", "sk-tiny")],
                &infer_body("bank", &format!("tiny q{i}")),
            )
            .expect("tiny");
        if resp.status == 429 {
            limited += 1;
            assert_eq!(resp.error_code().as_deref(), Some("rate_limited"));
            assert!(resp.header("retry-after").is_some(), "429 carries Retry-After");
        }
    }
    assert_eq!(limited, 1, "exactly the over-burst request is shed");

    // broke's 1ms budget dies after one real (non-cached) inference.
    let first = client
        .post_json("/v1/infer", &[("x-api-key", "sk-broke")], &infer_body("bank", "spendy"))
        .expect("first");
    assert_eq!(first.status, 200, "{}", first.body_str());
    let second = client
        .post_json("/v1/infer", &[("x-api-key", "sk-broke")], &infer_body("bank", "more"))
        .expect("second");
    assert_eq!(second.status, 429, "{}", second.body_str());
    assert_eq!(second.error_code().as_deref(), Some("budget_exhausted"));

    // Cached hits charge nothing: acme re-asking its warm question does
    // not move the spend needle for broke's separate account, and the
    // sheds show up in the gateway metrics.
    let metrics = client.get("/metrics", &[]).expect("metrics").body_str();
    assert!(metrics.contains("codes_gateway_shed_total{reason=\"rate_limited\"} 1"), "{metrics}");
    assert!(
        metrics.contains("codes_gateway_shed_total{reason=\"budget_exhausted\"} 1"),
        "{metrics}"
    );
    drop(gateway);
}

#[test]
fn keep_alive_and_pipelining_share_one_socket() {
    use std::io::{Read, Write};
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut stream = std::net::TcpStream::connect(gateway.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    // Two back-to-back requests in one write: both must answer, in order,
    // without the parser over-reading the second during the first.
    let one = b"GET /v1/health HTTP/1.1\r\nhost: x\r\n\r\n";
    let two = b"GET /metrics HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n";
    let mut wire = Vec::new();
    wire.extend_from_slice(one);
    wire.extend_from_slice(two);
    stream.write_all(&wire).expect("write");
    let mut all = Vec::new();
    stream.read_to_end(&mut all).expect("read");
    let text = String::from_utf8_lossy(&all);
    let responses = text.matches("HTTP/1.1 200").count();
    assert_eq!(responses, 2, "{text}");
    assert!(text.contains("codes_gateway_requests_total"), "{text}");
    drop(gateway);
}

#[test]
fn audit_journal_records_every_authenticated_attempt() {
    let dir = std::env::temp_dir().join("codes-gateway-basic-journal");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join(format!("audit-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let mut config = fast_config(vec![TenantSpec::new("acme", "sk-acme")]);
    config.journal_path = Some(path.clone());
    let router = test_router(Duration::from_millis(1), &["acme"]);
    let gateway = Gateway::start(router, config).expect("start");
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");

    let auth = [("x-api-key", "sk-acme")];
    assert_eq!(
        client.post_json("/v1/infer", &auth, &infer_body("bank", "q")).expect("ok").status,
        200
    );
    assert_eq!(
        client
            .post_json("/v1/infer", &auth, &infer_body("bank", "err:parse: x"))
            .expect("parse")
            .status,
        422
    );
    // Unauthenticated attempts never reach the journal.
    assert_eq!(
        client.post_json("/v1/infer", &[], &infer_body("bank", "q")).expect("anon").status,
        401
    );
    let stats = gateway.shutdown();
    assert_eq!(stats.journal_records, 2);

    let (_, records) = codes_gateway::AuditJournal::open(&path).expect("reopen journal");
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].code, "ok");
    assert_eq!(records[0].status, 200);
    assert_eq!(records[0].tenant, "acme");
    assert_eq!(records[1].code, "engine_parse");
    assert_eq!(records[1].status, 422);
    assert_eq!(records[0].seq + 1, records[1].seq);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn graceful_shutdown_drains_in_flight_and_refuses_new_work() {
    let router = test_router(Duration::from_millis(1), &[]);
    let gateway = Gateway::start(router, fast_config(Vec::new())).expect("start");
    let addr = gateway.local_addr();

    // Park several slow inferences in flight, then shut down while they
    // run: every one must still resolve with a real answer.
    let mut workers = Vec::new();
    for i in 0..4 {
        workers.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).expect("connect");
            client
                .post_json(
                    "/v1/infer",
                    &[],
                    &Json::Obj(vec![
                        ("db_id".to_string(), Json::Str("bank".to_string())),
                        ("question".to_string(), Json::Str(format!("sleep:300: q{i}"))),
                    ]),
                )
                .expect("in-flight infer answered through drain")
        }));
    }
    // Let the requests land before draining.
    std::thread::sleep(Duration::from_millis(100));
    let stats = gateway.shutdown();
    for worker in workers {
        let resp = worker.join().expect("client thread");
        assert_eq!(resp.status, 200, "drained request still answered: {}", resp.body_str());
    }
    assert_eq!(stats.infer_admitted, 4);
    assert_eq!(stats.infer_resolved, 4, "every in-flight ticket resolved before shutdown");
    assert_eq!(stats.responses, 4);

    // The listener is gone afterwards.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(300))
            .and_then(|mut s| {
                use std::io::Read;
                s.set_read_timeout(Some(Duration::from_millis(300)))?;
                let mut byte = [0u8; 1];
                let n = s.read(&mut byte)?;
                Ok(n == 0)
            })
            .unwrap_or(true),
        "post-shutdown connections refuse or close immediately"
    );
}

#[test]
fn attach_endpoint_introspects_live_databases() {
    use std::sync::Arc;

    use codes_storage::{
        CatalogService, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig,
    };
    use sqlengine::{Column, DataType, Database, TableSchema};

    let mut db = Database::new("shop");
    let table = db
        .create_table(TableSchema::new(
            "items",
            vec![
                Column::new("id", DataType::Integer).primary_key(),
                Column::new("label", DataType::Text),
            ],
        ))
        .expect("fresh table");
    table.insert(vec![1.into(), "anvil".into()]).expect("row fits");
    let backend = MemoryBackend::new(vec![db]);
    let store = backend.store();
    let pool = ConnectionPool::new(Arc::new(backend), PoolConfig::default());
    let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
    let router = test_router(Duration::from_millis(1), &[]);
    let gateway = Gateway::start_with_storage(router, fast_config(Vec::new()), service)
        .expect("gateway starts");
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");
    let attach_body =
        Json::Obj(vec![("db_id".to_string(), Json::Str("shop".to_string()))]);

    // Attaching a database the backend doesn't expose is a typed 404.
    let missing = client
        .post_json(
            "/v1/databases",
            &[],
            &Json::Obj(vec![("db_id".to_string(), Json::Str("nowhere".to_string()))]),
        )
        .expect("attach missing");
    assert_eq!(missing.status, 404, "body: {}", missing.body_str());
    assert_eq!(missing.error_code().as_deref(), Some("unknown_database"));

    // Attach the live database: full catalog counts plus the revision stamp.
    let first = client.post_json("/v1/databases", &[], &attach_body).expect("attach");
    assert_eq!(first.status, 200, "body: {}", first.body_str());
    let json = first.data().expect("attach data");
    assert_eq!(json.get("db_id").and_then(Json::as_str), Some("shop"));
    assert_eq!(json.get("tables").and_then(Json::as_i64), Some(1));
    assert_eq!(json.get("columns").and_then(Json::as_i64), Some(2));
    assert_eq!(json.get("values").and_then(Json::as_i64), Some(2));
    let rev0 = json.get("revision").and_then(Json::as_i64).expect("revision");

    // Mutate the live store; re-attaching observes the new revision.
    MemoryBackend::over(store)
        .mutate("shop", |db| {
            db.table_mut("items")
                .expect("items exists")
                .insert(vec![2.into(), "rope".into()])
                .expect("row fits");
        })
        .expect("shop exists");
    let second = client.post_json("/v1/databases", &[], &attach_body).expect("re-attach");
    assert_eq!(second.status, 200);
    let rev1 =
        second.data().expect("data").get("revision").and_then(Json::as_i64).expect("revision");
    assert_ne!(rev0, rev1, "a live mutation moves the attached revision stamp");

    // Wrong method and missing field are typed.
    let wrong_method = client.get("/v1/databases", &[]).expect("405");
    assert_eq!(wrong_method.status, 405);
    let no_db = client.request("POST", "/v1/databases", &[], b"{}").expect("400");
    assert_eq!(no_db.status, 400);
    gateway.shutdown();
}

#[test]
fn attach_without_storage_service_is_unimplemented() {
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");
    let resp = client
        .post_json(
            "/v1/databases",
            &[],
            &Json::Obj(vec![("db_id".to_string(), Json::Str("bank".to_string()))]),
        )
        .expect("attach");
    assert_eq!(resp.status, 501, "body: {}", resp.body_str());
    assert_eq!(resp.error_code().as_deref(), Some("not_implemented"));
    gateway.shutdown();
}

#[test]
fn storage_connect_failures_reach_the_wire_typed() {
    use std::sync::Arc;

    use codes_storage::{
        CatalogService, ConnectionPool, FaultSpec, FlakyBackend, IntrospectOptions,
        MemoryBackend, PoolConfig,
    };

    // Every connect refused: the attach surfaces as a retryable 503.
    let flaky = FlakyBackend::new(
        MemoryBackend::new(Vec::new()),
        FaultSpec { seed: 9, connect_fail: 1.0, ..FaultSpec::default() },
    );
    let pool = ConnectionPool::new(Arc::new(flaky), PoolConfig::default());
    let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
    let router = test_router(Duration::from_millis(1), &[]);
    let gateway = Gateway::start_with_storage(router, fast_config(Vec::new()), service)
        .expect("gateway starts");
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");
    let resp = client
        .post_json(
            "/v1/databases",
            &[],
            &Json::Obj(vec![("db_id".to_string(), Json::Str("shop".to_string()))]),
        )
        .expect("attach");
    assert_eq!(resp.status, 503, "body: {}", resp.body_str());
    assert_eq!(resp.error_code().as_deref(), Some("storage_connect"));
    assert!(resp.header("retry-after").is_some(), "connect refusals hint a retry");
    gateway.shutdown();
}

#[test]
fn streaming_infer_emits_lifecycle_events_in_order() {
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");

    let events: Vec<Json> = client
        .post_stream("/v1/infer?stream=1", &[], &infer_body("bank", "sleep:20: stream me"))
        .expect("stream starts")
        .collect::<Result<_, _>>()
        .expect("every event line decodes");
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").and_then(Json::as_str).expect("event name"))
        .collect();
    assert_eq!(names, ["queued", "dispatched", "generated", "result"], "{events:?}");
    for event in &events {
        assert_eq!(event.get("v").and_then(Json::as_i64), Some(1));
    }
    let result = events.last().and_then(|e| e.get("data")).expect("result data");
    assert_eq!(
        result.get("sql").and_then(Json::as_str),
        Some("SELECT 'sleep:20: stream me'"),
    );
    assert_eq!(result.get("cached").and_then(Json::as_bool), Some(false));

    // The connection survives a fully-read stream: keep-alive holds.
    let health = client.get("/v1/health", &[]).expect("keep-alive after stream");
    assert_eq!(health.status, 200);

    // Stream counters landed.
    let metrics = client.get("/metrics", &[]).expect("metrics");
    let text = metrics.body_str();
    assert!(
        text.contains("codes_gateway_stream_events_total{event=\"result\"} 1"),
        "{text}"
    );
    assert!(text.contains("codes_gateway_stream_flush_seconds"), "{text}");
    gateway.shutdown();
}

#[test]
fn streaming_result_event_matches_buffered_response_byte_for_byte() {
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");

    // Warm the cache so both reads below resolve from it with identical
    // latency/queue fields; only the request id should differ.
    let cold = client
        .post_json("/v1/infer", &[], &infer_body("bank", "byte identity"))
        .expect("cold infer");
    assert_eq!(cold.status, 200, "body: {}", cold.body_str());

    let buffered = client
        .post_json("/v1/infer", &[], &infer_body("bank", "byte identity"))
        .expect("buffered warm infer");
    assert_eq!(buffered.data().expect("data").get("cached").and_then(Json::as_bool), Some(true));

    let events: Vec<Json> = client
        .post_stream("/v1/infer", &[], &infer_body("bank", "byte identity"))
        .expect("stream starts")
        .collect::<Result<_, _>>()
        .expect("stream decodes");
    // Cache fast path: the router still queued the request, but no
    // dispatch/generate ever fires — straight to the terminal result.
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").and_then(Json::as_str).expect("event name"))
        .collect();
    assert_eq!(names, ["queued", "result"], "{events:?}");

    // Serialize both payloads through the one shared serializer and
    // normalize the per-request id: the bytes must match exactly.
    let normalize = |payload: &Json| -> String {
        let text = serde_json::to_string(payload).expect("serialize");
        let start = text.find("\"request_id\":").expect("request_id present");
        let digits_from = start + "\"request_id\":".len();
        let digits_len = text[digits_from..]
            .bytes()
            .take_while(|b| b.is_ascii_digit())
            .count();
        assert!(digits_len > 0, "numeric request id in {text}");
        format!("{}#{}", &text[..digits_from], &text[digits_from + digits_len..])
    };
    let buffered_data = buffered.data().expect("buffered data");
    let streamed_data = events.last().and_then(|e| e.get("data")).expect("streamed data").clone();
    assert_eq!(normalize(&buffered_data), normalize(&streamed_data));
    gateway.shutdown();
}

#[test]
fn streaming_failures_end_with_a_terminal_error_event() {
    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut client = HttpClient::connect(gateway.local_addr()).expect("connect");

    let events: Vec<Json> = client
        .post_stream("/v1/infer", &[], &infer_body("bank", "err:parse: boom"))
        .expect("stream starts")
        .collect::<Result<_, _>>()
        .expect("stream decodes");
    let names: Vec<&str> = events
        .iter()
        .map(|e| e.get("event").and_then(Json::as_str).expect("event name"))
        .collect();
    assert_eq!(names, ["queued", "dispatched", "error"], "{events:?}");
    let error = events.last().and_then(|e| e.get("error")).expect("error object");
    assert_eq!(error.get("code").and_then(Json::as_str), Some("engine_parse"));
    assert_eq!(error.get("retryable").and_then(Json::as_bool), Some(false));

    // Pre-admission rejections never start a stream: they come back as a
    // plain enveloped response the iterator yields once.
    let mut rejected = client
        .post_stream("/v1/infer", &[], &Json::Obj(vec![]))
        .expect("rejection head");
    assert_eq!(rejected.status, 400);
    let body = rejected.next().expect("one body").expect("decodes");
    assert!(rejected.next().is_none());
    assert_eq!(
        body.get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
        Some("bad_request"),
    );
    gateway.shutdown();
}

#[test]
fn chunked_request_bodies_are_decoded_end_to_end() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    use codes_gateway::encode_chunk;

    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let mut sock = TcpStream::connect(gateway.local_addr()).expect("connect");
    sock.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    sock.set_nodelay(true).expect("nodelay");

    let body = serde_json::to_string(&infer_body("bank", "chunked upload")).expect("encode");
    let bytes = body.as_bytes();
    let mid = bytes.len() / 2;
    let mut wire = b"POST /v1/infer HTTP/1.1\r\nhost: t\r\ncontent-type: application/json\r\n\
                     transfer-encoding: chunked\r\nconnection: close\r\n\r\n"
        .to_vec();
    wire.extend_from_slice(&encode_chunk(&bytes[..mid]));
    sock.write_all(&wire).expect("first half");
    sock.flush().expect("flush");
    // Let the gateway observe a genuinely split chunk stream.
    std::thread::sleep(Duration::from_millis(20));
    let mut rest = encode_chunk(&bytes[mid..]);
    rest.extend_from_slice(b"0\r\n\r\n");
    sock.write_all(&rest).expect("second half");

    let mut raw = Vec::new();
    sock.read_to_end(&mut raw).expect("connection: close drains the response");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 200"), "{text}");
    assert!(text.contains("SELECT 'chunked upload'"), "{text}");
    assert!(text.contains("\"v\":1"), "{text}");
    gateway.shutdown();
}

/// A refusal must survive the close that follows it. The whole over-budget
/// body is already in flight when the gateway refuses on the declared
/// length; closing over those unread bytes would answer RST and could wipe
/// the 413 out of the client's receive buffer before it is read.
#[test]
fn refusals_survive_an_over_budget_body_sent_in_one_write() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let gateway = start_gateway(fast_config(Vec::new()), &[]);
    let body = vec![b'x'; 256 * 1024];
    let mut wire =
        format!("POST /v1/infer HTTP/1.1\r\nhost: t\r\ncontent-length: {}\r\n\r\n", body.len())
            .into_bytes();
    wire.extend_from_slice(&body);
    for round in 0..50 {
        let mut sock = TcpStream::connect(gateway.local_addr()).expect("connect");
        sock.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        sock.write_all(&wire).expect("the gateway drains what it refuses");
        let mut raw = Vec::new();
        sock.read_to_end(&mut raw).expect("half-close ends the response cleanly");
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 413"), "round {round}: {text:?}");
        let (_, envelope) = text.split_once("\r\n\r\n").expect("head/body split");
        let envelope = serde_json::from_str(envelope).expect("complete JSON envelope");
        let code = envelope.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("body_too_large"), "round {round}: {text:?}");
    }
    gateway.shutdown();
}
