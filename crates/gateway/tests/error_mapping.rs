//! Exhaustive assertion of the DESIGN.md §4i error→HTTP mapping: every
//! `codes::Error` variant, every `sqlengine::Error` kind, and every
//! gateway `Reject` travels as exactly the documented `(status, code,
//! retry-after)` triple. A new variant that misses the table fails here,
//! not in production.

use std::time::Duration;

use codes_gateway::{map_serve_error, Reject};

/// Every engine error kind with a constructor, mirrored from
/// `sqlengine::Error::kind`.
fn engine_errors() -> Vec<sqlengine::Error> {
    let msg = || "x".to_string();
    vec![
        sqlengine::Error::Lex(msg()),
        sqlengine::Error::Parse(msg()),
        sqlengine::Error::Bind(msg()),
        sqlengine::Error::Catalog(msg()),
        sqlengine::Error::Type(msg()),
        sqlengine::Error::Exec(msg()),
        sqlengine::Error::Unsupported(msg()),
        sqlengine::Error::UnknownTable(msg()),
        sqlengine::Error::BudgetExceeded {
            resource: sqlengine::Resource::Time,
            spent: 2,
            limit: 1,
        },
        sqlengine::Error::Internal(msg()),
    ]
}

/// Every non-engine `codes::Error` variant. Updating the enum without
/// updating this list trips the exhaustiveness check below.
fn serve_errors() -> Vec<codes::Error> {
    vec![
        codes::Error::Overloaded { queue_depth: 8, capacity: 8 },
        codes::Error::CircuitOpen {
            db_id: "bank".to_string(),
            retry_after: Duration::from_millis(250),
        },
        codes::Error::DeadlineExceeded {
            queued: Duration::from_millis(120),
            budget: Duration::from_millis(100),
        },
        codes::Error::WorkerPanic("boom".to_string()),
        codes::Error::WorkerWedged { stalled: Duration::from_secs(1) },
        codes::Error::ShuttingDown,
        codes::Error::UnknownDatabase { db_id: "nowhere".to_string() },
        codes::Error::Storage(codes_storage::StorageError::Connect("refused".to_string())),
        codes::Error::Storage(codes_storage::StorageError::Introspect(
            "revision kept moving".to_string(),
        )),
        codes::Error::Storage(codes_storage::StorageError::Exhausted {
            capacity: 4,
            waited_ms: 2_000,
        }),
    ]
}

#[test]
fn serve_error_table_is_total_and_exact() {
    // (kind, expected status, expected code, has retry-after)
    let expected: &[(&str, u16, &str, bool)] = &[
        ("overloaded", 503, "overloaded", true),
        ("circuit_open", 503, "circuit_open", true),
        ("deadline", 504, "deadline", false),
        ("worker_panic", 500, "worker_panic", false),
        ("worker_wedged", 500, "worker_wedged", false),
        ("shutting_down", 503, "shutting_down", true),
        ("unknown_database", 404, "unknown_database", false),
        ("storage_connect", 503, "storage_connect", true),
        ("storage_introspect", 502, "storage_introspect", false),
        ("storage_exhausted", 503, "storage_exhausted", true),
    ];
    let errors = serve_errors();
    assert_eq!(errors.len(), expected.len(), "table and variant list in lockstep");
    for (err, (kind, status, code, retryable)) in errors.iter().zip(expected) {
        assert_eq!(err.kind(), *kind, "variant order matches table");
        let wire = map_serve_error(err);
        assert_eq!(wire.status, *status, "{kind}");
        assert_eq!(wire.code, *code, "{kind}");
        assert_eq!(wire.retry_after.is_some(), *retryable, "{kind}");
    }
    // The CircuitOpen hint is the breaker's, not a canned constant.
    let wire = map_serve_error(&errors[1]);
    assert_eq!(wire.retry_after, Some(Duration::from_millis(250)));
}

#[test]
fn engine_error_table_is_total_and_exact() {
    let expected: &[(&str, u16, &str)] = &[
        ("lex", 422, "engine_lex"),
        ("parse", 422, "engine_parse"),
        ("bind", 422, "engine_bind"),
        ("catalog", 422, "engine_catalog"),
        ("type", 422, "engine_type"),
        ("exec", 422, "engine_exec"),
        ("unsupported", 422, "engine_unsupported"),
        ("unknown_table", 404, "engine_unknown_table"),
        ("budget", 504, "engine_budget"),
        ("internal", 500, "engine_internal"),
    ];
    let errors = engine_errors();
    assert_eq!(errors.len(), expected.len(), "every engine kind is in the table");
    for (engine_err, (kind, status, code)) in errors.into_iter().zip(expected) {
        assert_eq!(engine_err.kind(), *kind, "variant order matches table");
        let wire = map_serve_error(&codes::Error::Engine(engine_err));
        assert_eq!(wire.status, *status, "engine kind {kind}");
        assert_eq!(wire.code, *code, "engine kind {kind}");
        assert!(wire.retry_after.is_none(), "engine failures carry no retry hint");
    }
}

#[test]
fn storage_failures_collapse_before_mapping() {
    // Engine, addressing, and shutdown failures surfaced *through* a
    // storage connection reuse the established variants (and their rows
    // above) — only storage-native failure modes get new codes.
    let engine = codes::Error::from(codes_storage::StorageError::Engine(
        sqlengine::Error::Parse("x".to_string()),
    ));
    assert_eq!(map_serve_error(&engine).code, "engine_parse");
    let unknown =
        codes::Error::from(codes_storage::StorageError::UnknownDatabase("n".to_string()));
    assert_eq!(map_serve_error(&unknown).code, "unknown_database");
    let closed = codes::Error::from(codes_storage::StorageError::Closed);
    assert_eq!(map_serve_error(&closed).code, "shutting_down");
}

#[test]
fn reject_table_is_total_and_exact() {
    // (reject, status, code, has retry-after)
    let cases: Vec<(Reject, u16, &str, bool)> = vec![
        (Reject::BadRequest("x".to_string()), 400, "bad_request", false),
        (Reject::Unauthorized, 401, "unauthorized", false),
        (
            Reject::RateLimited { retry_after: Duration::from_millis(300) },
            429,
            "rate_limited",
            true,
        ),
        (Reject::BudgetExhausted { spent_ms: 5, budget_ms: 4 }, 429, "budget_exhausted", false),
        (Reject::NotFound, 404, "not_found", false),
        (Reject::MethodNotAllowed, 405, "method_not_allowed", false),
        (Reject::Timeout { phase: "head" }, 408, "request_timeout", false),
        (Reject::BodyTooLarge { declared: 10, limit: 5 }, 413, "body_too_large", false),
        (Reject::HeadersTooLarge { limit: 5 }, 431, "headers_too_large", false),
        (Reject::Unimplemented("chunked"), 501, "not_implemented", false),
        (Reject::ConnectionLimit { open: 3, max: 3 }, 503, "connection_limit", true),
        (Reject::ShuttingDown, 503, "shutting_down", true),
    ];
    for (reject, status, code, retryable) in &cases {
        assert_eq!(reject.status(), *status, "{code}");
        assert_eq!(reject.code(), *code);
        assert_eq!(reject.retry_after().is_some(), *retryable, "{code}");
        // The rendered response matches its own classification and
        // carries the machine-readable code in the standard body shape.
        let response = reject.response();
        assert_eq!(response.status, *status, "{code}");
        let body = String::from_utf8(response.body.clone()).expect("utf-8 body");
        let json = serde_json::from_str(&body).expect("json body");
        assert_eq!(json.get("v").and_then(serde::Json::as_i64), Some(1), "{code}: envelope v");
        let error = json.get("error").expect("error object");
        assert_eq!(error.get("code").and_then(serde::Json::as_str), Some(*code));
        assert!(error.get("message").and_then(serde::Json::as_str).is_some(), "{code}");
        // `retryable` in the body tracks the Retry-After hint exactly,
        // and retry_after_ms appears iff the hint does.
        assert_eq!(
            error.get("retryable").and_then(serde::Json::as_bool),
            Some(*retryable),
            "{code}: envelope retryable flag"
        );
        assert_eq!(
            error.get("retry_after_ms").is_some(),
            *retryable,
            "{code}: retry_after_ms presence"
        );
        let has_header = response.headers.iter().any(|(name, _)| name == "retry-after");
        assert_eq!(has_header, *retryable, "{code}: Retry-After header presence");
    }
    // All codes distinct — no two failures are indistinguishable on the
    // wire.
    let codes: std::collections::HashSet<&str> = cases.iter().map(|(r, ..)| r.code()).collect();
    assert_eq!(codes.len(), cases.len());
}

#[test]
fn every_rendered_error_body_is_enveloped() {
    // The v1 envelope holds for serve-side and engine failures too, not
    // just edge rejects: `{"v":1,"error":{code,message,retryable}}` with
    // retryable mirroring the Retry-After hint.
    let mut all: Vec<codes::Error> = serve_errors();
    all.extend(engine_errors().into_iter().map(codes::Error::Engine));
    for err in &all {
        let wire = codes_gateway::map_serve_error(err);
        let response = codes_gateway::serve_error_response(err);
        let body = String::from_utf8(response.body.clone()).expect("utf-8 body");
        let json = serde_json::from_str(&body).expect("json body");
        assert_eq!(json.get("v").and_then(serde::Json::as_i64), Some(1), "{}", err.kind());
        let error = json.get("error").expect("error object");
        assert_eq!(error.get("code").and_then(serde::Json::as_str), Some(wire.code));
        assert_eq!(
            error.get("retryable").and_then(serde::Json::as_bool),
            Some(wire.retry_after.is_some()),
            "{}",
            err.kind()
        );
        assert_eq!(
            error.get("retry_after_ms").is_some(),
            wire.retry_after.is_some(),
            "{}",
            err.kind()
        );
    }
}

#[test]
fn status_codes_stay_within_documented_families() {
    // Client-caused failures are 4xx; service-side are 5xx; nothing maps
    // to a success status.
    for err in serve_errors() {
        let wire = map_serve_error(&err);
        assert!((400..600).contains(&wire.status), "{}: {}", err.kind(), wire.status);
    }
    for engine_err in engine_errors() {
        let wire = map_serve_error(&codes::Error::Engine(engine_err));
        assert!((400..600).contains(&wire.status), "{}", wire.status);
    }
}

#[test]
fn failure_responses_are_byte_stable() {
    // The failure path's wire contract in full: status, `retry-after`
    // header and every body byte (message text included) for each kind in
    // the two tables above, in table order.
    let golden: &[(u16, Option<&str>, &str)] = &[
        (503, Some("1"), r#"{"v":1,"error":{"code":"overloaded","message":"overloaded: admission queue full (8/8)","retryable":true,"retry_after_ms":1000}}"#),
        (503, Some("1"), r#"{"v":1,"error":{"code":"circuit_open","message":"circuit open for 'bank': retry in 250ms","retryable":true,"retry_after_ms":250}}"#),
        (504, None, r#"{"v":1,"error":{"code":"deadline","message":"deadline exceeded while queued (120ms of a 100ms budget)","retryable":false}}"#),
        (500, None, r#"{"v":1,"error":{"code":"worker_panic","message":"worker panicked: boom","retryable":false}}"#),
        (500, None, r#"{"v":1,"error":{"code":"worker_wedged","message":"worker wedged (no heartbeat for 1s)","retryable":false}}"#),
        (503, Some("1"), r#"{"v":1,"error":{"code":"shutting_down","message":"pool shutting down","retryable":true,"retry_after_ms":1000}}"#),
        (404, None, r#"{"v":1,"error":{"code":"unknown_database","message":"unknown database 'nowhere': not served by this pool","retryable":false}}"#),
        (503, Some("1"), r#"{"v":1,"error":{"code":"storage_connect","message":"storage failed: storage connection failed: refused","retryable":true,"retry_after_ms":1000}}"#),
        (502, None, r#"{"v":1,"error":{"code":"storage_introspect","message":"storage failed: introspection failed: revision kept moving","retryable":false}}"#),
        (503, Some("1"), r#"{"v":1,"error":{"code":"storage_exhausted","message":"storage failed: connection pool exhausted: all 4 connections busy for 2000ms","retryable":true,"retry_after_ms":1000}}"#),
        (422, None, r#"{"v":1,"error":{"code":"engine_lex","message":"inference failed: lex error: x","retryable":false}}"#),
        (422, None, r#"{"v":1,"error":{"code":"engine_parse","message":"inference failed: parse error: x","retryable":false}}"#),
        (422, None, r#"{"v":1,"error":{"code":"engine_bind","message":"inference failed: bind error: x","retryable":false}}"#),
        (422, None, r#"{"v":1,"error":{"code":"engine_catalog","message":"inference failed: catalog error: x","retryable":false}}"#),
        (422, None, r#"{"v":1,"error":{"code":"engine_type","message":"inference failed: type error: x","retryable":false}}"#),
        (422, None, r#"{"v":1,"error":{"code":"engine_exec","message":"inference failed: execution error: x","retryable":false}}"#),
        (422, None, r#"{"v":1,"error":{"code":"engine_unsupported","message":"inference failed: unsupported: x","retryable":false}}"#),
        (404, None, r#"{"v":1,"error":{"code":"engine_unknown_table","message":"inference failed: unknown table: x","retryable":false}}"#),
        (504, None, r#"{"v":1,"error":{"code":"engine_budget","message":"inference failed: budget exceeded: time (2 spent, limit 1)","retryable":false}}"#),
        (500, None, r#"{"v":1,"error":{"code":"engine_internal","message":"inference failed: internal error: x","retryable":false}}"#),
    ];
    let mut all: Vec<codes::Error> = serve_errors();
    all.extend(engine_errors().into_iter().map(codes::Error::Engine));
    assert_eq!(all.len(), golden.len(), "one golden row per kind");
    for (err, (status, retry_after, body)) in all.iter().zip(golden) {
        let response = codes_gateway::serve_error_response(err);
        assert_eq!(response.status, *status, "{}", err.kind());
        let header = response
            .headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .map(|(_, value)| value.as_str());
        assert_eq!(header, *retry_after, "{}", err.kind());
        assert_eq!(String::from_utf8_lossy(&response.body), *body, "{}", err.kind());
    }
}
