//! The gateway server: accept loop, per-connection protocol driving with
//! slowloris budgets, request routing, and graceful drain.
//!
//! ## Threading model
//!
//! One accept thread plus one thread per open connection, bounded by
//! [`GatewayConfig::max_connections`] — the cap is enforced *before* a
//! handler thread spawns, and an over-cap connection receives a typed
//! `503 connection_limit` response instead of languishing in the accept
//! queue until the kernel collapses it. Handler threads block on the
//! router ticket while a request is in flight; that is the backpressure
//! path, and it is bounded by the connection cap.
//!
//! ## Network fault tolerance
//!
//! * **Slowloris** — reading a request is budgeted in both bytes
//!   ([`ParseLimits`]) and time ([`GatewayConfig::head_budget`] /
//!   [`GatewayConfig::body_budget`], enforced in
//!   [`GatewayConfig::read_slice`]-sized timeout slices). A client that
//!   trickles header bytes forever gets a typed `408` and its socket
//!   closed.
//! * **Half-open sockets** — a connection that never sends a byte is
//!   closed after [`GatewayConfig::idle_keep_alive`]; one that dies
//!   mid-request is detected by the zero-byte read and counted under
//!   `codes_gateway_client_gone_total{phase="request"}`.
//! * **Torn uploads** — a disconnect mid-body resolves the same way; the
//!   partially received request is dropped without ever reaching the
//!   router.
//! * **Slow readers** — response writes carry
//!   [`GatewayConfig::write_timeout`]; a client that stops draining its
//!   receive window is abandoned
//!   (`codes_gateway_client_gone_total{phase="response"}`), and the
//!   already-resolved outcome stays journaled exactly once.
//!
//! ## Graceful drain
//!
//! [`Gateway::shutdown`] stops accepting (pending accept-queue entries
//! are answered with `503 shutting_down`), lets every in-flight request
//! resolve through the router, joins every connection thread, and leaves
//! the audit journal flushed. Idle keep-alive connections notice the
//! drain flag within one read slice and close; mid-request connections
//! are bounded by the read budgets plus the inference deadline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codes::InferenceRequest;
use codes_router::Router;
use codes_serve::pool::{Outcome, Ticket};
use codes_serve::progress::{Progress, ProgressSink};
use codes_serve::ServedInference;
use parking_lot::Mutex;
use serde::Json;

use crate::auth::{AuthTable, TenantAccount, TenantSpec};
use crate::envelope;
use crate::error::{error_response, map_serve_error, serve_error_response, Reject, WireError};
use crate::http::{ChunkedWriter, HttpRequest, HttpResponse, ParseLimits, RequestParser};
use crate::journal::{AuditJournal, AuditRecord};
use crate::metrics::{EdgeShed, GatewayMetrics};

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Gateway::local_addr`]).
    pub bind_addr: String,
    /// Global open-connection cap; connection `max_connections + 1` is
    /// answered with a typed `503 connection_limit` and closed.
    pub max_connections: usize,
    /// Socket read-timeout slice: the granularity at which read budgets
    /// and the shutdown flag are checked while waiting for bytes.
    pub read_slice: Duration,
    /// Budget for writing a response to a slow reader before the client
    /// is abandoned.
    pub write_timeout: Duration,
    /// Time budget from a request's first byte to a complete head.
    pub head_budget: Duration,
    /// Time budget from the end of the head to a complete body.
    pub body_budget: Duration,
    /// How long an idle keep-alive connection may sit between requests.
    pub idle_keep_alive: Duration,
    /// Byte budgets for request heads and bodies.
    pub limits: ParseLimits,
    /// Tenant table; empty runs the gateway open (all traffic under an
    /// implicit `"default"` tenant, no rate limits or budgets).
    pub tenants: Vec<TenantSpec>,
    /// Audit journal path; `None` disables journaling.
    pub journal_path: Option<PathBuf>,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            max_connections: 256,
            read_slice: Duration::from_millis(25),
            write_timeout: Duration::from_secs(2),
            head_budget: Duration::from_secs(2),
            body_budget: Duration::from_secs(5),
            idle_keep_alive: Duration::from_secs(10),
            limits: ParseLimits::default(),
            tenants: Vec::new(),
            journal_path: None,
        }
    }
}

/// Why the gateway failed to start.
#[derive(Debug)]
pub enum StartError {
    /// Could not bind the listener.
    Bind(std::io::Error),
    /// Could not open (or heal) the audit journal.
    Journal(codes_obs::JournalError),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartError::Bind(e) => write!(f, "bind failed: {e}"),
            StartError::Journal(e) => write!(f, "journal open failed: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// Lifetime gateway counters, snapshotted by [`Gateway::stats`] and
/// returned by [`Gateway::shutdown`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Connections accepted and handled.
    pub accepted_connections: u64,
    /// Connections shed at the cap (or during drain).
    pub shed_connections: u64,
    /// Requests routed to a handler.
    pub requests: u64,
    /// Authenticated `/v1/infer` attempts (journaled).
    pub infer_requests: u64,
    /// Infer attempts that produced a router ticket.
    pub infer_admitted: u64,
    /// Router tickets that resolved (success or typed failure). Equal to
    /// `infer_admitted` once drained — the exactly-once invariant.
    pub infer_resolved: u64,
    /// Responses fully written to clients.
    pub responses: u64,
    /// Clients that vanished mid-request or stopped reading mid-response.
    pub client_gone: u64,
    /// Audit records written this process.
    pub journal_records: u64,
}

#[derive(Default)]
struct StatCells {
    accepted_connections: AtomicU64,
    shed_connections: AtomicU64,
    requests: AtomicU64,
    infer_requests: AtomicU64,
    infer_admitted: AtomicU64,
    infer_resolved: AtomicU64,
    responses: AtomicU64,
    client_gone: AtomicU64,
    journal_records: AtomicU64,
}

struct Inner {
    router: Arc<Router>,
    /// Storage-backed catalog service for `POST /v1/databases` (live
    /// attach-by-introspection). `None` when the gateway was started
    /// without one — the endpoint then answers `501 not_implemented`.
    catalogs: Option<Arc<codes_storage::CatalogService>>,
    config: GatewayConfig,
    auth: AuthTable,
    metrics: GatewayMetrics,
    registry: Arc<codes_obs::Registry>,
    addr: SocketAddr,
    started: Instant,
    shutdown: AtomicBool,
    open_conns: AtomicUsize,
    infer_seq: AtomicU64,
    journal: Option<Mutex<AuditJournal>>,
    conns: Mutex<Vec<JoinHandle<()>>>,
    stats: StatCells,
}

/// The HTTP/JSON front door over a [`Router`]. Construction via
/// [`Gateway::start`]; see the module docs for the robustness model.
pub struct Gateway {
    inner: Arc<Inner>,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl Gateway {
    /// Bind, open the audit journal (healing any torn tail), and start
    /// accepting. Metrics land in the router's registry, so the gateway's
    /// own `/metrics` endpoint serves the full stack's series.
    pub fn start(router: Arc<Router>, config: GatewayConfig) -> Result<Gateway, StartError> {
        Gateway::start_inner(router, config, None)
    }

    /// [`Gateway::start`] plus a storage-backed catalog service, enabling
    /// `POST /v1/databases`: attach a database by id, introspect its
    /// schema and representative values over a pooled connection, and
    /// serve it immediately — no redeploy, no hand-registered catalog.
    pub fn start_with_storage(
        router: Arc<Router>,
        config: GatewayConfig,
        catalogs: Arc<codes_storage::CatalogService>,
    ) -> Result<Gateway, StartError> {
        Gateway::start_inner(router, config, Some(catalogs))
    }

    fn start_inner(
        router: Arc<Router>,
        config: GatewayConfig,
        catalogs: Option<Arc<codes_storage::CatalogService>>,
    ) -> Result<Gateway, StartError> {
        let listener = TcpListener::bind(&config.bind_addr).map_err(StartError::Bind)?;
        let addr = listener.local_addr().map_err(StartError::Bind)?;
        let journal = match &config.journal_path {
            Some(path) => {
                let (journal, _history) =
                    AuditJournal::open(path).map_err(StartError::Journal)?;
                Some(Mutex::new(journal))
            }
            None => None,
        };
        let registry = Arc::clone(router.registry());
        let inner = Arc::new(Inner {
            auth: AuthTable::new(&config.tenants),
            metrics: GatewayMetrics::new(&registry),
            registry,
            router,
            catalogs,
            config,
            addr,
            started: Instant::now(),
            shutdown: AtomicBool::new(false),
            open_conns: AtomicUsize::new(0),
            infer_seq: AtomicU64::new(0),
            journal,
            conns: Mutex::new(Vec::new()),
            stats: StatCells::default(),
        });
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("gateway-accept".to_string())
                .spawn(move || accept_loop(&inner, &listener))
                .expect("spawn gateway accept thread")
        };
        Ok(Gateway { inner, accept: Mutex::new(Some(accept)) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The router behind this gateway.
    pub fn router(&self) -> &Arc<Router> {
        &self.inner.router
    }

    /// The metrics registry served by `/metrics`.
    pub fn registry(&self) -> &Arc<codes_obs::Registry> {
        &self.inner.registry
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> GatewayStats {
        let s = &self.inner.stats;
        GatewayStats {
            accepted_connections: s.accepted_connections.load(Ordering::Relaxed),
            shed_connections: s.shed_connections.load(Ordering::Relaxed),
            requests: s.requests.load(Ordering::Relaxed),
            infer_requests: s.infer_requests.load(Ordering::Relaxed),
            infer_admitted: s.infer_admitted.load(Ordering::Relaxed),
            infer_resolved: s.infer_resolved.load(Ordering::Relaxed),
            responses: s.responses.load(Ordering::Relaxed),
            client_gone: s.client_gone.load(Ordering::Relaxed),
            journal_records: s.journal_records.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting, drain every in-flight request through the router,
    /// join every connection thread, and leave the journal flushed. The
    /// router itself is **not** shut down — it may front other gateways;
    /// shut it down separately once every front door is gone.
    pub fn shutdown(self) -> GatewayStats {
        self.stop();
        self.stats()
    }

    /// Idempotent teardown shared by [`Gateway::shutdown`] and `Drop`.
    fn stop(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop: a throwaway local connection makes the
        // blocking `accept()` return so it can observe the flag.
        let _ = TcpStream::connect(self.inner.addr);
        if let Some(accept) = self.accept.lock().take() {
            let _ = accept.join();
        }
        let conns = std::mem::take(&mut *self.inner.conns.lock());
        for handle in conns {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.shutdown.load(Ordering::SeqCst) {
            // Drain whatever else is sitting in the accept queue with a
            // typed 503, then exit. Non-blocking so an empty queue ends
            // the loop instead of waiting forever.
            refuse(inner, stream, &Reject::ShuttingDown, EdgeShed::ShuttingDown);
            let _ = listener.set_nonblocking(true);
            while let Ok((stream, _)) = listener.accept() {
                refuse(inner, stream, &Reject::ShuttingDown, EdgeShed::ShuttingDown);
            }
            return;
        }
        let open = inner.open_conns.load(Ordering::SeqCst);
        if open >= inner.config.max_connections {
            refuse(
                inner,
                stream,
                &Reject::ConnectionLimit { open, max: inner.config.max_connections },
                EdgeShed::ConnectionLimit,
            );
            continue;
        }
        inner.open_conns.fetch_add(1, Ordering::SeqCst);
        inner.metrics.open_connections.add(1);
        inner.metrics.connections.inc();
        inner.stats.accepted_connections.fetch_add(1, Ordering::Relaxed);
        let handle = {
            let inner = Arc::clone(inner);
            std::thread::Builder::new()
                .name("gateway-conn".to_string())
                .spawn(move || {
                    handle_connection(&inner, stream);
                    inner.open_conns.fetch_sub(1, Ordering::SeqCst);
                    inner.metrics.open_connections.add(-1);
                })
                .expect("spawn gateway connection thread")
        };
        // Reap finished handlers so the handle list stays bounded by the
        // connection cap, not by connection churn.
        let mut conns = inner.conns.lock();
        let mut keep = Vec::with_capacity(conns.len() + 1);
        for old in conns.drain(..) {
            if old.is_finished() {
                let _ = old.join();
            } else {
                keep.push(old);
            }
        }
        keep.push(handle);
        *conns = keep;
    }
}

/// Best-effort typed refusal for a connection that never gets a handler
/// thread (cap shed or drain). Short write timeout: a refusal is not
/// worth waiting on.
fn refuse(inner: &Arc<Inner>, mut stream: TcpStream, reject: &Reject, shed: EdgeShed) {
    inner.metrics.shed(shed).inc();
    inner.stats.shed_connections.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let _ = stream.write_all(&reject.response().encode(true));
}

/// Most request bytes discarded after a refusal before closing anyway.
const REFUSAL_DRAIN_BYTES: usize = 1 << 20;
/// Longest a refused connection may hold its handler while draining.
const REFUSAL_DRAIN_TIME: Duration = Duration::from_millis(500);

/// Close a connection whose request was refused mid-read without losing
/// the refusal. Closing with request bytes still unread makes the kernel
/// answer RST, and an RST can discard the response out of the client's
/// receive buffer before it is read. So: half-close (the client sees the
/// complete response, then EOF), and discard what is still inbound until
/// the client closes or a cap is hit.
fn drain_refused(mut stream: &TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + REFUSAL_DRAIN_TIME;
    let mut discarded = 0usize;
    let mut buf = [0u8; 4096];
    while discarded < REFUSAL_DRAIN_BYTES && Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => discarded += n,
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
                | std::io::ErrorKind::Interrupted => {}
                _ => return,
            },
        }
    }
}

/// What one attempt to read a request off the socket produced.
enum ReadOutcome {
    /// A complete request.
    Request(HttpRequest),
    /// Clean close (or idle timeout / drain) between requests.
    IdleClosed,
    /// The peer vanished mid-request (half-open socket, torn upload).
    ClientGone,
    /// A protocol violation or a blown read budget, with the response to
    /// attempt before closing.
    Reject(Reject),
}

/// Requests served per connection before the gateway closes it
/// (resource-leak hygiene under very long-lived clients).
const MAX_REQUESTS_PER_CONNECTION: usize = 1024;

fn handle_connection(inner: &Arc<Inner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(inner.config.read_slice));
    let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
    let mut parser = RequestParser::new(inner.config.limits);
    let mut served = 0usize;
    loop {
        match read_one_request(inner, &stream, &mut parser) {
            ReadOutcome::Request(request) => {
                served += 1;
                let close = request.head.wants_close()
                    || served >= MAX_REQUESTS_PER_CONNECTION
                    || inner.shutdown.load(Ordering::SeqCst);
                if wants_stream(&request.head) {
                    // Streaming bypasses the buffered-response path: the
                    // handler owns the socket until the final event.
                    inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                    inner.metrics.request("infer_stream").inc();
                    let started = Instant::now();
                    let keep = handle_infer_stream(inner, &stream, &request, close);
                    inner.metrics.duration("infer_stream").record(started.elapsed());
                    if !keep || close {
                        return;
                    }
                    continue;
                }
                let (endpoint, response) = route(inner, &request);
                inner.stats.requests.fetch_add(1, Ordering::Relaxed);
                inner.metrics.request(endpoint).inc();
                if !write_response(inner, &stream, &response, close) || close {
                    return;
                }
            }
            ReadOutcome::IdleClosed => return,
            ReadOutcome::ClientGone => {
                inner.metrics.client_gone("request").inc();
                inner.stats.client_gone.fetch_add(1, Ordering::Relaxed);
                return;
            }
            ReadOutcome::Reject(reject) => {
                inner.metrics.protocol_error(reject.code()).inc();
                if write_response(inner, &stream, &reject.response(), true) {
                    drain_refused(&stream);
                }
                return;
            }
        }
    }
}

/// Read one request under the byte and time budgets. Timeout slices are
/// the socket read timeout; every slice re-checks budgets and the drain
/// flag, so nothing here can block unboundedly.
fn read_one_request(
    inner: &Arc<Inner>,
    mut stream: &TcpStream,
    parser: &mut RequestParser,
) -> ReadOutcome {
    // A pipelined request may be fully buffered already.
    match parser.advance() {
        Ok(Some(request)) => return ReadOutcome::Request(request),
        Ok(None) => {}
        Err(e) => return ReadOutcome::Reject(e.into()),
    }
    let now = Instant::now();
    let idle_deadline = now + inner.config.idle_keep_alive;
    let mut request_deadline =
        if parser.mid_request() { Some(now + inner.config.head_budget) } else { None };
    let mut in_body = parser.in_body();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                return if parser.mid_request() {
                    ReadOutcome::ClientGone
                } else {
                    ReadOutcome::IdleClosed
                };
            }
            Ok(n) => match parser.feed(&buf[..n]) {
                Ok(Some(request)) => return ReadOutcome::Request(request),
                Ok(None) => {
                    if request_deadline.is_none() {
                        request_deadline = Some(Instant::now() + inner.config.head_budget);
                    }
                    if parser.in_body() && !in_body {
                        in_body = true;
                        request_deadline = Some(Instant::now() + inner.config.body_budget);
                    }
                }
                Err(e) => return ReadOutcome::Reject(e.into()),
            },
            Err(e) => match e.kind() {
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {}
                std::io::ErrorKind::Interrupted => continue,
                _ => {
                    return if parser.mid_request() {
                        ReadOutcome::ClientGone
                    } else {
                        ReadOutcome::IdleClosed
                    };
                }
            },
        }
        let now = Instant::now();
        match request_deadline {
            Some(deadline) => {
                if now >= deadline {
                    return ReadOutcome::Reject(Reject::Timeout {
                        phase: if parser.in_body() { "body" } else { "head" },
                    });
                }
            }
            None => {
                // Between requests: an idle connection closes silently on
                // drain or idle timeout — there is nothing to answer.
                if inner.shutdown.load(Ordering::SeqCst) || now >= idle_deadline {
                    return ReadOutcome::IdleClosed;
                }
            }
        }
    }
}

fn write_response(
    inner: &Arc<Inner>,
    mut stream: &TcpStream,
    response: &HttpResponse,
    close: bool,
) -> bool {
    match stream.write_all(&response.encode(close)).and_then(|()| stream.flush()) {
        Ok(()) => {
            inner.metrics.response(response.status).inc();
            inner.stats.responses.fetch_add(1, Ordering::Relaxed);
            true
        }
        Err(_) => {
            // Slow reader or vanished peer: the outcome (if any) is
            // already journaled; the transport just could not carry it.
            inner.metrics.client_gone("response").inc();
            inner.stats.client_gone.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Split a request target into `(path, query)`; the query is empty when
/// absent.
fn split_target(target: &str) -> (&str, &str) {
    match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    }
}

/// True when the query carries `name` as a truthy flag (`name=1`,
/// `name=true`, or bare `name`).
fn query_flag(query: &str, name: &str) -> bool {
    query.split('&').any(|pair| {
        let (key, value) = match pair.split_once('=') {
            Some((key, value)) => (key, value),
            None => (pair, "1"),
        };
        key == name && matches!(value, "1" | "true")
    })
}

/// True when this request selects the streaming infer path: `POST
/// /v1/infer` with `?stream=1` or `Accept: application/x-ndjson`.
fn wants_stream(head: &crate::http::RequestHead) -> bool {
    let (path, query) = split_target(&head.target);
    head.method == "POST"
        && path == "/v1/infer"
        && (query_flag(query, "stream")
            || head.header("accept").is_some_and(|a| a.contains("application/x-ndjson")))
}

/// Dispatch one parsed request to its handler. Returns the endpoint
/// label (for metrics) and the response.
fn route(inner: &Arc<Inner>, request: &HttpRequest) -> (&'static str, HttpResponse) {
    let started = Instant::now();
    let (path, _query) = split_target(&request.head.target);
    let (endpoint, response) = match (request.head.method.as_str(), path) {
        ("GET", "/v1/health") => ("health", health_response(inner)),
        ("GET", "/metrics") => {
            ("metrics", HttpResponse::text(200, inner.registry.render_prometheus()))
        }
        ("POST", "/v1/infer") => ("infer", handle_infer(inner, request)),
        ("POST", "/v1/invalidate") => ("invalidate", handle_invalidate(inner, request)),
        ("POST", "/v1/databases") => ("databases", handle_attach(inner, request)),
        (_, "/v1/health" | "/metrics" | "/v1/infer" | "/v1/invalidate" | "/v1/databases") => {
            ("other", Reject::MethodNotAllowed.response())
        }
        _ => ("other", Reject::NotFound.response()),
    };
    inner.metrics.duration(endpoint).record(started.elapsed());
    (endpoint, response)
}

fn health_response(inner: &Arc<Inner>) -> HttpResponse {
    let health = inner.router.health();
    let shards: Vec<Json> = health
        .shards
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("index".to_string(), Json::Int(s.index as i64)),
                ("active".to_string(), Json::Bool(s.active)),
                ("draining".to_string(), Json::Bool(s.draining)),
                ("router_depth".to_string(), Json::Int(s.router_depth as i64)),
                ("queue_depth".to_string(), Json::Int(s.pool.queue_depth as i64)),
                ("in_flight".to_string(), Json::Int(s.pool.in_flight as i64)),
            ])
        })
        .collect();
    let tenants: Vec<Json> = health
        .tenants
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(t.name.clone())),
                ("weight".to_string(), Json::Int(t.weight as i64)),
                ("submitted".to_string(), Json::Int(t.submitted as i64)),
            ])
        })
        .collect();
    let draining = inner.shutdown.load(Ordering::SeqCst);
    let ready = health.ready && !draining;
    let body = Json::Obj(vec![
        ("ready".to_string(), Json::Bool(ready)),
        ("draining".to_string(), Json::Bool(draining)),
        ("shards".to_string(), Json::Arr(shards)),
        ("tenants".to_string(), Json::Arr(tenants)),
        ("router_depth".to_string(), Json::Int(health.router_depth as i64)),
        ("completed".to_string(), Json::Int(health.aggregated.completed as i64)),
        ("failed".to_string(), Json::Int(health.aggregated.failed as i64)),
        (
            "served_from_cache".to_string(),
            Json::Int(health.aggregated.served_from_cache as i64),
        ),
        (
            "open_connections".to_string(),
            Json::Int(inner.open_conns.load(Ordering::SeqCst) as i64),
        ),
        ("infer_in_flight".to_string(), Json::Int(inner.metrics.in_flight.get())),
    ]);
    HttpResponse::json(if ready { 200 } else { 503 }, &envelope::success(body))
}

/// The authenticated tenant for a request, or the implicit open-mode
/// default when no tenants are configured.
fn authenticate<'a>(
    inner: &'a Arc<Inner>,
    request: &HttpRequest,
) -> Result<Option<&'a Arc<TenantAccount>>, Reject> {
    if inner.auth.is_empty() {
        return Ok(None);
    }
    inner.auth.authenticate(&request.head).map(Some)
}

/// A request body as JSON.
fn json_body(body: &[u8]) -> Result<Json, Reject> {
    let text = std::str::from_utf8(body)
        .map_err(|_| Reject::BadRequest("body is not valid UTF-8".to_string()))?;
    serde_json::from_str(text).map_err(|e| Reject::BadRequest(format!("invalid JSON: {e}")))
}

/// Upper clamp on the client-supplied `deadline_ms`.
const MAX_DEADLINE: Duration = Duration::from_secs(30);

/// Parse the infer body. Required: `db_id`, `question`; optional:
/// `external_knowledge`, `deadline_ms`.
fn parse_infer_body(body: &[u8]) -> Result<InferenceRequest, Reject> {
    let json = json_body(body)?;
    let str_field = |name: &str| -> Result<String, Reject> {
        json.get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| Reject::BadRequest(format!("missing required string field '{name}'")))
    };
    let mut request = InferenceRequest::new(str_field("db_id")?, str_field("question")?);
    match json.get("external_knowledge") {
        None => {}
        Some(value) if value.is_null() => {}
        Some(value) => {
            let knowledge = value.as_str().ok_or_else(|| {
                Reject::BadRequest("'external_knowledge' must be a string".to_string())
            })?;
            request = request.with_knowledge(knowledge);
        }
    }
    match json.get("deadline_ms") {
        None => {}
        Some(value) if value.is_null() => {}
        Some(value) => {
            let ms = value.as_i64().filter(|ms| *ms > 0).ok_or_else(|| {
                Reject::BadRequest("'deadline_ms' must be a positive integer".to_string())
            })?;
            request = request.with_deadline(Duration::from_millis(ms as u64).min(MAX_DEADLINE));
        }
    }
    Ok(request)
}

/// An infer attempt past admission: everything `settle_infer` needs to
/// resolve it exactly once (audit + outcome counter + spend charge).
struct InferCtx {
    ticket: Ticket,
    db_id: String,
    tenant: String,
    account: Option<Arc<TenantAccount>>,
    seq: u64,
    started: Instant,
}

/// What the admission pipeline produced for one infer attempt.
enum InferAdmission {
    /// Rejected (or failed) before a ticket existed; the response is
    /// final and already audited where attributable.
    Immediate(HttpResponse),
    /// Admitted to the router; the caller owns the wait and must call
    /// `settle_infer` with the outcome.
    Admitted(Box<InferCtx>),
}

/// The shared front half of `/v1/infer`: auth, quota, body parse, and
/// router submission — identical for the buffered and streaming paths,
/// so the two cannot drift. `progress` (streaming only) is threaded to
/// the router/pool for lifecycle notifications.
fn admit_infer(
    inner: &Arc<Inner>,
    request: &HttpRequest,
    progress: Option<Arc<dyn ProgressSink>>,
) -> InferAdmission {
    let account = match authenticate(inner, request) {
        Ok(account) => account.cloned(),
        Err(reject) => return InferAdmission::Immediate(reject.response()),
    };
    let tenant = account.as_ref().map_or("default", |a| a.name.as_str()).to_string();
    // From here the attempt is attributable to a tenant: every path below
    // records exactly one audit record and one outcome counter.
    inner.stats.infer_requests.fetch_add(1, Ordering::Relaxed);
    let seq = inner.infer_seq.fetch_add(1, Ordering::SeqCst);
    let started = Instant::now();
    let finish = |db_id: &str, status: u16, code: &str| {
        inner.metrics.infer_outcome(code).inc();
        audit(inner, seq, &tenant, db_id, status, code, started.elapsed(), false);
    };

    if inner.shutdown.load(Ordering::SeqCst) {
        let reject = Reject::ShuttingDown;
        inner.metrics.shed(EdgeShed::ShuttingDown).inc();
        finish("", reject.status(), reject.code());
        return InferAdmission::Immediate(reject.response());
    }
    // Quota checks before anything reaches the router: the DRR queues
    // only ever see in-quota traffic.
    if let Some(account) = &account {
        let now_ns = inner.started.elapsed().as_nanos() as u64;
        if let Err(reject) = account.admit(now_ns) {
            match &reject {
                Reject::RateLimited { .. } => inner.metrics.shed(EdgeShed::RateLimited).inc(),
                _ => inner.metrics.shed(EdgeShed::BudgetExhausted).inc(),
            }
            finish("", reject.status(), reject.code());
            return InferAdmission::Immediate(reject.response());
        }
    }
    let infer_request = match parse_infer_body(&request.body) {
        Ok(parsed) => parsed,
        Err(reject) => {
            finish("", reject.status(), reject.code());
            return InferAdmission::Immediate(reject.response());
        }
    };
    let db_id = infer_request.db_id.clone();
    let ticket = match inner.router.submit_as_with_progress(&tenant, infer_request, progress) {
        Ok(ticket) => ticket,
        Err(e) => {
            let mapped = map_serve_error(&e);
            finish(&db_id, mapped.status, mapped.code);
            return InferAdmission::Immediate(serve_error_response(&e));
        }
    };
    inner.stats.infer_admitted.fetch_add(1, Ordering::Relaxed);
    inner.metrics.in_flight.add(1);
    InferAdmission::Admitted(Box::new(InferCtx { ticket, db_id, tenant, account, seq, started }))
}

/// The success payload for one served inference — the *one* place it is
/// built, so the streaming `result` event's `data` and the buffered
/// response's `data` are byte-identical by construction.
fn served_payload(served: &ServedInference, tenant: &str) -> Json {
    let degradations = served.degradations.iter().map(|d| Json::Str(d.clone())).collect();
    Json::Obj(vec![
        ("sql".to_string(), Json::Str(served.sql.clone())),
        ("request_id".to_string(), Json::Int(served.request_id as i64)),
        ("tenant".to_string(), Json::Str(tenant.to_string())),
        ("cached".to_string(), Json::Bool(served.cached)),
        ("worker".to_string(), Json::Int(served.worker as i64)),
        ("latency_ms".to_string(), Json::Num(served.latency_seconds * 1e3)),
        ("queue_wait_ms".to_string(), Json::Num(served.queue_wait_seconds * 1e3)),
        ("prompt_tokens".to_string(), Json::Int(served.prompt_tokens as i64)),
        ("degradations".to_string(), Json::Arr(degradations)),
    ])
}

/// The shared back half of `/v1/infer`: exactly one call per admitted
/// ticket. Books the resolution (in-flight gauge, outcome counter,
/// audit, spend charge) and returns either the success payload or the
/// mapped wire error plus its message.
fn settle_infer(
    inner: &Arc<Inner>,
    ctx: &InferCtx,
    outcome: Outcome,
) -> Result<Json, (WireError, String)> {
    inner.metrics.in_flight.add(-1);
    inner.stats.infer_resolved.fetch_add(1, Ordering::Relaxed);
    let finish = |status: u16, code: &str, cached: bool| {
        inner.metrics.infer_outcome(code).inc();
        audit(inner, ctx.seq, &ctx.tenant, &ctx.db_id, status, code, ctx.started.elapsed(), cached);
    };
    match outcome {
        Ok(served) => {
            if let Some(account) = &ctx.account {
                // Spend budgets meter backend compute; cached answers
                // consumed none, and any real inference costs at least
                // 1ms so a backend that reports zero latency still spends.
                if !served.cached {
                    account.charge_ms(((served.latency_seconds * 1e3).ceil() as u64).max(1));
                }
            }
            finish(200, "ok", served.cached);
            Ok(served_payload(&served, &ctx.tenant))
        }
        Err(e) => {
            let mapped = map_serve_error(&e);
            finish(mapped.status, mapped.code, false);
            Err((mapped, e.to_string()))
        }
    }
}

fn handle_infer(inner: &Arc<Inner>, request: &HttpRequest) -> HttpResponse {
    let ctx = match admit_infer(inner, request, None) {
        InferAdmission::Immediate(response) => return response,
        InferAdmission::Admitted(ctx) => ctx,
    };
    // The router/pool guarantee exactly-once resolution for every
    // accepted ticket (through drain, failover, and worker death), so
    // this wait cannot hang; the slice size only bounds each poll.
    let outcome = loop {
        if let Some(outcome) = ctx.ticket.wait_timeout(Duration::from_secs(3600)) {
            break outcome;
        }
    };
    match settle_infer(inner, &ctx, outcome) {
        Ok(payload) => HttpResponse::json(200, &envelope::success(payload)),
        Err((wire, message)) => error_response(wire.status, wire.code, &message, wire.retry_after),
    }
}

/// The `data` payload of one progress event.
fn progress_payload(progress: &Progress) -> Json {
    match progress {
        Progress::Queued => Json::Obj(vec![]),
        Progress::Dispatched { worker, batch_size } => Json::Obj(vec![
            ("worker".to_string(), Json::Int(*worker as i64)),
            ("batch_size".to_string(), Json::Int(*batch_size as i64)),
        ]),
        Progress::Generated { latency_seconds } => Json::Obj(vec![(
            "latency_ms".to_string(),
            Json::Num(latency_seconds * 1e3),
        )]),
    }
}

/// `POST /v1/infer?stream=1` (or `Accept: application/x-ndjson`): emit
/// lifecycle events as ndjson over chunked transfer, then the final
/// result as a `result` (or `error`) event whose `data` is byte-identical
/// to the buffered response's. Returns whether the connection may be
/// kept alive.
///
/// Invariants, in order:
/// * the ticket is **always** waited to resolution and settled exactly
///   once — a vanished client never leaks an audit record or an
///   in-flight gauge increment;
/// * progress events are deduped by rank (queued < dispatched <
///   generated), since admission is legitimately reported by both the
///   router and pool queues;
/// * every chunk write observes the socket's write timeout, and a drain
///   flag observed mid-stream closes the connection after the final
///   event.
fn handle_infer_stream(
    inner: &Arc<Inner>,
    stream: &TcpStream,
    request: &HttpRequest,
    close: bool,
) -> bool {
    let (tx, rx) = crossbeam::channel::unbounded::<Progress>();
    let sink: Arc<dyn ProgressSink> = Arc::new(tx);
    let ctx = match admit_infer(inner, request, Some(sink)) {
        InferAdmission::Immediate(response) => {
            // Pre-admission rejections stay plain responses: there is no
            // lifecycle to narrate and clients keep one error shape.
            return write_response(inner, stream, &response, close) && !close;
        }
        InferAdmission::Admitted(ctx) => ctx,
    };

    let mut writer = match ChunkedWriter::start(stream, 200, "application/x-ndjson", close, &[])
    {
        Ok(writer) => Some(writer),
        Err(_) => {
            inner.metrics.client_gone("response").inc();
            inner.stats.client_gone.fetch_add(1, Ordering::Relaxed);
            inner.metrics.stream_abort("client_gone").inc();
            None
        }
    };
    let mut last_rank: i16 = -1;
    let mut drained_mid_stream = false;

    // One closure per event write keeps the abort bookkeeping in one
    // place: a failed flush drops the writer (the client is gone) but the
    // wait below still runs to settlement.
    let emit = |writer: &mut Option<ChunkedWriter<&TcpStream>>,
                    event: &str,
                    line: Vec<u8>| {
        let Some(w) = writer.as_mut() else { return };
        let flush_started = Instant::now();
        if w.write_chunk(&line).is_ok() {
            inner.metrics.stream_flush.record(flush_started.elapsed());
            inner.metrics.stream_event(event).inc();
        } else {
            inner.metrics.client_gone("response").inc();
            inner.stats.client_gone.fetch_add(1, Ordering::Relaxed);
            inner.metrics.stream_abort("client_gone").inc();
            *writer = None;
        }
    };

    let outcome = loop {
        // Drain pending lifecycle notifications, monotonic by rank.
        while let Ok(progress) = rx.try_recv() {
            if i16::from(progress.rank()) <= last_rank {
                continue;
            }
            last_rank = i16::from(progress.rank());
            emit(&mut writer, progress.name(), envelope::event_line(
                progress.name(),
                progress_payload(&progress),
            ));
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            // Drain observed mid-stream: keep streaming (the pool drains
            // in-flight work) but close the connection afterwards.
            drained_mid_stream = true;
        }
        match ctx.ticket.wait_timeout(inner.config.read_slice) {
            Some(outcome) => break outcome,
            None => continue,
        }
    };
    // Late notifications raced the outcome (e.g. `generated` sent just
    // before resolution): flush them before the terminal event.
    while let Ok(progress) = rx.try_recv() {
        if i16::from(progress.rank()) <= last_rank {
            continue;
        }
        last_rank = i16::from(progress.rank());
        emit(&mut writer, progress.name(), envelope::event_line(
            progress.name(),
            progress_payload(&progress),
        ));
    }

    match settle_infer(inner, &ctx, outcome) {
        Ok(payload) => {
            emit(&mut writer, "result", envelope::event_line("result", payload));
        }
        Err((wire, message)) => {
            emit(
                &mut writer,
                "error",
                envelope::error_event_line(wire.code, &message, wire.retry_after),
            );
        }
    }
    match writer {
        Some(w) => {
            if w.finish().is_ok() {
                inner.metrics.response(200).inc();
                inner.stats.responses.fetch_add(1, Ordering::Relaxed);
                !close && !drained_mid_stream
            } else {
                inner.metrics.client_gone("response").inc();
                inner.stats.client_gone.fetch_add(1, Ordering::Relaxed);
                inner.metrics.stream_abort("client_gone").inc();
                false
            }
        }
        None => false,
    }
}

/// The prologue `/v1/invalidate` and `/v1/databases` share, in order:
/// auth, drain check, `target` (what the endpoint acts through, or why it
/// cannot), then the body's required `db_id`.
fn admin_request<T>(
    inner: &Arc<Inner>,
    request: &HttpRequest,
    target: Result<T, Reject>,
) -> Result<(T, String), HttpResponse> {
    authenticate(inner, request).map_err(|reject| reject.response())?;
    if inner.shutdown.load(Ordering::SeqCst) {
        inner.metrics.shed(EdgeShed::ShuttingDown).inc();
        return Err(Reject::ShuttingDown.response());
    }
    let target = target.map_err(|reject| reject.response())?;
    let json = json_body(&request.body).map_err(|reject| reject.response())?;
    match json.get("db_id").and_then(Json::as_str).filter(|s| !s.is_empty()) {
        Some(db_id) => Ok((target, db_id.to_string())),
        None => Err(Reject::BadRequest("missing required string field 'db_id'".to_string())
            .response()),
    }
}

fn handle_invalidate(inner: &Arc<Inner>, request: &HttpRequest) -> HttpResponse {
    let ((), db_id) = match admin_request(inner, request, Ok(())) {
        Ok(admitted) => admitted,
        Err(response) => return response,
    };
    match inner.router.invalidate_database(&db_id) {
        Ok(generation) => {
            let body = Json::Obj(vec![
                ("db_id".to_string(), Json::Str(db_id)),
                (
                    "generation".to_string(),
                    generation.map_or(Json::Null, |g| Json::Int(g as i64)),
                ),
            ]);
            HttpResponse::json(200, &envelope::success(body))
        }
        Err(e) => serve_error_response(&e),
    }
}

/// `POST /v1/databases`: attach (or re-attach) a database by id. The
/// catalog service checks out a pooled connection, introspects the full
/// schema plus representative cell values, stamps the mirror with the
/// backend's revision token, and fires the revision observer — so value
/// indexes and cache generations are current before the response leaves.
/// Re-attaching an already-served database refreshes it.
fn handle_attach(inner: &Arc<Inner>, request: &HttpRequest) -> HttpResponse {
    let catalogs = inner.catalogs.as_ref().ok_or(Reject::Unimplemented(
        "database attachment (no storage service configured)",
    ));
    let (catalogs, db_id) = match admin_request(inner, request, catalogs) {
        Ok(admitted) => admitted,
        Err(response) => return response,
    };
    match catalogs.attach(&db_id) {
        Ok(catalog) => {
            let body = Json::Obj(vec![
                ("db_id".to_string(), Json::Str(catalog.db_id().to_string())),
                ("revision".to_string(), Json::Int(catalog.revision as i64)),
                ("tables".to_string(), Json::Int(catalog.table_count() as i64)),
                ("columns".to_string(), Json::Int(catalog.column_count() as i64)),
                ("values".to_string(), Json::Int(catalog.value_count() as i64)),
            ]);
            HttpResponse::json(200, &envelope::success(body))
        }
        Err(e) => serve_error_response(&codes::Error::from(e)),
    }
}

/// Write one audit record (and bump the journal metrics). Journal IO
/// failures are swallowed after start — auditing must never take the
/// serving path down — but the line counter only moves on success, so a
/// silently failing journal is visible as `journal_lines <
/// infer_outcomes` in the metrics.
#[allow(clippy::too_many_arguments)]
fn audit(
    inner: &Arc<Inner>,
    seq: u64,
    tenant: &str,
    db_id: &str,
    status: u16,
    code: &str,
    latency: Duration,
    cached: bool,
) {
    let Some(journal) = &inner.journal else {
        return;
    };
    let record = AuditRecord {
        seq,
        tenant: tenant.to_string(),
        db_id: db_id.to_string(),
        status,
        code: code.to_string(),
        latency_ms: latency.as_secs_f64() * 1e3,
        cached,
    };
    if journal.lock().append(&record).is_ok() {
        inner.metrics.journal_lines.inc();
        inner.stats.journal_records.fetch_add(1, Ordering::Relaxed);
    }
}
