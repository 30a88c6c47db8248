//! Closed-loop load over loopback HTTP: each connection sends its next
//! request only when the previous response is complete.
//!
//! Connection `c` of `n` takes requests `c, c + n, c + 2n, …` of the
//! sequence, so what each connection sends does not depend on timing.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use codes_storage::MemoryBackend;
use serde::Json;

use crate::client::{encode_post, sql_slice, Connection};
use crate::cpu;
use crate::workload::{Plan, Workload};

/// Every question's request, encoded before any clock starts.
pub struct Wires {
    buffered: Vec<Vec<u8>>,
    streamed: Vec<Vec<u8>>,
    /// `live_catalog`: `POST /v1/invalidate` for each question's database.
    invalidate: Vec<Vec<u8>>,
}

impl Wires {
    pub fn encode(plan: &Plan) -> Wires {
        let body = |q: &crate::workload::Question| {
            let mut fields = vec![
                ("db_id".to_string(), Json::Str(q.db_id.clone())),
                ("question".to_string(), Json::Str(q.question.clone())),
            ];
            if let Some(knowledge) = &q.knowledge {
                fields.push((
                    "external_knowledge".to_string(),
                    Json::Str(knowledge.clone()),
                ));
            }
            serde_json::to_string(&Json::Obj(fields)).expect("strings serialize")
        };
        Wires {
            buffered: plan
                .questions
                .iter()
                .map(|q| encode_post("/v1/infer", &body(q)))
                .collect(),
            streamed: plan
                .questions
                .iter()
                .map(|q| encode_post("/v1/infer?stream=1", &body(q)))
                .collect(),
            invalidate: plan
                .questions
                .iter()
                .filter(|_| plan.workload == Workload::LiveCatalog)
                .map(|q| {
                    let db = Json::Obj(vec![("db_id".to_string(), Json::Str(q.db_id.clone()))]);
                    encode_post(
                        "/v1/invalidate",
                        &serde_json::to_string(&db).expect("serializes"),
                    )
                })
                .collect(),
        }
    }

    pub fn buffered(&self, slot: usize) -> &[u8] {
        &self.buffered[slot]
    }
}

/// Which framing a connection asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// What the workload says for this connection.
    Workload,
    Buffered,
    Streamed,
}

/// When the measured phase ends: at the first limit reached. Requests
/// count over all connections.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// The time limit, and the measured requests it waits for before it
    /// applies.
    pub after: Option<(Duration, usize)>,
    pub requests: Option<usize>,
}

pub struct Drive<'a> {
    /// Sample times count from here.
    pub epoch: Instant,
    pub plan: &'a Plan,
    pub wires: &'a Wires,
    /// Where `live_catalog` writes its rows.
    pub admin: &'a MemoryBackend,
    pub addr: SocketAddr,
    pub connections: usize,
    pub framing: Framing,
    /// Requests sent before the clock starts.
    pub warmup: usize,
    pub stop: Stop,
    /// Keep every response for the checks after timing. Without it,
    /// `hot_repeat` keeps each question's first answer and only compares
    /// the later ones with it, instead of holding 10^5 bodies.
    pub keep_all: bool,
    /// Split a time-limited measured phase into this many equal windows,
    /// each with its own completion count and CPU time; 0 for none.
    pub windows: usize,
    /// Called once between warm-up and the measured phase, while every
    /// connection waits: where a traced run snapshots the layers' counters.
    pub on_warmed: Option<&'a (dyn Fn() + Sync)>,
}

/// One measured request, kept small: `hot_repeat` holds 10^5 of them and
/// they count in `peak_rss_mb`.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Send time in ns after [`Drive::epoch`].
    pub start_ns: u64,
    /// Position in the workload sequence.
    pub index: u32,
    /// Send → complete response (saturates at 4.29 s).
    pub latency_ns: u32,
    /// Streams: send → first complete event line; 0 for buffered responses.
    pub first_event_ns: u32,
}

impl Sample {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + u64::from(self.latency_ns)
    }

    pub fn latency_ms(&self) -> f64 {
        f64::from(self.latency_ns) / 1e6
    }
}

fn ns_u32(duration: Duration) -> u32 {
    u32::try_from(duration.as_nanos()).unwrap_or(u32::MAX)
}

/// A response kept for the checks that run after timing.
pub struct Kept {
    pub index: u32,
    pub slot: u32,
    pub streamed: bool,
    pub body: Vec<u8>,
}

#[derive(Default)]
pub struct Outcome {
    /// Measured requests that passed the in-loop checks, in sending order
    /// per connection.
    pub samples: Vec<Sample>,
    pub kept: Vec<Kept>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Transport errors, non-200 answers and failed in-loop checks.
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
    pub reconnects: u64,
    /// Rows written (`live_catalog`), with the index they preceded.
    pub writes: Vec<u32>,
    /// A cold pool ran out before the stop condition.
    pub exhausted: bool,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub windows: Vec<Window>,
}

/// One slice of the measured phase; a sample belongs to the slice its
/// response completed in.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// The slice's bounds in ns after [`Drive::epoch`].
    pub from_ns: u64,
    pub to_ns: u64,
    /// Process CPU time spent inside the slice.
    pub cpu_s: f64,
}

/// Duplicate one existing row of the first non-empty table: a real write
/// that stamps a fresh revision and keeps every gold query valid. The
/// caller then invalidates the database's cache generation.
pub fn write_row(admin: &MemoryBackend, db_id: &str, pick: u64) {
    admin
        .mutate(db_id, |db| {
            let Some(name) = db
                .tables
                .iter()
                .find(|t| !t.rows.is_empty())
                .map(|t| t.schema.name.clone())
            else {
                return;
            };
            let table = db.table_mut(&name).expect("the table was just listed");
            let row = table.rows[(pick % table.rows.len() as u64) as usize].clone();
            table.insert(row).expect("a stored row fits its own schema");
        })
        .expect("the request's database is in the store");
}

struct Worker<'a> {
    drive: &'a Drive<'a>,
    conn_no: usize,
    conn: Connection,
    /// `hot_repeat`: the first answer seen per question.
    first_sql: Vec<Option<Vec<u8>>>,
    out: Outcome,
}

impl Worker<'_> {
    fn fail(&mut self, index: usize, what: String) {
        self.out.failed += 1;
        if self.out.errors.len() < 5 {
            self.out.errors.push(format!("request {index}: {what}"));
        }
    }

    /// Send request `index`; returns false when the sequence is used up.
    fn request(&mut self, index: usize, timed: bool) -> bool {
        let plan = self.drive.plan;
        let Some(slot) = plan.slot_at(index) else {
            self.out.exhausted = true;
            return false;
        };
        if plan.writes_before(index) {
            write_row(
                self.drive.admin,
                &plan.questions[slot].db_id,
                plan.write_pick(index),
            );
            self.out.writes.push(index as u32);
            // A hit in the full-result cache is answered at admission
            // without a storage sync, so a writer that wants its rows seen
            // says so, as an application would: without this the system
            // drifts into serving every question stale from the cache.
            match self.conn.exchange(&self.drive.wires.invalidate[slot]) {
                Ok(reply) if reply.status == 200 => {}
                Ok(reply) => {
                    let what = format!("invalidate answered {}", reply.status);
                    self.fail(index, what);
                }
                Err(e) => self.fail(index, format!("invalidate transport: {e}")),
            }
        }
        let streamed = match self.drive.framing {
            Framing::Workload => plan.workload.streams(self.conn_no),
            Framing::Buffered => false,
            Framing::Streamed => true,
        };
        let wire = if streamed {
            &self.drive.wires.streamed[slot]
        } else {
            &self.drive.wires.buffered[slot]
        };
        self.out.attempted += 1;
        let start = Instant::now();
        let reply = match self.conn.exchange(wire) {
            Ok(reply) => reply,
            Err(e) => {
                self.fail(index, format!("transport: {e}"));
                // The connection's state is unknown: start a fresh one.
                if let Ok(fresh) = Connection::open(self.drive.addr) {
                    self.conn = fresh;
                }
                return true;
            }
        };
        let latency = start.elapsed();
        let first_event_ns = reply
            .first_event
            .map_or(0, |at| ns_u32(at.duration_since(start)));
        // `hot_repeat` keeps a question's first answer and compares the
        // later ones with it; everything else keeps every response.
        let compare = plan.workload == Workload::HotRepeat && !self.drive.keep_all;
        let problem = if reply.status != 200 {
            Some(format!(
                "status {}: {}",
                reply.status,
                String::from_utf8_lossy(reply.body)
            ))
        } else {
            match (sql_slice(reply.body), &self.first_sql[slot]) {
                (None | Some(b""), _) => Some("no SQL in the response".to_string()),
                (Some(sql), Some(first)) if compare => {
                    (first != sql).then(|| "a repeated question got another SQL".to_string())
                }
                (Some(sql), _) => {
                    if compare {
                        self.first_sql[slot] = Some(sql.to_vec());
                    }
                    self.out.kept.push(Kept {
                        index: index as u32,
                        slot: slot as u32,
                        streamed,
                        body: reply.body.to_vec(),
                    });
                    None
                }
            }
        };
        match problem {
            Some(what) => self.fail(index, what),
            None if timed => self.out.samples.push(Sample {
                start_ns: start.duration_since(self.drive.epoch).as_nanos() as u64,
                index: index as u32,
                latency_ns: ns_u32(latency),
                first_event_ns,
            }),
            None => {}
        }
        true
    }
}

/// Run the load: warm-up, then the measured phase on all connections at
/// once. Wall and CPU time cover the measured phase only.
pub fn drive(drive: &Drive<'_>) -> Outcome {
    let n = drive.connections;
    // Workers plus this thread, which reads the clocks while they wait.
    let warmed = Barrier::new(n + 1);
    let go = Barrier::new(n + 1);
    let mut total = Outcome::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|conn_no| {
                let (warmed, go) = (&warmed, &go);
                scope.spawn(move || {
                    let conn = Connection::open(drive.addr).expect("connect to the gateway");
                    let mut worker = Worker {
                        drive,
                        conn_no,
                        conn,
                        first_sql: vec![None; drive.plan.questions.len()],
                        out: Outcome::default(),
                    };
                    let mut index = conn_no;
                    while index < drive.warmup && worker.request(index, false) {
                        index += n;
                    }
                    warmed.wait();
                    go.wait();
                    let started = Instant::now();
                    let last = drive
                        .stop
                        .requests
                        .map_or(usize::MAX, |count| drive.warmup + count);
                    while index < last
                        && drive.stop.after.is_none_or(|(limit, at_least)| {
                            index < drive.warmup + at_least || started.elapsed() < limit
                        })
                        && worker.request(index, true)
                    {
                        index += n;
                    }
                    worker.out.reconnects = worker.conn.reconnects;
                    (worker.out, Instant::now())
                })
            })
            .collect();
        warmed.wait();
        if let Some(hook) = drive.on_warmed {
            hook();
        }
        let cpu_before = cpu::seconds();
        let started = Instant::now();
        go.wait();
        // This thread only sleeps to the window boundaries and reads the
        // CPU clock there.
        let mut marks = vec![(started, cpu_before)];
        if let (Some((limit, _)), true) = (drive.stop.after, drive.windows > 0) {
            for k in 1..=drive.windows {
                let boundary = started + limit.mul_f64(k as f64 / drive.windows as f64);
                std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
                marks.push((Instant::now(), cpu::seconds()));
            }
        }
        let mut finished = started;
        let joined: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("a load connection panicked"))
            .collect();
        // One allocation of the final size: growing by doubling would hold
        // the samples three times over at the peak.
        total
            .samples
            .reserve_exact(joined.iter().map(|(out, _)| out.samples.len()).sum());
        for (out, at) in joined {
            finished = finished.max(at);
            total.samples.extend(out.samples);
            total.kept.extend(out.kept);
            total.attempted += out.attempted;
            total.failed += out.failed;
            total.errors.extend(out.errors);
            total.reconnects += out.reconnects;
            total.writes.extend(out.writes);
            total.exhausted |= out.exhausted;
        }
        total.cpu_s = cpu::seconds() - cpu_before;
        total.wall_s = finished.duration_since(started).as_secs_f64();
        let since_epoch = |at: Instant| at.duration_since(drive.epoch).as_nanos() as u64;
        total.windows = marks
            .windows(2)
            .map(|pair| Window {
                from_ns: since_epoch(pair[0].0),
                to_ns: since_epoch(pair[1].0),
                cpu_s: pair[1].1 - pair[0].1,
            })
            .collect();
    });
    total.kept.sort_by_key(|k| k.index);
    total.errors.truncate(5);
    total
}
