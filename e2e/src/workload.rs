//! The four workloads: what each sends, and the seeded request sequence.
//!
//! The databases and the trained system are the fixture (fixed seeds, see
//! `stack.rs`), and so are the small question pools of `hot_repeat` and
//! `live_catalog`; `--seed` decides what the cold workloads ask, every
//! workload's order, and which rows `live_catalog` writes. The same seed gives the same
//! sequence, checked by [`Plan::sequence_hash`].

use std::collections::HashSet;
use std::time::Duration;

use codes_datasets::{generate_samples, Sample};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sqlengine::Database;

pub const DEFAULT_SEED: u64 = 0x5B1D;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SpiderCold,
    BirdCold,
    HotRepeat,
    LiveCatalog,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SpiderCold,
        Workload::BirdCold,
        Workload::HotRepeat,
        Workload::LiveCatalog,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpiderCold => "spider_cold",
            Workload::BirdCold => "bird_cold",
            Workload::HotRepeat => "hot_repeat",
            Workload::LiveCatalog => "live_catalog",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// BIRD-sim fixture (wide dirty tables, external knowledge) instead of
    /// Spider-sim.
    pub fn bird(self) -> bool {
        self == Workload::BirdCold
    }

    /// Unique questions only: every cache tier misses.
    pub fn cold(self) -> bool {
        matches!(self, Workload::SpiderCold | Workload::BirdCold)
    }

    /// Closed-loop connections. `nproc` is 2, so two. `live_catalog` uses
    /// one so that its writes, refreshes and cache hits repeat exactly.
    /// `hot_repeat` uses four: with two, both cores go idle between every
    /// response and the next request, the figure is the hypervisor's idle
    /// wake-up rather than the program (20 % spread between equal runs
    /// against 3 %), and two callers per core keep the cores awake.
    pub fn connections(self) -> usize {
        match self {
            Workload::LiveCatalog => 1,
            Workload::HotRepeat => 4,
            Workload::SpiderCold | Workload::BirdCold => 2,
        }
    }

    /// Whether idle-priority spinners keep the cores from halting during
    /// the run (see `cpu.rs`): when there is no more than one caller per
    /// core. The requests of those workloads sleep on a timer, the batch
    /// linger and `live_catalog`'s wire, and the cores halt each time.
    /// `hot_repeat` keeps them awake with two callers per core, and at
    /// 50 us of CPU per request the switches to and from a spinner would be
    /// a tenth of what it measures.
    pub fn spins_idle_cores(self) -> bool {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        self.connections() <= cores
    }

    /// Per-operation wire delay put in front of storage.
    pub fn wire_latency(self) -> Option<Duration> {
        (self == Workload::LiveCatalog).then_some(Duration::from_millis(1))
    }

    /// Whether connection `conn` asks for `?stream=1`. `spider_cold` mixes
    /// one buffered and one streamed connection on the same gateway.
    pub fn streams(self, conn: usize) -> bool {
        self == Workload::SpiderCold && conn == 1
    }
}

/// Request counts. [`Sizes::full`] is what `BENCHMARK.json` runs;
/// [`Sizes::smoke`] walks the same code in a few seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Template samples drawn per database before de-duplication, for
    /// `spider_cold` and `bird_cold`. Sized so the unique pool holds about
    /// twice what a 20 s run asks.
    pub spider_samples_per_db: usize,
    pub bird_samples_per_db: usize,
    /// Requests excluded from timing (`hot_repeat`: its warming pass).
    pub warmup: usize,
    /// Distinct questions `hot_repeat` cycles.
    pub hot_slots: usize,
    /// Questions per database in the `live_catalog` pool.
    pub live_per_db: usize,
    /// Length of the pre-drawn `live_catalog` sequence.
    pub live_draws: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Bounds on the traced run's request count.
    pub peel_min: usize,
    pub peel_max: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            spider_samples_per_db: 12_000,
            bird_samples_per_db: 3500,
            warmup: 200,
            hot_slots: 256,
            live_per_db: 20,
            live_draws: 60_000,
            setup_repeats: 3,
            peel_min: 200,
            peel_max: 500,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            spider_samples_per_db: 60,
            bird_samples_per_db: 60,
            warmup: 8,
            hot_slots: 16,
            live_per_db: 4,
            live_draws: 400,
            setup_repeats: 1,
            peel_min: 24,
            peel_max: 24,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Question {
    pub db_id: String,
    pub question: String,
    pub knowledge: Option<String>,
    pub gold_sql: String,
}

/// `live_catalog` inserts a row into the request's database before every
/// this-many-th request.
pub const WRITE_EVERY: usize = 10;

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// Distinct questions; `order` indexes into it.
    pub questions: Vec<Question>,
    /// Question slot of each request, in sending order.
    pub order: Vec<u32>,
    /// Wrap around at the end of `order` instead of stopping.
    pub cycle: bool,
    pub warmup: usize,
}

impl Plan {
    /// The question slot of request `index`, or `None` once a cold pool is
    /// used up (a repeated question would hit the cache).
    pub fn slot_at(&self, index: usize) -> Option<usize> {
        if self.cycle {
            Some(self.order[index % self.order.len()] as usize)
        } else {
            self.order.get(index).map(|slot| *slot as usize)
        }
    }

    /// Whether a row is written to the request's database before request
    /// `index` is sent.
    pub fn writes_before(&self, index: usize) -> bool {
        self.workload == Workload::LiveCatalog && index > 0 && index.is_multiple_of(WRITE_EVERY)
    }

    /// Which existing row the write before request `index` duplicates, as
    /// a number to reduce modulo the table's row count.
    pub fn write_pick(&self, index: usize) -> u64 {
        mix(self.seed, index as u64)
    }

    /// FNV-1a over everything a run sends: each request's database,
    /// question, knowledge, framing and write marker, in order.
    pub fn sequence_hash(&self) -> u64 {
        let mut hash = Fnv::new();
        let connections = self.workload.connections();
        for (index, slot) in self.order.iter().enumerate() {
            let q = &self.questions[*slot as usize];
            hash.bytes(q.db_id.as_bytes());
            hash.bytes(q.question.as_bytes());
            hash.bytes(q.knowledge.as_deref().unwrap_or("").as_bytes());
            hash.bytes(&[
                u8::from(self.workload.streams(index % connections)),
                u8::from(self.writes_before(index)),
            ]);
            if self.writes_before(index) {
                hash.bytes(&self.write_pick(index).to_le_bytes());
            }
        }
        hash.0
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// SplitMix64 of two words.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x94D0_49BB_1331_11EB;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn question_of(sample: Sample, db_id: &str) -> Question {
    Question {
        db_id: db_id.to_string(),
        question: sample.question,
        knowledge: sample.external_knowledge,
        gold_sql: sample.sql,
    }
}

/// Up to `want` questions over `db` that differ after the cache's own
/// normalisation, drawn from `draws` template samples.
fn unique_questions(
    db: &Database,
    draws: usize,
    want: usize,
    seed: u64,
    bird: bool,
) -> Vec<Question> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for sample in generate_samples(db, draws, &mut rng, bird) {
        let key = codes::normalize_question(&sample.question, sample.external_knowledge.as_deref());
        if seen.insert(key) {
            out.push(question_of(sample, &db.name));
            if out.len() == want {
                break;
            }
        }
    }
    out
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Generate the inputs of `workload` from `seed`. `dbs` are the databases
/// the stack serves, in serving order; for `live_catalog` the last one is
/// Bank-Financials, attached over HTTP once the stack is up.
pub fn plan(workload: Workload, seed: u64, dbs: &[&Database], sizes: &Sizes) -> Plan {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xE2E));
    // The cold pools are thousands of questions drawn from the seed. The
    // small pools (256 and 100 questions) are part of the fixture: drawn
    // from the seed they would differ in difficulty by more than any
    // change under test, so the seed decides their order and the writes.
    let pool_seed = if workload.cold() { seed } else { DEFAULT_SEED };
    let per_db = |db_index: usize, draws: usize, want: usize, bird: bool| {
        unique_questions(
            dbs[db_index],
            draws,
            want,
            mix(pool_seed, db_index as u64 + 1),
            bird,
        )
    };
    let (questions, order, cycle, warmup) = match workload {
        Workload::SpiderCold | Workload::BirdCold => {
            let draws = if workload.bird() {
                sizes.bird_samples_per_db
            } else {
                sizes.spider_samples_per_db
            };
            let mut questions: Vec<Question> = (0..dbs.len())
                .flat_map(|i| per_db(i, draws, usize::MAX, workload.bird()))
                .collect();
            shuffle(&mut questions, &mut rng);
            let order = (0..questions.len() as u32).collect();
            (questions, order, false, sizes.warmup)
        }
        Workload::HotRepeat => {
            let want = sizes.hot_slots / dbs.len();
            let mut questions: Vec<Question> = (0..dbs.len())
                .flat_map(|i| per_db(i, want * 8, want, false))
                .collect();
            shuffle(&mut questions, &mut rng);
            let order: Vec<u32> = (0..questions.len() as u32).collect();
            // The warming pass asks every question once.
            let warmup = order.len();
            (questions, order, true, warmup)
        }
        Workload::LiveCatalog => {
            let last = dbs.len() - 1;
            let questions: Vec<Question> = (0..dbs.len())
                // Bank-Financials questions come with external knowledge,
                // like the paper's new-domain test set.
                .flat_map(|i| per_db(i, sizes.live_per_db * 8, sizes.live_per_db, i == last))
                .collect();
            let order = (0..sizes.live_draws)
                .map(|_| rng.random_range(0..questions.len() as u32))
                .collect();
            (questions, order, false, sizes.warmup)
        }
    };
    Plan {
        workload,
        seed,
        questions,
        order,
        cycle,
        warmup,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Fixture;

    fn hash(workload: Workload, seed: u64) -> u64 {
        let fixture = Fixture::datasets(workload);
        plan(workload, seed, &fixture.served_refs(), &Sizes::smoke()).sequence_hash()
    }

    #[test]
    fn same_seed_same_sequence_and_another_seed_another() {
        for workload in Workload::ALL {
            let first = hash(workload, DEFAULT_SEED);
            assert_eq!(first, hash(workload, DEFAULT_SEED), "{}", workload.name());
            assert_ne!(
                first,
                hash(workload, DEFAULT_SEED + 1),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn cold_pools_hold_no_repeat_and_hot_cycles() {
        let fixture = Fixture::datasets(Workload::SpiderCold);
        let cold = plan(
            Workload::SpiderCold,
            7,
            &fixture.served_refs(),
            &Sizes::smoke(),
        );
        let keys: HashSet<_> = cold
            .questions
            .iter()
            .map(|q| {
                (
                    q.db_id.clone(),
                    codes::normalize_question(&q.question, q.knowledge.as_deref()),
                )
            })
            .collect();
        assert_eq!(keys.len(), cold.questions.len());
        assert_eq!(cold.slot_at(cold.order.len()), None, "a cold pool ends");

        let hot = plan(
            Workload::HotRepeat,
            7,
            &fixture.served_refs(),
            &Sizes::smoke(),
        );
        assert_eq!(hot.warmup, hot.questions.len());
        assert_eq!(
            hot.slot_at(hot.order.len() + 3),
            hot.slot_at(3),
            "a hot pool wraps"
        );
    }

    #[test]
    fn live_catalog_writes_before_every_tenth_request_only() {
        let fixture = Fixture::datasets(Workload::LiveCatalog);
        let live = plan(
            Workload::LiveCatalog,
            7,
            &fixture.served_refs(),
            &Sizes::smoke(),
        );
        assert_eq!(live.questions.len(), 5 * Sizes::smoke().live_per_db);
        assert!(!live.writes_before(0) && live.writes_before(10) && !live.writes_before(11));
        let cold = plan(
            Workload::SpiderCold,
            7,
            &fixture.served_refs()[..4],
            &Sizes::smoke(),
        );
        assert!(!cold.writes_before(10));
    }
}
