//! Executor digest: one FNV-1a hash per corpus over everything a statement
//! returns, so any change to the executor that moves a single result bit,
//! error message, cost counter or budget verdict fails here.
//!
//! Per statement the digest covers `Ok` or `Err` (with the error's
//! `Display` and `Debug`), the output columns, every row (reals as
//! `to_bits`), the `ordered` flag and all six `ExecStats` counters. Each
//! statement runs under both `PlanMode`s, once with no limits and twice
//! under tight deterministic limits (no deadline), which pins every
//! `BudgetExceeded { resource, spent, limit }`.
//!
//! The corpora are the `querygen` catalogs and queries shared with
//! `plan_differential.rs`, the statements of `queries.rs` and
//! `semantics.rs` on their fixtures, and a set of edge statements over
//! wide tables (joins above the hash threshold, reordered joins, LEFT
//! padding, lazy bind errors, Unicode identifiers, set-operation widths).

mod querygen;

use querygen::{gen_catalog, gen_spec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlengine::{
    database_from_script, execute_query_plan, Database, ExecLimits, ExecStats, PlanMode,
    QueryResult, Value,
};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn feed(h: &mut Fnv, outcome: &sqlengine::Result<(QueryResult, ExecStats)>) {
    match outcome {
        Ok((r, st)) => {
            h.str("ok");
            h.u64(r.columns.len() as u64);
            for c in &r.columns {
                h.str(c);
            }
            h.u64(r.rows.len() as u64);
            for row in &r.rows {
                h.u64(row.len() as u64);
                for v in row {
                    match v {
                        Value::Null => h.u64(0),
                        Value::Integer(i) => {
                            h.u64(1);
                            h.u64(*i as u64);
                        }
                        Value::Real(x) => {
                            h.u64(2);
                            h.u64(x.to_bits());
                        }
                        Value::Text(t) => {
                            h.u64(3);
                            h.str(t);
                        }
                    }
                }
            }
            h.u64(r.ordered as u64);
            for n in [
                st.rows_scanned,
                st.join_pairs,
                st.sort_steps,
                st.rows_grouped,
                st.rows_output,
                st.subqueries,
            ] {
                h.u64(n);
            }
        }
        Err(e) => {
            h.str("err");
            h.str(&e.to_string());
            h.str(&format!("{e:?}"));
        }
    }
}

/// Deterministic budgets (no deadline): a tight set that scans, small
/// joins and nesting trip, and a looser one that lets the wide fixture's
/// scans through so its joins, groups and derived tables trip the
/// row-count and byte budgets instead.
fn budgets() -> [ExecLimits; 3] {
    let limits = |rows, intermediate, bytes, depth| ExecLimits {
        deadline: None,
        max_rows: Some(rows),
        max_intermediate_rows: Some(intermediate),
        max_memory_bytes: Some(bytes),
        max_recursion_depth: Some(depth),
    };
    [ExecLimits::unlimited(), limits(12, 90, 6_000, 2), limits(100, 1_500, 24_000, 3)]
}

/// Run `sql` in one plan mode under every budget, feeding each outcome.
fn run(h: &mut Fnv, db: &Database, sql: &str, mode: PlanMode) {
    h.str(sql);
    for limits in budgets() {
        feed(h, &execute_query_plan(db, sql, &limits, mode));
    }
}

fn digest_statements(fixtures: &[(Database, Vec<String>)], mode: PlanMode) -> u64 {
    let mut h = Fnv::new();
    for (db, statements) in fixtures {
        for sql in statements {
            run(&mut h, db, sql, mode);
        }
    }
    h.0
}

fn digest_generated(mode: PlanMode) -> u64 {
    let mut h = Fnv::new();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..10 {
            let cat = gen_catalog(&mut rng);
            let db = database_from_script("diff", &cat.script).expect("generated catalog script");
            for _ in 0..100 {
                let spec = gen_spec(&mut rng, &cat);
                run(&mut h, &db, &spec.to_sql(), mode);
            }
        }
    }
    h.0
}

fn lines(block: &str) -> Vec<String> {
    block.lines().map(str::trim).filter(|l| !l.is_empty()).map(str::to_string).collect()
}

/// The fixture of `queries.rs`.
fn concert() -> Database {
    database_from_script(
        "concert_singer",
        "CREATE TABLE stadium (stadium_id INTEGER PRIMARY KEY, location TEXT, name TEXT, capacity INTEGER, average INTEGER);
         CREATE TABLE singer (singer_id INTEGER PRIMARY KEY, name TEXT, country TEXT, age INTEGER, is_male TEXT);
         CREATE TABLE concert (concert_id INTEGER PRIMARY KEY, concert_name TEXT, theme TEXT, stadium_id INTEGER REFERENCES stadium(stadium_id), year INTEGER);
         CREATE TABLE singer_in_concert (concert_id INTEGER REFERENCES concert(concert_id), singer_id INTEGER REFERENCES singer(singer_id));
         INSERT INTO stadium VALUES (1, 'East', 'Stark Arena', 52500, 1200), (2, 'West', 'Balmoor', 10104, 900), (3, 'North', 'Hive Stadium', 4000, 700), (4, 'South', 'Recreation Park', 2000, NULL);
         INSERT INTO singer VALUES (1, 'Joe Sharp', 'Netherlands', 52, 'F'), (2, 'Timbaland', 'United States', 32, 'T'), (3, 'Justin Brown', 'France', 29, 'T'), (4, 'Rose White', 'France', 41, 'F'), (5, 'John Nizinik', 'France', 43, 'T');
         INSERT INTO concert VALUES (1, 'Auditions', 'Free choice', 1, 2014), (2, 'Super bootcamp', 'Free choice 2', 2, 2014), (3, 'Home Visits', 'Bleeding Love', 2, 2015), (4, 'Week 1', 'Wide Awake', 3, 2014), (5, 'Week 2', 'Party All Night', 1, 2015);
         INSERT INTO singer_in_concert VALUES (1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 1), (5, 1), (5, 2);",
    )
    .expect("concert fixture")
}

const CONCERT_STATEMENTS: &str = "
    SELECT COUNT(*) FROM singer
    SELECT name FROM singer WHERE country = 'France' AND age > 30
    SELECT name FROM singer WHERE age < 30 OR age > 50
    SELECT country, COUNT(*), AVG(age) FROM singer GROUP BY country ORDER BY COUNT(*) DESC
    SELECT country FROM singer GROUP BY country HAVING COUNT(*) >= 2
    SELECT country FROM singer GROUP BY country ORDER BY COUNT(*) DESC LIMIT 1
    SELECT T2.name FROM concert AS T1 JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id WHERE T1.year = 2014
    SELECT DISTINCT T3.name FROM singer_in_concert AS T1 JOIN concert AS T2 ON T1.concert_id = T2.concert_id JOIN singer AS T3 ON T1.singer_id = T3.singer_id WHERE T2.year = 2014
    SELECT T1.name, T2.concert_id FROM stadium AS T1 LEFT JOIN concert AS T2 ON T1.stadium_id = T2.stadium_id WHERE T2.concert_id IS NULL
    SELECT DISTINCT country FROM singer
    SELECT name FROM stadium WHERE stadium_id IN (SELECT stadium_id FROM concert WHERE year = 2015)
    SELECT name FROM stadium WHERE stadium_id NOT IN (SELECT stadium_id FROM concert)
    SELECT name FROM singer WHERE age > (SELECT AVG(age) FROM singer)
    SELECT COUNT(*) FROM stadium WHERE EXISTS (SELECT 1 FROM concert)
    SELECT COUNT(*) FROM stadium WHERE NOT EXISTS (SELECT 1 FROM concert WHERE year = 1999)
    SELECT stadium_id FROM concert WHERE year = 2014 UNION SELECT stadium_id FROM concert WHERE year = 2015
    SELECT stadium_id FROM concert WHERE year = 2014 INTERSECT SELECT stadium_id FROM concert WHERE year = 2015
    SELECT stadium_id FROM concert WHERE year = 2014 EXCEPT SELECT stadium_id FROM concert WHERE year = 2015
    SELECT country FROM singer UNION ALL SELECT country FROM singer
    SELECT name FROM singer WHERE age > 40 UNION SELECT name FROM singer WHERE country = 'France' ORDER BY name LIMIT 2
    SELECT COUNT(*) FROM singer WHERE age BETWEEN 29 AND 41
    SELECT name FROM singer WHERE name LIKE '%John%'
    SELECT name FROM singer WHERE name NOT LIKE 'J%'
    SELECT COUNT(*) FROM stadium WHERE average > 0
    SELECT COUNT(*) FROM stadium WHERE average IS NULL
    SELECT COUNT(average) FROM stadium
    SELECT COUNT(*) FROM stadium
    SELECT name, capacity - average AS spare FROM stadium WHERE average IS NOT NULL ORDER BY spare DESC LIMIT 1
    SELECT MIN(age), MAX(age), SUM(age) FROM singer
    SELECT COUNT(DISTINCT country) FROM singer
    SELECT COUNT(*), SUM(age), AVG(age), MAX(age) FROM singer WHERE age > 99
    SELECT MAX(n) FROM (SELECT stadium_id, COUNT(*) AS n FROM concert GROUP BY stadium_id) AS t
    SELECT name, CASE WHEN age >= 40 THEN 'senior' ELSE 'junior' END FROM singer ORDER BY singer_id
    SELECT CAST(SUBSTR('2009-03-04', 1, 4) AS INTEGER)
    SELECT country, name FROM singer ORDER BY country ASC, age DESC
    SELECT singer_id FROM singer ORDER BY singer_id LIMIT 2 OFFSET 1
    SELECT singer_id FROM singer ORDER BY singer_id LIMIT 1, 2
    SELECT * FROM stadium WHERE stadium_id = 1
    SELECT T1.* FROM concert AS T1 JOIN stadium AS T2 ON T1.stadium_id = T2.stadium_id WHERE T2.name = 'Balmoor'
    SELECT name FROM singer JOIN stadium ON singer_id = stadium_id
    SELECT nope FROM singer
    SELECT 1 FROM ghost_table
    SELECT singer.ghost FROM singer
    SELECT country AS c, COUNT(*) FROM singer GROUP BY c ORDER BY c
    SELECT country, COUNT(*) FROM singer GROUP BY 1 ORDER BY 1
    SELECT name FROM singer
    SELECT T3.name FROM singer_in_concert AS T1 JOIN concert AS T2 ON T1.concert_id = T2.concert_id JOIN singer AS T3 ON T1.singer_id = T3.singer_id ORDER BY T3.name
    SELECT 1 + 2 * 3
    SELECT UPPER('abc')
    (SELECT name FROM singer ORDER BY age DESC LIMIT 1) UNION SELECT name FROM singer WHERE age < 30
    SELECT COUNT(*) FROM singer WHERE country IN ('France', 'Netherlands')
    SELECT COUNT(*) FROM singer WHERE country NOT IN ('France')
    SELECT GROUP_CONCAT(name) FROM singer WHERE country = 'Netherlands'
    SELECT 'a' || 'b' || 'c'
    SELECT name FROM singer ORDER BY name
";

/// The fixture of `semantics.rs`.
fn sem() -> Database {
    database_from_script(
        "sem",
        "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER, label TEXT);
         CREATE TABLE b (id INTEGER PRIMARY KEY, a_id INTEGER REFERENCES a(id), y INTEGER);
         CREATE TABLE e (a INTEGER, b TEXT);
         CREATE TABLE t (a INTEGER, b TEXT);
         INSERT INTO a VALUES (1, 10, 'p'), (2, 20, 'q'), (3, 30, NULL), (4, NULL, 'r');
         INSERT INTO b VALUES (1, 1, 5), (2, 1, 15), (3, 2, 25), (4, 9, 1);
         INSERT INTO t VALUES (1, 'x'), (2, 'y');",
    )
    .expect("semantics fixture")
}

const SEM_STATEMENTS: &str = "
    SELECT id FROM a WHERE x > (SELECT AVG(x) FROM a)
    SELECT id FROM a WHERE id IN (SELECT a_id FROM b)
    SELECT id FROM a WHERE id NOT IN (SELECT a_id FROM b)
    SELECT id FROM a WHERE id NOT IN (SELECT x FROM a)
    SELECT id FROM a WHERE EXISTS (SELECT 1 FROM b WHERE y > 20)
    SELECT T1.id, T2.id FROM a AS T1 JOIN b AS T2 ON T1.x < T2.y ORDER BY T1.id, T2.id
    SELECT COUNT(*) FROM a AS T1 JOIN b AS T2 ON T1.id = T2.a_id AND T2.y > 10
    SELECT T1.id, T2.y FROM a AS T1 LEFT JOIN b AS T2 ON T1.id = T2.a_id AND T2.y > 10 ORDER BY T1.id
    SELECT x FROM a ORDER BY x ASC
    SELECT x FROM a ORDER BY x DESC
    SELECT label, COUNT(*) FROM a GROUP BY label
    SELECT x FROM a
    SELECT T1.x FROM a AS T1 JOIN b AS T2 ON T1.id = T2.a_id
    SELECT x FROM a WHERE COUNT(*) > 1
    SELECT x / (x - x) FROM a WHERE id = 1
    SELECT s.a_id FROM (SELECT a_id, SUM(y) AS total FROM b GROUP BY a_id) AS s WHERE s.total > 10
    SELECT id FROM a WHERE label = 'praha'
    SELECT id FROM a WHERE label LIKE 'praha'
    SELECT id FROM a LIMIT 0
    SELECT id FROM a ORDER BY id LIMIT 10 OFFSET 99
    SELECT id, x FROM a UNION SELECT id FROM b
    SELECT nosuch FROM e
    SELECT a FROM e WHERE nosuch = 1
    SELECT a FROM t WHERE 0 AND nosuch = 1
    SELECT a FROM e GROUP BY nosuch
    SELECT a FROM t WHERE a = 1 OR nosuch = 1
    SELECT COUNT(*), MAX(a), GROUP_CONCAT(b) FROM e
    SELECT COUNT(*) FROM e GROUP BY a
    SELECT e.a, t.b FROM e LEFT JOIN t ON e.a = t.a
    SELECT t.a, e.b FROM t LEFT JOIN e ON e.nosuch = t.a
    SELECT t.a, e.b FROM t LEFT JOIN e ON e.a = t.a
    SELECT * FROM t, t
    SELECT t.a FROM t, t
    SELECT a FROM t, t
    SELECT a FROM t AS x JOIN t AS y ON x.a = y.a
";

/// Wide BIRD-shaped tables: 22-column `artist`, 3-column `guest` with
/// repeated names, and `car_model` ⋈ `manufacturer` ⋈ `country` large
/// enough to cross the hash-join threshold and to be reordered.
fn wide() -> Database {
    let mut script = String::from(
        "CREATE TABLE artist (id INTEGER PRIMARY KEY, name TEXT, m1 INTEGER, m2 REAL, m3 TEXT, \
         m4 INTEGER, m5 REAL, m6 TEXT, m7 INTEGER, m8 REAL, m9 TEXT, m10 INTEGER, m11 REAL, \
         m12 TEXT, m13 INTEGER, m14 REAL, m15 TEXT, m16 INTEGER, m17 REAL, m18 TEXT, \
         \"Größe\" INTEGER, \"ΟΔΟΣ\" TEXT);
         CREATE TABLE guest (id INTEGER PRIMARY KEY, name TEXT, visits INTEGER);
         CREATE TABLE manufacturer (id INTEGER PRIMARY KEY, name TEXT, country TEXT);
         CREATE TABLE car_model (id INTEGER PRIMARY KEY, maker_id INTEGER REFERENCES manufacturer(id), model TEXT, year INTEGER, price REAL);
         CREATE TABLE country (name TEXT PRIMARY KEY, continent TEXT);\n",
    );
    let names = ["Ivan Petrov", "Maria Ivanova", "John Smith", "Ana Lima", "Élise Dubois", "ivan"];
    for i in 0..90i64 {
        let mut vals = vec![i.to_string(), format!("'{} {i}'", names[i as usize % names.len()])];
        for k in 1..=18i64 {
            let v = (i * 7 + k * 13) % 23;
            vals.push(if (i + k) % 11 == 0 {
                "NULL".to_string()
            } else {
                match k % 3 {
                    1 => (v * 1_000_000_007 * (1 + (k % 2))).to_string(),
                    2 => format!("{}.{}", v, (i + k) % 10),
                    _ => format!("'w{}x{}'", v % 5, (i + k) % 3),
                }
            });
        }
        vals.push((i % 9).to_string());
        vals.push(format!("'{}'", ["Ω", "ΣΑΣ", "ος"][i as usize % 3]));
        script.push_str(&format!("INSERT INTO artist VALUES ({});\n", vals.join(", ")));
    }
    for i in 0..240i64 {
        let name = if i % 17 == 0 { "NULL".to_string() } else { format!("'{}'", names[(i * 5 % 6) as usize]) };
        script.push_str(&format!("INSERT INTO guest VALUES ({i}, {name}, {});\n", i % 7));
    }
    let countries = ["Japan", "Germany", "USA", "France", "Korea"];
    for i in 0..24i64 {
        script.push_str(&format!(
            "INSERT INTO manufacturer VALUES ({i}, 'maker{i}', '{}');\n",
            countries[i as usize % countries.len()]
        ));
    }
    for i in 0..300i64 {
        let maker = if i % 29 == 0 { "NULL".to_string() } else { ((i * 7) % 26).to_string() };
        script.push_str(&format!(
            "INSERT INTO car_model VALUES ({i}, {maker}, 'model{}', {}, {}.5);\n",
            i % 40,
            1990 + i % 30,
            i * 3 % 97
        ));
    }
    for (i, c) in countries.iter().enumerate() {
        script.push_str(&format!("INSERT INTO country VALUES ('{c}', 'c{}');\n", i % 2));
    }
    database_from_script("wide", &script).expect("wide fixture")
}

const WIDE_STATEMENTS: &str = "
    SELECT m6 FROM artist WHERE name LIKE '%Ivan%'
    SELECT m6, m9 FROM artist WHERE name NOT LIKE 'ivan%' AND m1 > 5
    SELECT name FROM artist WHERE name LIKE '_lise%'
    SELECT name FROM artist WHERE m3 LIKE NULL
    SELECT name FROM artist WHERE m4 LIKE '1%'
    SELECT name FROM guest GROUP BY name
    SELECT name, COUNT(*), SUM(visits), AVG(visits), TOTAL(visits) FROM guest GROUP BY name ORDER BY name DESC
    SELECT visits AS v, COUNT(*) FROM guest GROUP BY v HAVING COUNT(*) > 30 ORDER BY v DESC
    SELECT visits, COUNT(*) AS n FROM guest GROUP BY visits ORDER BY n DESC, visits LIMIT 3
    SELECT visits, COUNT(*) AS n FROM guest GROUP BY visits HAVING n > 1
    SELECT COUNT(*), visits FROM guest GROUP BY 1
    SELECT visits FROM guest GROUP BY 5
    SELECT name, MAX(visits) FROM guest GROUP BY name, visits % 2
    SELECT UPPER(name) AS u FROM guest GROUP BY u
    SELECT COUNT(DISTINCT name), GROUP_CONCAT(DISTINCT visits) FROM guest
    SELECT COUNT(*) FROM artist
    SELECT * FROM artist WHERE id = 3
    SELECT * FROM artist WHERE m2 > 10 ORDER BY m5 DESC, id LIMIT 4 OFFSET 2
    SELECT SUM(m1), SUM(m4), AVG(m2), MIN(m3), MAX(m3), SUM(m3) FROM artist
    SELECT MIN(m1, m4), MAX(m2, m5, m8), COALESCE(m3, m6, 'none'), IFNULL(m9, 0) FROM artist WHERE id < 12
    SELECT LENGTH(name), LOWER(name), SUBSTR(name, 2, 3), REPLACE(name, 'a', 'A'), INSTR(name, 'v') FROM artist WHERE id < 7
    SELECT ROUND(m2, 1), ABS(m2 - 20), TYPEOF(m2), NULLIF(m1, 0), IIF(m1 > 5, 'hi', 'lo') FROM artist WHERE id < 9
    SELECT CAST(m2 AS INTEGER), CAST(m3 AS REAL), CAST(m1 AS TEXT), m2 || '/' || m1 FROM artist WHERE id < 9
    SELECT m1 / 0, m1 % 0, m2 / 2, m1 * m1, -m1, NOT m1 FROM artist WHERE id < 5
    SELECT -m3 FROM artist
    SELECT -m3 FROM artist WHERE m3 IS NULL
    SELECT CASE m7 % 3 WHEN 0 THEN 'zero' WHEN 1 THEN 'one' END FROM artist WHERE id < 10
    SELECT id FROM artist WHERE m1 BETWEEN 10 AND 3000000000 AND m2 NOT BETWEEN 3 AND 9
    SELECT id FROM artist WHERE m1 IN (1, NULL, 2000000014) OR m4 NOT IN (3, NULL)
    SELECT id FROM artist WHERE m3 IN ('w0x0', 'w1x1')
    SELECT \"größe\", \"ΟΔΟΣ\" FROM artist WHERE \"GRÖßE\" = 3
    SELECT \"GRÖSSE\" FROM artist
    SELECT \"οδος\" FROM artist
    SELECT \"οδοσ\" FROM artist
    SELECT NAME, Id FROM ARTIST WHERE ID = 1
    SELECT DISTINCT m3 FROM artist ORDER BY m3
    SELECT DISTINCT visits FROM guest ORDER BY id DESC
    SELECT name FROM guest ORDER BY 2
    SELECT name, visits FROM guest ORDER BY visits + id DESC LIMIT 5
    SELECT year AS model FROM car_model ORDER BY model LIMIT 3
    SELECT id FROM guest LIMIT 1 + 1
    SELECT id FROM guest LIMIT (SELECT 3) OFFSET (SELECT MIN(visits) + 1 FROM guest)
    SELECT id FROM guest LIMIT nosuch
    SELECT id FROM guest LIMIT 2 OFFSET -1
    SELECT (SELECT id, name FROM guest)
    SELECT (SELECT id FROM guest WHERE id < 0)
    SELECT id FROM guest WHERE id IN (SELECT id, name FROM guest)
    SELECT id FROM guest WHERE visits > (SELECT AVG(visits) FROM guest) AND name IN (SELECT name FROM artist)
    SELECT SUM(COUNT(*)) FROM guest
    SELECT name FROM guest WHERE MAX(visits) > 1
    SELECT NOSUCHFN(id) FROM guest
    SELECT T1.model, T2.name FROM car_model AS T1 JOIN manufacturer AS T2 ON T1.maker_id = T2.id WHERE T2.country = 'Japan'
    SELECT COUNT(*) FROM car_model AS T1 JOIN manufacturer AS T2 ON T1.maker_id = T2.id AND T1.year > 2005
    SELECT T2.name, COUNT(*) FROM car_model AS T1 JOIN manufacturer AS T2 ON T1.maker_id = T2.id GROUP BY T2.name ORDER BY COUNT(*) DESC, T2.name LIMIT 5
    SELECT T3.continent, AVG(T1.price) FROM car_model AS T1 JOIN manufacturer AS T2 ON T1.maker_id = T2.id JOIN country AS T3 ON T2.country = T3.name GROUP BY T3.continent
    SELECT T1.id, T3.name FROM car_model AS T1, manufacturer AS T2, country AS T3 WHERE T1.maker_id = T2.id AND T2.country = T3.name AND T1.year = 1995
    SELECT * FROM country AS T3 JOIN manufacturer AS T2 ON T2.country = T3.name JOIN car_model AS T1 ON T1.maker_id = T2.id WHERE T1.price > 90
    SELECT T2.* FROM car_model AS T1 JOIN manufacturer AS T2 ON T1.maker_id = T2.id WHERE T1.id < 4
    SELECT T9.* FROM car_model AS T1 JOIN manufacturer AS T2 ON T1.maker_id = T2.id
    SELECT * FROM manufacturer, car_model LIMIT 5
    SELECT T1.name, T2.model FROM manufacturer AS T1 LEFT JOIN car_model AS T2 ON T1.id = T2.maker_id WHERE T2.id IS NULL
    SELECT T1.name, COUNT(T2.id) FROM manufacturer AS T1 LEFT JOIN car_model AS T2 ON T1.id = T2.maker_id AND T2.year < 1992 GROUP BY T1.name
    SELECT COUNT(*) FROM car_model AS T1 JOIN manufacturer AS T2 ON T1.maker_id < T2.id
    SELECT COUNT(*) FROM car_model AS T1 JOIN car_model AS T2 ON T1.model = T2.model
    SELECT T1.id FROM car_model AS T1 JOIN manufacturer AS T2 ON T1.maker_id = T2.id WHERE ABS(T2.id) = 3
    SELECT name FROM manufacturer AS m JOIN car_model AS c ON m.id = c.maker_id
    SELECT d.n, m.name FROM (SELECT maker_id AS k, COUNT(*) AS n FROM car_model GROUP BY maker_id) AS d JOIN manufacturer AS m ON d.k = m.id ORDER BY d.n DESC, m.name LIMIT 4
    SELECT * FROM (SELECT id FROM guest WHERE 0 UNION SELECT id, name FROM guest WHERE id < 3) AS d
    SELECT d.id, g.name FROM (SELECT id FROM guest WHERE 0 UNION SELECT id, visits FROM guest WHERE id < 3) AS d JOIN guest AS g ON g.id = d.id
    SELECT d.* FROM (SELECT id, name FROM guest WHERE 0 UNION SELECT id FROM guest WHERE id < 3) AS d, country
    SELECT id FROM guest WHERE id < 3 UNION SELECT id, name FROM guest WHERE 0
    SELECT id FROM guest UNION SELECT id FROM guest ORDER BY id + 1
    SELECT id FROM guest UNION SELECT id FROM guest ORDER BY 4
    SELECT id FROM guest UNION SELECT id FROM guest ORDER BY nosuch
    SELECT name FROM guest INTERSECT SELECT name FROM artist
    SELECT model FROM car_model EXCEPT SELECT model FROM car_model WHERE year > 1995 ORDER BY 1 DESC LIMIT 3
    SELECT * FROM (SELECT * FROM (SELECT * FROM (SELECT id FROM guest) AS a) AS b) AS c
";

/// The hash-join fixture of `queries.rs`.
fn big() -> Database {
    let mut script = String::from(
        "CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER); CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER);",
    );
    for i in 0..120 {
        script.push_str(&format!("INSERT INTO a VALUES ({i}, {});", i % 10));
        script.push_str(&format!("INSERT INTO b VALUES ({i}, {});", i % 10));
    }
    database_from_script("big", &script).expect("hash-join fixture")
}

fn fixtures() -> Vec<(Database, Vec<String>)> {
    vec![
        (concert(), lines(CONCERT_STATEMENTS)),
        (big(), lines("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k")),
        (sem(), lines(SEM_STATEMENTS)),
        (wide(), lines(WIDE_STATEMENTS)),
    ]
}

/// Recorded when this test was added. A change to the executor must
/// reproduce them bit for bit; a mismatch is a behaviour change.
const STATEMENTS_NAIVE: u64 = 0x28439fa3e27406bb;
const STATEMENTS_OPTIMIZED: u64 = 0x209a0634f32aa3ac;
const GENERATED_NAIVE: u64 = 0x048a56d478bdc6f7;
const GENERATED_OPTIMIZED: u64 = 0xc3644432f750e4c7;

#[test]
fn fixed_statements_digest() {
    let fixtures = fixtures();
    let naive = digest_statements(&fixtures, PlanMode::Naive);
    let optimized = digest_statements(&fixtures, PlanMode::Optimized);
    assert_eq!(
        (naive, optimized),
        (STATEMENTS_NAIVE, STATEMENTS_OPTIMIZED),
        "statement digests moved: got ({naive:#018x}, {optimized:#018x})"
    );
}

#[test]
fn generated_corpus_digest() {
    let naive = digest_generated(PlanMode::Naive);
    let optimized = digest_generated(PlanMode::Optimized);
    assert_eq!(
        (naive, optimized),
        (GENERATED_NAIVE, GENERATED_OPTIMIZED),
        "generated digests moved: got ({naive:#018x}, {optimized:#018x})"
    );
}
