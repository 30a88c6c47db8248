//! Introspection round-trip: a catalog mirrored off a live backend must
//! be indistinguishable from a hand-registered one where it matters — the
//! serialized Figure-4 prompt, the BM25 value index, and the revision
//! stamp the cache invalidation rides on.
//!
//! This is the acceptance bar for live schema introspection: if the
//! mirror dropped a column comment, reordered rows into a different value
//! index, or lost a PK/FK edge, the prompt bytes would differ and the
//! whole reproduction stack would silently drift for attached databases.

use std::sync::Arc;

use codes::{build_prompt, PromptOptions};
use codes_datasets::finance::bank_financials_db;
use codes_retrieval::ValueIndex;
use codes_storage::{introspect, Backend, MemoryBackend};

fn prompt_for(db: &sqlengine::Database) -> String {
    let idx = ValueIndex::build(db);
    let question = "How many clients opened their accounts in Jesenik branch were women?";
    build_prompt(db, question, None, None, Some(&idx), &PromptOptions::sft()).serialize()
}

#[test]
fn introspected_catalog_renders_a_byte_identical_figure4_prompt() {
    let hand_registered = bank_financials_db(1);
    let expected = prompt_for(&hand_registered);

    let backend = MemoryBackend::new(vec![bank_financials_db(1)]);
    let mut conn = backend.connect().expect("in-memory connect");
    let catalog = introspect(&mut conn, "bank_financials").expect("introspection succeeds");

    assert_eq!(
        prompt_for(&catalog.database),
        expected,
        "the introspected mirror and the hand-registered catalog must serialize to \
         byte-identical prompts"
    );
}

#[test]
fn introspected_mirror_carries_the_backend_revision_stamp() {
    let backend = MemoryBackend::new(vec![bank_financials_db(1)]);
    let live_revision = {
        let store = backend.store();
        let store = store.read();
        store.get("bank_financials").expect("db registered").revision()
    };
    let mut conn = backend.connect().expect("connect");
    let catalog = introspect(&mut conn, "bank_financials")
        .expect("introspection succeeds");
    assert_eq!(catalog.revision, live_revision, "catalog stamp matches the live backend");
    assert_eq!(
        catalog.database.revision(),
        live_revision,
        "the executable mirror itself is stamped, so revision-aware value-index reuse and \
         cache generation checks treat it exactly like the live catalog"
    );

    // Re-introspecting an unchanged backend observes the same token —
    // the 'equal revisions imply identical catalog state' invariant that
    // keeps cache generations stable across redundant refreshes.
    let again = introspect(&mut conn, "bank_financials")
        .expect("re-introspection succeeds");
    assert_eq!(again.revision, catalog.revision);

    // A live mutation moves the token, and the fresh mirror carries it.
    backend
        .mutate("bank_financials", |db| {
            db.table_mut("client")
                .expect("client table")
                .insert(vec![9_999.into(), "Zora".into(), "F".into(), "Jesenik".into(), 1.into()])
                .expect("row fits");
        })
        .expect("db registered");
    let refreshed = introspect(&mut conn, "bank_financials")
        .expect("introspection after mutation succeeds");
    assert_ne!(refreshed.revision, catalog.revision, "mutations move the stamp");
}

#[test]
fn prepare_catalog_reconciles_value_index_and_cache_generation() {
    use codes::{
        pretrain, table4_models, CacheSettings, CodesModel, CodesSystem, PretrainConfig,
        SketchCatalog, SystemCache,
    };

    let registry = codes_obs::Registry::new();
    let cache = Arc::new(SystemCache::with_registry(&registry, CacheSettings::default()));
    let sketches = Arc::new(SketchCatalog::build());
    let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
    let lm = pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 });
    let system = CodesSystem::new(CodesModel::new(lm, sketches), PromptOptions::sft())
        .with_cache(Arc::clone(&cache));

    let backend = MemoryBackend::new(vec![bank_financials_db(1)]);
    let mut conn = backend.connect().expect("connect");
    let catalog = introspect(&mut conn, "bank_financials")
        .expect("introspection succeeds");

    system.prepare_database(&catalog.database);
    let generation = cache.generation("bank_financials");
    // Preparing the same catalog again is idempotent: same revision, no
    // generation bump.
    system.prepare_database(&catalog.database);
    assert_eq!(cache.generation("bank_financials"), generation);

    // A refreshed catalog with a moved revision bumps the generation,
    // exactly like a local catalog mutation would.
    backend
        .mutate("bank_financials", |db| {
            db.table_mut("client")
                .expect("client table")
                .insert(vec![8_888.into(), "Milan".into(), "M".into(), "Praha".into(), 1.into()])
                .expect("row fits");
        })
        .expect("db registered");
    let refreshed = introspect(&mut conn, "bank_financials")
        .expect("re-introspection succeeds");
    system.prepare_database(&refreshed.database);
    assert!(
        cache.generation("bank_financials") > generation,
        "a schema change observed through re-introspection invalidates cached entries"
    );
}
