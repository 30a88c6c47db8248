//! A superseded catalog revision keeps nothing resident. Every write to
//! the store makes the next dispatch refresh the mirror, and the revision
//! observer derives the new revision's value index and schema profile;
//! the old revision's index and profile must drop with their last `Arc`,
//! leaving exactly one of each per database. Nothing here sleeps or reads
//! memory usage: the dispatches run one after another on this thread, and
//! residency is read off `Weak` handles and strong counts.

use std::sync::{Arc, Weak};

use codes::{
    pretrain, table4_models, CodesModel, CodesSystem, Config, InferenceRequest, PretrainConfig,
    PromptOptions, SketchCatalog,
};
use codes_linker::{LogReg, SchemaClassifier, SchemaProfile};
use codes_retrieval::ValueIndex;
use codes_serve::{Backend, SystemBackend};
use codes_storage::{CatalogService, ConnectionPool, IntrospectOptions, MemoryBackend, PoolConfig};
use sqlengine::{Column, DataType, Database, TableSchema};

const DATABASES: [&str; 2] = ["shop", "depot"];
const WRITES: usize = 12;

fn database(name: &str) -> Database {
    let mut db = Database::new(name);
    for table in ["events", "people"] {
        let t = db
            .create_table(TableSchema::new(
                table,
                vec![
                    Column::new("id", DataType::Integer).primary_key(),
                    Column::new("label", DataType::Text),
                ],
            ))
            .expect("fresh table");
        t.insert(vec![1.into(), format!("{table} one").into()]).expect("row fits");
    }
    db
}

#[test]
fn no_superseded_revision_keeps_an_index_or_a_profile_alive() {
    let sketches = Arc::new(SketchCatalog::build());
    let spec = table4_models().into_iter().find(|m| m.name == "CodeS-1B").expect("known model");
    let lm = pretrain(&sketches, &spec, &PretrainConfig { scale: 10, seed: 3 });
    let classifier = SchemaClassifier::new(LogReg::new(8), LogReg::new(10), false);
    let system = Arc::new(
        CodesSystem::new(CodesModel::new(lm, sketches), PromptOptions::sft())
            .with_classifier(classifier),
    );

    let admin = MemoryBackend::new(DATABASES.iter().map(|name| database(name)).collect());
    let pool =
        ConnectionPool::new(Arc::new(MemoryBackend::over(admin.store())), PoolConfig::default());
    let service = Arc::new(CatalogService::new(pool, IntrospectOptions::default()));
    let backend = SystemBackend::with_catalogs(Arc::clone(&system), Arc::clone(&service));

    // The index and profile each database is served from right now.
    let current = |db_id: &str| -> (Arc<ValueIndex>, Arc<SchemaProfile>) {
        let catalog = service.catalog(db_id).expect("attached");
        let index = Arc::clone(&system.value_index_snapshot()[db_id]);
        assert_eq!(
            index.built_revision(),
            catalog.database.revision(),
            "{db_id}: index is current"
        );
        let classifier = system.classifier.as_ref().expect("classifier attached");
        (index, classifier.profile(&catalog.database))
    };
    let mut seen: Vec<Vec<(Weak<ValueIndex>, Weak<SchemaProfile>)>> = vec![Vec::new(); 2];
    let record = |seen: &mut Vec<(Weak<ValueIndex>, Weak<SchemaProfile>)>, db_id: &str| {
        let (index, profile) = current(db_id);
        seen.push((Arc::downgrade(&index), Arc::downgrade(&profile)));
    };
    for (d, db_id) in DATABASES.iter().enumerate() {
        record(&mut seen[d], db_id);
    }

    for write in 0..WRITES {
        for (d, db_id) in DATABASES.iter().enumerate() {
            admin
                .mutate(db_id, |db| {
                    let table = db.table_mut(["events", "people"][write % 2]).expect("table");
                    let id = 100 + write as i64;
                    table
                        .insert(vec![id.into(), format!("written {write}").into()])
                        .expect("row fits");
                })
                .expect("database exists");
            let request = InferenceRequest::new(*db_id, "How many events are there?");
            let reply = backend.infer(&request, write as u64, &Config::default()).expect("answers");
            assert!(reply.degradations.is_empty(), "{:?}", reply.degradations);
            record(&mut seen[d], db_id);
        }
    }

    for (db_id, seen) in DATABASES.iter().zip(&seen) {
        assert_eq!(seen.len(), WRITES + 1);
        let (live, dead) = seen.split_last().expect("one per revision");
        for (revision, (index, profile)) in dead.iter().enumerate() {
            assert!(
                index.upgrade().is_none(),
                "{db_id}: index of revision {revision} still resident"
            );
            assert!(
                profile.upgrade().is_none(),
                "{db_id}: profile of revision {revision} still resident"
            );
        }
        // Held once: by the system and by the classifier, plus this upgrade.
        let (index, profile) = (live.0.upgrade().expect("live"), live.1.upgrade().expect("live"));
        assert_eq!(Arc::strong_count(&index), 2, "{db_id}: one index held");
        assert_eq!(Arc::strong_count(&profile), 2, "{db_id}: one profile held");
        assert!(Arc::ptr_eq(&index, &current(db_id).0));
    }
}
