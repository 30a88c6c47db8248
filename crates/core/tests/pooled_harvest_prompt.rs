//! A catalog harvested over a pooled connection must render the database
//! prompt a bare connection's harvest renders: the Figure-4 bytes depend
//! on table order, row order (representative values, the BM25 value
//! index) and every schema fact, so this is where a mirror assembled in
//! the wrong order would show.

use std::sync::Arc;

use codes::{build_prompt, PromptOptions};
use codes_datasets::finance::bank_financials_db;
use codes_retrieval::ValueIndex;
use codes_storage::{
    introspect, Backend, CatalogService, ConnectionPool, IntrospectOptions, MemoryBackend,
    PoolConfig,
};

fn prompt_for(db: &sqlengine::Database) -> String {
    let idx = ValueIndex::build(db);
    let question = "How many clients opened their accounts in Jesenik branch were women?";
    build_prompt(db, question, None, None, Some(&idx), &PromptOptions::sft()).serialize()
}

#[test]
fn pooled_harvest_renders_the_single_connection_prompt() {
    let backend = Arc::new(MemoryBackend::new(vec![bank_financials_db(1)]));
    let solo = introspect(&mut backend.connect().expect("connect"), "bank_financials")
        .expect("single connection");
    let expected = prompt_for(&solo.database);
    for capacity in [1usize, 2, 8] {
        let pool = ConnectionPool::with_registry(
            Arc::clone(&backend) as Arc<dyn Backend>,
            PoolConfig { capacity, ..PoolConfig::default() },
            &codes_obs::Registry::new(),
        );
        let pooled = CatalogService::new(pool, IntrospectOptions::default())
            .attach("bank_financials")
            .expect("pooled harvest");
        assert_eq!(pooled.revision, solo.revision);
        assert_eq!(prompt_for(&pooled.database), expected, "pool capacity {capacity}");
    }
}
