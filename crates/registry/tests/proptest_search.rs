//! Property: the incrementally-maintained search index answers every
//! query *identically* to the linear-scan oracle — same hits, same
//! (bit-exact) scores, same score-then-id order — no matter what
//! register / shared-owner link / remove history produced the registry,
//! and the index a WAL recovery rebuilds answers identically to the
//! live one it replaced.
//!
//! A second property runs at block scale: enough PEs per user to fill
//! several of the vector index's row blocks, so ranking goes through the
//! sparse block kernel, the row-major tail, and the swap-removes that
//! move rows between a block and the tail.
//!
//! This is the read-path analogue of `proptest_interleaved` (which pins
//! the WAL journal itself) and the same differential-oracle pattern the
//! script VM uses against the tree-walker.

use laminar_embed::BLOCK_ROWS;
use laminar_registry::service::EntityKey;
use laminar_registry::{QueryType, Registry, SearchHit, SearchOptions, SearchType};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// One registry mutation. Indices select from small pools so users
/// collide on names — exercising shared-owner links, duplicate
/// rejections and delete/re-register churn, all of which the index must
/// track per owner.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// (user, pe template, description template)
    RegisterPe(u8, u8, u8),
    RemovePe(u8, u8),
    RegisterWorkflow(u8, u8),
    RemoveWorkflow(u8, u8),
}

const USERS: u8 = 3;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..USERS, 0u8..5, 0u8..4).prop_map(|(u, p, d)| Op::RegisterPe(u, p, d)),
        (0u8..USERS, 0u8..5).prop_map(|(u, p)| Op::RemovePe(u, p)),
        (0u8..USERS, 0u8..3).prop_map(|(u, w)| Op::RegisterWorkflow(u, w)),
        (0u8..USERS, 0u8..3).prop_map(|(u, w)| Op::RemoveWorkflow(u, w)),
    ]
}

/// Identical source per template index, so re-registration by another
/// user takes the shared-owner link path instead of erroring.
fn pe_source(idx: u8) -> String {
    format!("pe Prop{idx} : iterative {{ input x; output output; process {{ emit(x * {idx} + 1); }} }}")
}

/// Some templates carry an explicit description (distinct token mixes),
/// some trigger the auto-summarizer.
fn description(idx: u8) -> Option<&'static str> {
    match idx {
        0 => Some("checks prime numbers quickly"),
        1 => Some("counts the words of a stream"),
        2 => Some("emits scaled sensor values"),
        _ => None,
    }
}

fn wf_source(idx: u8) -> String {
    format!(
        r#"
        pe WfProp{idx} : producer {{ output output; process {{ emit(iteration + {idx}); }} }}
        workflow PropFlow{idx} {{ doc "prime stream flow {idx}"; nodes {{ p = WfProp{idx}; }} }}
    "#
    )
}

fn apply(reg: &mut Registry, op: Op) {
    // Outcomes are ignored: duplicates and not-founds are legal under
    // colliding scripts. The property is about whatever state results.
    match op {
        Op::RegisterPe(u, p, d) => {
            let _ = reg.register_pe(&format!("user{u}"), &pe_source(p), description(d));
        }
        Op::RemovePe(u, p) => {
            let _ = reg.remove_pe(&format!("user{u}"), &EntityKey::Name(format!("Prop{p}")));
        }
        Op::RegisterWorkflow(u, w) => {
            let _ = reg.register_workflow(&format!("user{u}"), &wf_source(w), &format!("pflow{w}"), None);
        }
        Op::RemoveWorkflow(u, w) => {
            let _ = reg.remove_workflow(&format!("user{u}"), &EntityKey::Name(format!("pflow{w}")));
        }
    }
}

/// Query pool spanning the interesting shapes: single-token (vocabulary
/// scan), multi-token (cached-doc scan), code snippets (vector path),
/// punctuation (normalization), empty, and no-match.
const QUERIES: [&str; 8] = [
    "prime",
    "prop",
    "prime numbers",
    "scaled sensor",
    "emit(x * 2 + 1)",
    "Prop-3!",
    "",
    "zzz-no-such-token",
];

const MODES: [(SearchType, QueryType); 5] = [
    (SearchType::Workflow, QueryType::Text),
    (SearchType::Pe, QueryType::Text),
    (SearchType::Pe, QueryType::Code),
    (SearchType::Both, QueryType::Text),
    (SearchType::Both, QueryType::Code),
];

/// Every (user, query, mode, limit) answered by the index vs the scan.
fn assert_index_matches_scan(reg: &Registry) {
    for u in 0..USERS {
        let user = format!("user{u}");
        for query in QUERIES {
            for (st, qt) in MODES {
                for limit in [2usize, 25] {
                    let indexed = reg
                        .search_with(&user, query, st, qt, &SearchOptions { limit, force_scan: false })
                        .unwrap()
                        .hits;
                    let scanned = reg
                        .search_with(&user, query, st, qt, &SearchOptions { limit, force_scan: true })
                        .unwrap()
                        .hits;
                    prop_assert_eq!(
                        &indexed,
                        &scanned,
                        "index != scan for user {} query {:?} mode {:?}/{:?} limit {}",
                        user,
                        query,
                        st,
                        qt,
                        limit
                    );
                }
            }
        }
    }
}

/// All search answers for a registry, used to compare live vs recovered.
fn all_answers(reg: &Registry) -> Vec<(String, Vec<SearchHit>)> {
    let mut out = Vec::new();
    for u in 0..USERS {
        let user = format!("user{u}");
        for query in QUERIES {
            for (st, qt) in MODES {
                let hits = reg.search(&user, query, st, qt).unwrap();
                out.push((format!("{user}/{query}/{st:?}/{qt:?}"), hits));
            }
        }
    }
    out
}

fn tmpdir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("laminar-search-{tag}-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized mutation scripts; the index must equal the scan both
    /// mid-history and at the end.
    #[test]
    fn indexed_search_equals_linear_scan(script in prop::collection::vec(arb_op(), 1..40)) {
        let mut reg = Registry::in_memory();
        for u in 0..USERS {
            reg.register_user(&format!("user{u}"), "password").unwrap();
        }
        let midpoint = script.len() / 2;
        for (i, op) in script.into_iter().enumerate() {
            apply(&mut reg, op);
            if i + 1 == midpoint {
                assert_index_matches_scan(&reg);
            }
        }
        assert_index_matches_scan(&reg);
    }

    /// A recovered registry's rebuilt index answers every query exactly
    /// as the live one did — and still matches its own scan oracle.
    #[test]
    fn wal_replay_rebuilds_identical_index(
        script in prop::collection::vec(arb_op(), 1..25),
        case in 0u64..1_000_000,
    ) {
        let dir = tmpdir("replay", case);
        let before = {
            let mut reg = Registry::open(&dir).unwrap();
            for u in 0..USERS {
                reg.register_user(&format!("user{u}"), "password").unwrap();
            }
            for op in script {
                apply(&mut reg, op);
            }
            all_answers(&reg)
        };
        let reopened = Registry::open(&dir).unwrap();
        let after = all_answers(&reopened);
        prop_assert_eq!(before, after, "recovered index diverged from the live one");
        assert_index_matches_scan(&reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Distinct PE templates in the block-scale property: two full blocks
/// and a half.
const BLOCK_POOL: usize = 2 * BLOCK_ROWS + BLOCK_ROWS / 2;

const BLOCK_WORDS: [&str; 12] = [
    "prime", "stream", "sensor", "window", "median", "filter", "merge", "signal", "batch", "alert", "packet",
    "matrix",
];

fn block_pe_source(i: usize) -> String {
    format!(
        "pe Blk{i} : iterative {{ input x; output output; process {{ emit(x * {} + {i}); }} }}",
        i % 7 + 1
    )
}

/// Three-word descriptions; every tenth PE is left to the summarizer.
fn block_description(i: usize) -> Option<String> {
    (!i.is_multiple_of(10)).then(|| {
        format!(
            "{} {} {} processor",
            BLOCK_WORDS[i % 12],
            BLOCK_WORDS[(i * 5 + 3) % 12],
            BLOCK_WORDS[(i * 7 + 1) % 12]
        )
    })
}

const BLOCK_USER: &str = "blocks";

/// Semantic and code queries, including ones sharing no feature with the
/// corpus (all-tied scores).
const RANKED: [(QueryType, &str); 6] = [
    (QueryType::Text, "prime stream processor"),
    (QueryType::Text, "median window filter"),
    (QueryType::Text, "zzz unrelated words"),
    (QueryType::Code, "emit(x * 3 +"),
    (QueryType::Code, "process { emit(x"),
    (QueryType::Code, "print(y)"),
];

/// Ranked answers at a few limits, the last one covering every row.
fn ranked_answers(reg: &Registry, force_scan: bool) -> Vec<Vec<SearchHit>> {
    let mut out = Vec::new();
    for (qt, query) in RANKED {
        for limit in [5, 25, BLOCK_POOL + 1] {
            let opts = SearchOptions { limit, force_scan };
            out.push(reg.search_with(BLOCK_USER, query, SearchType::Pe, qt, &opts).unwrap().hits);
        }
    }
    out
}

fn assert_ranked_matches_scan(reg: &Registry, stage: &str, live: &BTreeSet<usize>) {
    let indexed = ranked_answers(reg, false);
    prop_assert_eq!(indexed.last().map(Vec::len), Some(live.len()), "{}: every live PE ranked", stage);
    prop_assert_eq!(indexed, ranked_answers(reg, true), "{}: index != scan with {} PEs", stage, live.len());
}

fn block_register(reg: &mut Registry, live: &mut BTreeSet<usize>, i: usize) {
    if reg.register_pe(BLOCK_USER, &block_pe_source(i), block_description(i).as_deref()).is_ok() {
        live.insert(i);
    }
}

fn block_remove(reg: &mut Registry, live: &mut BTreeSet<usize>, i: usize) {
    if reg.remove_pe(BLOCK_USER, &EntityKey::Name(format!("Blk{i}"))).is_ok() {
        live.remove(&i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fill more than a block, drain the tail to exactly a block
    /// boundary, remove rows inside blocks (the last block spills back
    /// into the tail and its last row moves across), then churn. Ranked
    /// answers equal the scan at every stage, and a WAL recovery rebuilds
    /// an index that answers identically.
    #[test]
    fn block_scale_ranking_equals_linear_scan(
        initial in (BLOCK_ROWS + 1)..BLOCK_POOL,
        removals in prop::collection::vec(0usize..BLOCK_POOL, 1..12),
        churn in prop::collection::vec((any::<bool>(), 0usize..BLOCK_POOL), 10..60),
        case in 0u64..1_000_000,
    ) {
        let dir = tmpdir("blocks", case);
        let (before, live) = {
            let mut reg = Registry::open(&dir).unwrap();
            reg.register_user(BLOCK_USER, "password").unwrap();
            let mut live = BTreeSet::new();
            for i in 0..initial {
                block_register(&mut reg, &mut live, i);
            }
            assert_ranked_matches_scan(&reg, "filled", &live);
            while !live.len().is_multiple_of(BLOCK_ROWS) {
                let newest = *live.last().unwrap();
                block_remove(&mut reg, &mut live, newest);
            }
            assert_ranked_matches_scan(&reg, "at a block boundary", &live);
            for i in removals {
                block_remove(&mut reg, &mut live, i);
            }
            assert_ranked_matches_scan(&reg, "removed across the boundary", &live);
            for (register, i) in churn {
                if register {
                    block_register(&mut reg, &mut live, i);
                } else {
                    block_remove(&mut reg, &mut live, i);
                }
            }
            assert_ranked_matches_scan(&reg, "after churn", &live);
            (ranked_answers(&reg, false), live)
        };
        let reopened = Registry::open(&dir).unwrap();
        prop_assert_eq!(before, ranked_answers(&reopened, false), "recovered index diverged from the live one");
        assert_ranked_matches_scan(&reopened, "recovered", &live);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
