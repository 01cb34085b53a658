//! Output-identity guard for the enumeration algorithms.
//!
//! Pins, for three workloads (the paper's tourist database, a dense
//! `chain(4)` and a small noisy `chain(3)`) and three execution
//! configurations (`FdConfig::paper_faithful()`, the default, and
//! block-based execution with 7 tuples per page):
//!
//! * `FDi` per relation, `FD`, ranked top-all (`f_max`) and a multi-seed
//!   `delta_insert_many`: the ordered emission, the full `Stats` and the
//!   pages read;
//! * the approximate (`A_min` over edit distance) and ranked-approximate
//!   full disjunctions: the ordered emission under `StoreEngine::Scan`,
//!   the canonical (sorted) set under `StoreEngine::Indexed`. Their
//!   `Stats` are not pinned: the work counters of a merge-partner search
//!   depend on the store layout, not on the algorithm's output.
//!
//! The golden text lives in `tests/golden/algorithm_golden.golden`.
//! Regenerate it after an intentional change with:
//! `UPDATE_GOLDEN=1 cargo test --test algorithm_golden`.

use full_disjunction::core::delta::delta_insert_many;
use full_disjunction::core::sim::EditDistanceSim;
use full_disjunction::core::{AMin, RankedApproxFdIter};
use full_disjunction::prelude::*;
use full_disjunction::workloads::{chain, DataSpec};
use std::fmt::Write as _;

const TAU: f64 = 0.8;

fn workloads() -> Vec<(&'static str, Database)> {
    vec![
        ("tourist", tourist_database()),
        ("dense-chain4", chain(4, &DataSpec::new(10, 3).seed(1))),
        (
            "noisy-chain3",
            chain(3, &DataSpec::new(5, 3).seed(4).typos(0.3)),
        ),
    ]
}

fn configs() -> Vec<(&'static str, FdConfig)> {
    vec![
        ("paper_faithful", FdConfig::paper_faithful()),
        ("default", FdConfig::default()),
        (
            "page_size7",
            FdConfig {
                page_size: Some(7),
                ..FdConfig::default()
            },
        ),
    ]
}

fn members(s: &TupleSet) -> String {
    let ids: Vec<String> = s.tuples().iter().map(|t| t.0.to_string()).collect();
    format!("{{{}}}", ids.join(","))
}

fn stats_line(s: &Stats) -> String {
    let fields: Vec<String> = s.fields().iter().map(|(n, v)| format!("{n}={v}")).collect();
    format!("stats {}", fields.join(" "))
}

fn sets_block(out: &mut String, sets: &[TupleSet]) {
    for s in sets {
        writeln!(out, "{}", members(s)).unwrap();
    }
}

fn ranked_block(out: &mut String, pairs: &[(TupleSet, f64)]) {
    for (s, r) in pairs {
        writeln!(out, "{} {r:?}", members(s)).unwrap();
    }
}

fn render(name: &str, db: &Database, cname: &str, cfg: FdConfig) -> String {
    let mut out = String::new();
    let imp = ImpScores::from_fn(db, |t| (t.0 % 5) as f64);
    let f = FMax::new(&imp);
    let a = AMin::new(EditDistanceSim, ProbScores::uniform(db, 1.0));
    let ordered_approx = cfg.engine == StoreEngine::Scan;

    for rel in 0..db.num_relations() {
        let ri = RelId(rel as u16);
        writeln!(out, "== {name} {cname} fdi {rel}").unwrap();
        let mut it = FdiIter::with_config(db, ri, cfg);
        let sets: Vec<TupleSet> = (&mut it).collect();
        sets_block(&mut out, &sets);
        writeln!(out, "{}", stats_line(it.stats())).unwrap();
        writeln!(out, "pages {}", it.pages_read()).unwrap();
    }

    writeln!(out, "== {name} {cname} fd").unwrap();
    let mut it = FdIter::with_config(db, cfg);
    let sets: Vec<TupleSet> = (&mut it).collect();
    sets_block(&mut out, &sets);
    writeln!(out, "{}", stats_line(&it.stats_total())).unwrap();

    writeln!(out, "== {name} {cname} ranked fmax").unwrap();
    let mut it = RankedFdIter::with_config(db, &f, cfg);
    let pairs: Vec<(TupleSet, f64)> = (&mut it).collect();
    ranked_block(&mut out, &pairs);
    writeln!(out, "{}", stats_line(it.stats())).unwrap();
    writeln!(out, "pages {}", it.pages_read()).unwrap();

    writeln!(out, "== {name} {cname} afd amin {TAU}").unwrap();
    let mut sets: Vec<TupleSet> = ApproxAllIter::with_config(db, &a, TAU, cfg).collect();
    if !ordered_approx {
        sets.sort();
    }
    sets_block(&mut out, &sets);

    writeln!(out, "== {name} {cname} ranked afd amin {TAU} fmax").unwrap();
    let mut pairs: Vec<(TupleSet, f64)> =
        RankedApproxFdIter::with_config(db, &a, TAU, &f, cfg).collect();
    if !ordered_approx {
        pairs.sort_by(|x, y| x.0.cmp(&y.0));
    }
    ranked_block(&mut out, &pairs);

    // Multi-seed delta: the last tuple of the first and of the last
    // relation enter a database whose full disjunction was materialized
    // without them.
    let seeds: Vec<TupleId> = [0, db.num_relations() - 1]
        .iter()
        .filter_map(|&r| db.tuples_of(RelId(r as u16)).last())
        .collect();
    let mut without = db.clone();
    for &t in &seeds {
        without.remove_tuple(t).unwrap();
    }
    let previous: Vec<TupleSet> =
        FdIter::with_config(&without, FdConfig::paper_faithful()).collect();
    let delta = delta_insert_many(db, &seeds, &previous, cfg);
    let seed_ids: Vec<String> = seeds.iter().map(|t| t.0.to_string()).collect();
    writeln!(
        out,
        "== {name} {cname} delta_insert_many {}",
        seed_ids.join(",")
    )
    .unwrap();
    writeln!(out, "added").unwrap();
    sets_block(&mut out, &delta.added);
    writeln!(out, "subsumed").unwrap();
    sets_block(&mut out, &delta.subsumed);
    writeln!(out, "{}", stats_line(&delta.stats)).unwrap();
    out
}

#[test]
fn algorithms_match_the_recorded_golden() {
    let mut text = String::new();
    for (name, db) in workloads() {
        for (cname, cfg) in configs() {
            text.push_str(&render(name, &db, cname, cfg));
        }
    }
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/algorithm_golden.golden");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden, &text).expect("rewrite golden");
    }
    let expected = std::fs::read_to_string(&golden).expect("golden file");
    // Compare section by section so a failure names the first section
    // that diverged instead of dumping the whole file.
    let sections = |s: &str| -> Vec<String> {
        s.split("== ")
            .filter(|x| !x.is_empty())
            .map(str::to_owned)
            .collect()
    };
    let (got, want) = (sections(&text), sections(&expected));
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "section diverged from the golden");
    }
    assert_eq!(got.len(), want.len(), "section count");
}
