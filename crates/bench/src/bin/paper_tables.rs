//! Regenerates every table and figure of the paper plus the measured
//! experiment tables E1–E13 (the index is the list of `e*` functions
//! below; the tables print to stdout and are not recorded in a file).
//!
//! ```sh
//! cargo run --release -p fd-bench --bin paper_tables           # full
//! cargo run --release -p fd-bench --bin paper_tables -- --fast # small sizes
//! ```

use fd_baselines::{exhaustive_top1_fsum, naive_top_k, outerjoin_fd, pio_fd};
use fd_bench::{bench_chain, bench_noisy_chain, bench_star, fmt_duration, time_median};
use fd_core::sim::TableSim;
use fd_core::{
    canonicalize, format_results, AMin, AProd, ApproxJoin, ExactSim, FMax, FdConfig, FdIter,
    FdQuery, FdiIter, ImpScores, InitStrategy, ProbScores, StoreEngine, TupleSet,
};
use fd_relational::textio::{format_relation, format_table};
use fd_relational::{tourist_database, Database, RelId, TupleId};
use fd_workloads::{chain, random_importance, DataSpec};

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let scale = if fast { 1 } else { 2 };

    table_1_and_2();
    table_3();
    figure_4_examples();
    e3_total_runtime(scale);
    e4_first_k(scale);
    e5_scaling(scale);
    e6_ranked_topk(scale);
    e7_nphard(fast);
    e8_e9_approx(scale);
    e10_store_ablation(scale);
    e11_init_ablation(scale);
    e12_block_ablation(scale);
    e13_parallel(scale);
}

fn header(title: &str) {
    println!("\n══════════════════════════════════════════════════════════════");
    println!("{title}");
    println!("══════════════════════════════════════════════════════════════");
}

/// E1: Table 1 (the source relations) and Table 2 (their full
/// disjunction).
fn table_1_and_2() {
    header("E1 — Table 1 (sources) and Table 2 (full disjunction)");
    let db = tourist_database();
    for rel in db.relations() {
        println!("{}", format_relation(&db, rel.id()));
    }
    let fd = canonicalize(FdQuery::over(&db).run().unwrap().into_sets());
    println!(
        "{}",
        format_results(&db, "Table 2: FD(Climates, Accommodations, Sites)", &fd)
    );
}

/// E2: Table 3 — the Incomplete/Complete trace of
/// `INCREMENTALFD({Climates, Accommodations, Sites}, 1)`.
fn table_3() {
    header("E2 — Table 3: the execution trace of INCREMENTALFD(R, 1)");
    let db = tourist_database();
    let mut it = FdiIter::with_config(&db, RelId(0), FdConfig::paper_faithful());
    let mut columns: Vec<(String, Vec<String>, Vec<String>)> = Vec::new();
    let (inc, comp) = it.snapshot();
    columns.push(("Initialization".into(), inc, comp));
    let mut iteration = 0;
    while it.next().is_some() {
        iteration += 1;
        let (inc, comp) = it.snapshot();
        columns.push((format!("Iteration {iteration}"), inc, comp));
    }
    for (name, inc, comp) in &columns {
        println!("{name}:");
        println!(
            "  Incomplete: {}",
            if inc.is_empty() {
                "∅".into()
            } else {
                inc.join("  ")
            }
        );
        println!(
            "  Complete:   {}",
            if comp.is_empty() {
                "∅".into()
            } else {
                comp.join("  ")
            }
        );
    }
}

/// E8 (part 1): Fig. 4 with Examples 6.1 and 6.3.
fn figure_4_examples() {
    header("E8 — Fig. 4 / Examples 6.1 and 6.3");
    let db = tourist_database();
    let (c1, a2, s1, s2) = (TupleId(0), TupleId(4), TupleId(6), TupleId(7));
    let mut sim = TableSim::new(ExactSim);
    sim.set(c1, a2, 0.8);
    sim.set(c1, s1, 0.8);
    sim.set(c1, s2, 0.8);
    sim.set(a2, s1, 1.0);
    sim.set(a2, s2, 0.5);
    let prob = ProbScores::from_fn(&db, |t| match t.0 {
        0 => 0.9,
        4 => 1.0,
        6 => 0.9,
        7 => 0.7,
        _ => 1.0,
    });
    let amin = AMin::new(sim.clone(), prob);
    let aprod = AProd::new(sim);
    println!(
        "A_min({{c1,a2,s2}})  = {}   (paper: 0.5)",
        amin.score(&db, &[c1, a2, s2])
    );
    println!(
        "A_prod({{c1,a2,s2}}) = {}  (paper: 0.32)",
        aprod.score(&db, &[c1, a2, s2])
    );
    let t = fd_core::jcc::rebuild(&db, vec![c1, a2, s1]);
    let mut stats = fd_core::Stats::new();
    let m_min = amin.maximal_subsets(&db, &t, s2, 0.4, &mut stats);
    let m_prod = aprod.maximal_subsets(&db, &t, s2, 0.4, &mut stats);
    println!(
        "Example 6.3 (τ=0.4): A_min maximal subsets: {}",
        m_min
            .iter()
            .map(|s| s.label(&db))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "Example 6.3 (τ=0.4): A_prod maximal subsets: {}",
        m_prod
            .iter()
            .map(|s| s.label(&db))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

/// E3: total-runtime comparison (Cor. 4.9 vs reference \[3\] and \[2\]).
/// "Incremental" is the plain n-run algorithm; "Sec.7" adds the paper's
/// repeated-work optimization (TrimExtend initialization) — the
/// configuration the paper positions against \[3\].
fn e3_total_runtime(scale: usize) {
    header("E3 — total runtime: INCREMENTALFD vs batch [3] vs outerjoin [2]");
    let trim = FdConfig {
        init: InitStrategy::TrimExtend,
        ..FdConfig::default()
    };
    let mut rows_out = Vec::new();
    for (shape, db) in [
        ("chain n=3", bench_chain(3, 50 * scale)),
        ("chain n=4", bench_chain(4, 16 * scale)),
        ("star  n=4", bench_star(4, 16 * scale)),
    ] {
        let (fd, t_naive) = time_median(3, || FdQuery::over(&db).run().unwrap().into_sets());
        let (fd7, t_sec7) = time_median(3, || {
            FdQuery::over(&db)
                .with_config(trim)
                .run()
                .unwrap()
                .into_sets()
        });
        let ((batch, _), t_batch) = time_median(3, || pio_fd(&db));
        assert_eq!(canonicalize(fd.clone()), batch);
        assert_eq!(canonicalize(fd7), batch);
        let t_oj = match time_median(3, || outerjoin_fd(&db)) {
            (Ok(_), t) => fmt_duration(t),
            (Err(e), _) => format!("refused ({e})"),
        };
        rows_out.push(vec![
            shape.to_string(),
            db.num_tuples().to_string(),
            fd.len().to_string(),
            fmt_duration(t_naive),
            fmt_duration(t_sec7),
            fmt_duration(t_batch),
            t_oj,
            format!("{:.1}x", t_batch.as_secs_f64() / t_sec7.as_secs_f64()),
        ]);
    }
    println!(
        "{}",
        format_table(
            "total runtime (median of 3)",
            &[
                "workload",
                "tuples",
                "|FD|",
                "incremental",
                "incr. + Sec.7",
                "batch [3]",
                "outerjoin [2]",
                "Sec.7 vs [3]",
            ],
            &rows_out
        )
    );
}

/// E4: time to the first k answers (Thm 4.10 / PINC).
fn e4_first_k(scale: usize) {
    header("E4 — time to first k answers (incremental vs batch)");
    let db = bench_chain(5, 12 * scale);
    let (_, t_batch) = time_median(1, || pio_fd(&db));
    let mut rows_out = Vec::new();
    for k in [1usize, 10, 100] {
        let (got, t_k) = time_median(3, || FdIter::new(&db).take(k).count());
        rows_out.push(vec![
            k.to_string(),
            got.to_string(),
            fmt_duration(t_k),
            fmt_duration(t_batch),
            format!(
                "{:.0}x",
                t_batch.as_secs_f64() / t_k.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            "first-k delivery (batch returns nothing until done)",
            &[
                "k",
                "delivered",
                "incremental",
                "batch first answer",
                "advantage"
            ],
            &rows_out
        )
    );
}

/// E5: runtime vs output size (the f² shape of Thm 4.8).
fn e5_scaling(scale: usize) {
    header("E5 — runtime vs output size f (Thm 4.8: quadratic-in-f family)");
    let rows = 40 * scale;
    let mut rows_out = Vec::new();
    for domain in [rows, rows / 2, rows / 4, rows / 8] {
        let db = chain(3, &DataSpec::new(rows, domain.max(1)).seed(0xFD));
        let (fd, t) = time_median(3, || FdQuery::over(&db).run().unwrap().into_sets());
        let f: usize = fd.iter().map(TupleSet::total_size).sum();
        rows_out.push(vec![
            domain.to_string(),
            fd.len().to_string(),
            f.to_string(),
            fmt_duration(t),
        ]);
    }
    println!(
        "{}",
        format_table(
            "fixed input, shrinking join domain ⇒ growing output",
            &["join domain", "|FD| sets", "f (total size)", "runtime"],
            &rows_out
        )
    );
}

/// E6: ranked top-k vs full-then-sort (Thm 5.5).
fn e6_ranked_topk(scale: usize) {
    header("E6 — top-k in ranking order vs materialize-and-sort");
    let db = bench_chain(4, 40 * scale);
    let imp = random_importance(&db, 7);
    let f = FMax::new(&imp);
    let mut rows_out = Vec::new();
    for k in [1usize, 10, 50] {
        let (ranked, t_ranked) = time_median(3, || {
            FdQuery::over(&db)
                .ranked(&f)
                .top_k(k)
                .run()
                .unwrap()
                .into_ranked()
                .unwrap()
        });
        let (naive, t_naive) = time_median(3, || naive_top_k(&db, &f, k));
        assert_eq!(
            ranked.iter().map(|x| x.1).collect::<Vec<_>>(),
            naive.iter().map(|x| x.1).collect::<Vec<_>>()
        );
        rows_out.push(vec![
            k.to_string(),
            fmt_duration(t_ranked),
            fmt_duration(t_naive),
            format!(
                "{:.1}x",
                t_naive.as_secs_f64() / t_ranked.as_secs_f64().max(1e-9)
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            "top-k with f_max (monotonically 1-determined)",
            &["k", "PriorityIncrementalFD", "full + sort", "speedup"],
            &rows_out
        )
    );
}

/// E7: the NP-hard f_sum vs the tractable f_max (Prop. 5.1).
fn e7_nphard(fast: bool) {
    header("E7 — Prop 5.1: exhaustive top-(1, f_sum) blows up; f_max stays flat");
    let max_n = if fast { 5 } else { 6 };
    let mut rows_out = Vec::new();
    for n in 2..=max_n {
        // domain 2 with several rows ⇒ the number of maximal sets grows
        // exponentially with n.
        let db = chain(n, &DataSpec::new(8, 2).seed(0xFD));
        let imp = ImpScores::uniform(&db, 1.0);
        let (_, t_sum) = time_median(1, || exhaustive_top1_fsum(&db, &imp));
        let fmax = FMax::new(&imp);
        let (_, t_max) = time_median(1, || {
            FdQuery::over(&db)
                .ranked(&fmax)
                .top_k(1)
                .run()
                .unwrap()
                .into_ranked()
                .unwrap()
        });
        rows_out.push(vec![
            n.to_string(),
            fmt_duration(t_sum),
            fmt_duration(t_max),
        ]);
    }
    println!(
        "{}",
        format_table(
            "top-1 under f_sum (exhaustive) vs f_max (ranked algorithm)",
            &["n relations", "f_sum exhaustive", "f_max ranked"],
            &rows_out
        )
    );
}

/// E8/E9: approximate full disjunctions across thresholds.
fn e8_e9_approx(scale: usize) {
    header("E9 — APPROXINCREMENTALFD across thresholds (A_min, edit distance)");
    let db = bench_noisy_chain(3, 20 * scale, 0.3);
    let exact = FdQuery::over(&db).run().unwrap().into_sets();
    let a = AMin::new(fd_core::EditDistanceSim, ProbScores::uniform(&db, 1.0));
    let mut rows_out = vec![vec![
        "exact FD".to_string(),
        exact.len().to_string(),
        exact.iter().filter(|s| s.len() >= 2).count().to_string(),
        "-".into(),
    ]];
    for tau in [0.95, 0.85, 0.75] {
        let (afd, t) = time_median(3, || {
            FdQuery::over(&db)
                .approx(&a, tau)
                .run()
                .unwrap()
                .into_sets()
        });
        rows_out.push(vec![
            format!("AFD τ={tau}"),
            afd.len().to_string(),
            afd.iter().filter(|s| s.len() >= 2).count().to_string(),
            fmt_duration(t),
        ]);
    }
    println!(
        "{}",
        format_table(
            "typo'd chain: lower τ recovers more joins",
            &["variant", "results", "combined (≥2 tuples)", "runtime"],
            &rows_out
        )
    );
}

/// E10: store-engine ablation (Section 7 indexing).
fn e10_store_ablation(scale: usize) {
    header("E10 — Section 7 ablation: list scans vs hash index by Ri-tuple");
    let mut rows_out = Vec::new();
    for rows in [10 * scale, 15 * scale, 20 * scale] {
        let db = bench_chain(4, rows);
        let mut line = vec![rows.to_string()];
        for engine in [StoreEngine::Scan, StoreEngine::Indexed] {
            let cfg = FdConfig {
                engine,
                ..FdConfig::default()
            };
            let (scans, t) = time_median(3, || {
                let mut it = FdIter::with_config(&db, cfg);
                for _ in it.by_ref() {}
                it.stats_total().total_store_scans()
            });
            line.push(scans.to_string());
            line.push(fmt_duration(t));
        }
        rows_out.push(line);
    }
    println!(
        "{}",
        format_table(
            "chain n=4",
            &[
                "rows/rel",
                "Scan: store scans",
                "Scan: time",
                "Indexed: store scans",
                "Indexed: time"
            ],
            &rows_out
        )
    );
}

/// E11: initialization-strategy ablation (Section 7).
fn e11_init_ablation(scale: usize) {
    header("E11 — Section 7 ablation: Incomplete initialization strategies");
    let db = bench_chain(4, 20 * scale);
    let mut rows_out = Vec::new();
    for init in [
        InitStrategy::Singletons,
        InitStrategy::ReuseResults,
        InitStrategy::TrimExtend,
    ] {
        let cfg = FdConfig {
            init,
            ..FdConfig::default()
        };
        let ((count, stats), t) = time_median(3, || {
            let mut it = FdIter::with_config(&db, cfg);
            let mut n = 0usize;
            for _ in it.by_ref() {
                n += 1;
            }
            (n, it.stats_total())
        });
        rows_out.push(vec![
            format!("{init:?}"),
            count.to_string(),
            stats.candidate_scans.to_string(),
            stats.jcc_checks.to_string(),
            fmt_duration(t),
        ]);
    }
    println!(
        "{}",
        format_table(
            "full FD over all i (chain n=4)",
            &[
                "strategy",
                "results",
                "candidate scans",
                "jcc checks",
                "runtime"
            ],
            &rows_out
        )
    );
}

/// E12: block-based execution (Section 7) — simulated page fetches.
fn e12_block_ablation(scale: usize) {
    header("E12 — Section 7: block-based execution (simulated pages touched)");
    let db = bench_chain(3, 40 * scale);
    let mut rows_out = Vec::new();
    for page_size in [1usize, 8, 64, 512] {
        let cfg = FdConfig {
            page_size: Some(page_size),
            ..FdConfig::default()
        };
        let ((results, pages), t) = time_median(3, || {
            let mut total_pages = 0u64;
            let mut results = 0usize;
            for rel_idx in 0..db.num_relations() {
                let ri = RelId(rel_idx as u16);
                let mut it = FdiIter::with_config(&db, ri, cfg);
                for set in it.by_ref() {
                    if !set.has_tuple_before(&db, ri) {
                        results += 1;
                    }
                }
                total_pages += it.pages_read();
            }
            (results, total_pages)
        });
        rows_out.push(vec![
            page_size.to_string(),
            results.to_string(),
            pages.to_string(),
            fmt_duration(t),
        ]);
    }
    println!(
        "{}",
        format_table(
            "chain n=3; identical results at every block size",
            &["tuples/page", "results", "pages fetched", "runtime"],
            &rows_out
        )
    );
}

/// E13: parallel full disjunction across the n independent runs.
fn e13_parallel(scale: usize) {
    header("E13 — parallel full disjunction (one FDi run per worker)");
    let db = bench_star(5, 8 * scale);
    let mut baseline = None;
    let mut rows_out = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (out, t) = time_median(3, || {
            FdQuery::over(&db)
                .parallel(threads)
                .run()
                .unwrap()
                .into_sets()
        });
        let base = *baseline.get_or_insert(t);
        rows_out.push(vec![
            threads.to_string(),
            out.len().to_string(),
            fmt_duration(t),
            format!("{:.2}x", base.as_secs_f64() / t.as_secs_f64().max(1e-9)),
        ]);
    }
    println!(
        "{}",
        format_table(
            "star n=5",
            &["threads", "results", "runtime", "speedup"],
            &rows_out
        )
    );
}

/// Keeps `Database` in scope for doc purposes (the helpers above return
/// it); silences the unused-import lint if sections get reordered.
#[allow(dead_code)]
fn _type_anchor(_db: &Database) {}
