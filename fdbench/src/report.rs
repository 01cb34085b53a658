//! Turning one run's samples into named metrics, the human-readable
//! table, the traced run's layer report and the final JSON line.

use crate::gate::Checks;
use crate::live::{ChurnRun, RecoveryRun};
use crate::query::QueryRun;
use crate::samples::Samples;
use crate::trace::{LayerTime, Tracer};
use crate::workload::Spec;
use std::fmt::Write;

pub struct Measured<'a> {
    pub spec: &'a Spec,
    pub setup: Samples,
    pub setup_wall: Samples,
    pub queries: QueryRun,
    pub churn: ChurnRun,
    pub recovery: RecoveryRun,
    pub snapshot_write_ms: Samples,
    pub peak_rss_mb: f64,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count or a single reading).
    pub samples: usize,
    /// What the value is computed from; for a per-layer metric also the
    /// end-to-end metric and workload it is predicted to move.
    pub note: String,
}

fn metric(
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
    samples: usize,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name,
        unit,
        value: value.filter(|v| v.is_finite()).unwrap_or(0.0),
        samples,
        note: note.into(),
    }
}

fn median(name: &'static str, unit: &'static str, s: &Samples, note: &str) -> Metric {
    metric(name, unit, s.median(), s.len(), format!("median; {note}"))
}

/// The p99 where ten samples lie beyond it; the churn makes at least
/// 1000 commits with events so this holds, and says so if it does not.
fn p99(name: &'static str, s: &Samples, note: &str) -> Metric {
    match s.tail(0.99) {
        Some(v) => metric(name, "ms", Some(v), s.len(), format!("p99; {note}")),
        None => metric(
            name,
            "ms",
            s.max(),
            s.len(),
            format!("MAX (too few samples for p99); {note}"),
        ),
    }
}

/// The median of a wall-clock reading, for a note.
fn wall(s: &Samples, unit: &str) -> String {
    s.median().map_or(String::new(), |v| {
        format!("; wall-clock median {v:.6} {unit}")
    })
}

pub fn end_to_end(m: &Measured<'_>) -> Vec<Metric> {
    let q = &m.queries;
    let c = &m.churn;
    vec![
        median(
            "setup_s",
            "s",
            &m.setup,
            &format!(
                "process CPU: generate + build + ranked session + first snapshot + server start, one process each{}",
                wall(&m.setup_wall, "s")
            ),
        ),
        median("batch_s", "s", &q.batch_s, "thread CPU: FdQuery::run"),
        median(
            "parallel_batch_s",
            "s",
            &q.parallel_s,
            "wall clock: FdQuery::parallel(2).run",
        ),
        median(
            "first_answer_ms",
            "ms",
            &q.first_ms,
            "thread CPU: fresh stream() + first next()",
        ),
        median(
            "kth_answer_ms",
            "ms",
            &q.kth_ms,
            "thread CPU: fresh stream() to the 100th answer",
        ),
        median(
            "topk_ms",
            "ms",
            &q.topk_ms,
            "thread CPU: ranked FMax top-10",
        ),
        median(
            "approx_s",
            "s",
            &q.approx_s,
            "thread CPU: AMin/EditDistanceSim approximate FD, tau 0.8",
        ),
        median(
            "commit_p50_ms",
            "ms",
            &c.insert_commit_ms,
            &format!(
                "process CPU, insert commits: commit sent -> ok committed{}",
                wall(&c.insert_commit_wall_ms, "ms")
            ),
        ),
        p99(
            "commit_p99_ms",
            &c.commit_ms,
            "process CPU, all commits: commit sent -> ok committed",
        ),
        median(
            "event_p50_ms",
            "ms",
            &c.insert_event_ms,
            "process CPU, insert commits: commit sent -> its last event line read",
        ),
        p99(
            "event_p99_ms",
            &c.event_ms,
            "process CPU, all commits: commit sent -> its last event line read",
        ),
        metric(
            "commits_per_s",
            "1/s",
            c.round_s.median().map(|r| 2.0 / r),
            c.round_s.len(),
            format!(
                "2 / median process CPU of a round (insert commit, delete commit, top); wall clock: {} commits in {:.3} s",
                c.commits,
                c.elapsed.as_secs_f64()
            ),
        ),
        median(
            "top_p50_ms",
            "ms",
            &c.top_ms,
            &format!(
                "process CPU: top sent -> reply{}",
                wall(&c.top_wall_ms, "ms")
            ),
        ),
        median(
            "recovery_s",
            "s",
            &m.recovery.recovery_s,
            "thread CPU: open_ranked_with_config over snapshot + 100-batch WAL tail",
        ),
        metric(
            "peak_rss_mb",
            "MiB",
            Some(m.peak_rss_mb),
            1,
            "VmHWM of the run process",
        ),
    ]
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Per-layer metrics of a traced run, each noted with its base and the
/// end-to-end metric and workload it is predicted to move.
pub fn per_layer(m: &Measured<'_>, layers: &[LayerTime]) -> Vec<Metric> {
    let q = &m.queries;
    let p = &m.churn.phases;
    let r = &m.recovery;
    let b = q.batch_stats;
    let t = q.topk_stats;
    let a = q.approx_stats;
    let count = |name, value: u64, note: &str| {
        metric(name, "count", Some(value as f64), 1, note.to_owned())
    };
    let us_median = |name, s: &Samples, note: &str| median(name, "us", s, note);
    let ms_median = |name, s: &Samples, note: &str| median(name, "ms", s, note);
    let mean = |name, s: &Samples, note: &str| {
        metric(
            name,
            "count",
            s.mean(),
            s.len(),
            format!("mean per commit; {note}"),
        )
    };
    let delay_p99 = q.delay_us.tail(0.99).or(q.delay_us.max());
    let parallel = match (q.batch_s.median(), q.parallel_s.median()) {
        (Some(seq), Some(par)) if par > 0.0 => Some(seq / (2.0 * par)),
        _ => None,
    };
    let overhead = match (q.traced_pass_s.median(), q.untraced_pass_s.median()) {
        (Some(on), Some(off)) if off > 0.0 => Some(100.0 * (on - off) / off),
        _ => None,
    };
    let build_s = layers
        .iter()
        .find(|l| l.name == "relational.build")
        .map(|l| l.total.as_secs_f64());
    vec![
        metric("relational.build_s", "s", build_s, 1, "fd_workloads::chain + DatabaseBuilder::build -> setup_s, all workloads"),
        us_median("stream.delay_p50_us", &q.delay_us, "per FdStream::next of a full drain -> kth_answer_ms, batch_s on both chains"),
        metric("stream.delay_p99_us", "us", delay_p99, q.delay_us.len(), "p99 (max if fewer than 1000 answers) -> kth_answer_ms on both chains"),
        metric("stream.delay_max_ms", "ms", q.delay_us.max().map(|v| v / 1e3), q.delay_us.len(), "-> kth_answer_ms on both chains"),
        metric("stream.answers", "count", q.drained.median(), q.drained.len(), "answers of one full drain -> kth_answer_ms, batch_s"),
        count("extension.scans", b.extension_scans, "Stats of FdQuery::run -> batch_s (small share), both chains"),
        count("extension.passes", b.extension_passes, "-> batch_s (small share), both chains"),
        count("candidate.scans", b.candidate_scans, "line-7 loop -> batch_s, mostly sparse-chain"),
        metric("candidate.useful_ratio", "ratio", ratio(b.merges + b.inserts, b.candidate_scans), 1, format!("(merges + inserts) / candidate_scans = {} / {} -> batch_s on sparse-chain", b.merges + b.inserts, b.candidate_scans)),
        count("subset.computations", b.subset_computations, "line 8 -> batch_s on sparse-chain"),
        count("jcc.checks", b.jcc_checks, "-> batch_s on sparse-chain"),
        metric("jcc.checks_per_result", "ratio", ratio(b.jcc_checks, b.results), 1, format!("jcc_checks / results = {} / {} -> batch_s on sparse-chain", b.jcc_checks, b.results)),
        count("complete.scans", b.complete_scans, "line 11 -> batch_s on dense-chain, not sparse-chain"),
        metric("complete.scans_per_result", "ratio", ratio(b.complete_scans, b.results), 1, format!("complete_scans / results = {} / {} -> batch_s on dense-chain", b.complete_scans, b.results)),
        count("incomplete.scans", b.incomplete_scans, "line 14 -> batch_s on dense-chain"),
        count("incomplete.merges", b.merges, "line 15 -> batch_s on dense-chain"),
        count("incomplete.inserts", b.inserts, "line 18 -> batch_s on dense-chain"),
        count("heap.pushes", t.heap_pushes, "Stats of the ranked top-10 -> topk_ms, both chains"),
        count("heap.pops", t.heap_pops, "-> topk_ms, both chains"),
        metric("heap.stale_ratio", "ratio", ratio(t.heap_pops.saturating_sub(t.results), t.heap_pops), 1, format!("(pops - results) / pops = {} / {} -> topk_ms", t.heap_pops.saturating_sub(t.results), t.heap_pops)),
        count("rank.evals", t.rank_evals, "-> topk_ms, both chains"),
        count("approx.evals", a.approx_evals, "Stats of the approximate FD -> approx_s on sparse-chain"),
        metric("approx.evals_per_result", "ratio", ratio(a.approx_evals, a.results), 1, format!("approx_evals / results = {} / {} -> approx_s on sparse-chain", a.approx_evals, a.results)),
        metric("parallel.efficiency", "ratio", parallel, q.batch_s.len(), "batch_s (thread CPU) / (2 x parallel_batch_s (wall clock)), traced medians -> parallel_batch_s, most on dense-chain"),
        us_median("serve.commit_roundtrip_us", &p.roundtrip_us, "wire commit round trip -> commit_p50_ms, event_p50_ms on live-serve"),
        us_median("serve.overhead_us", &p.overhead_us, "round trip - in-process FdSession::commit of the same batch -> commit_p50_ms on live-serve"),
        metric("serve.top_us", "us", m.churn.top_wall_ms.median().map(|v| v * 1e3), m.churn.top_wall_ms.len(), "median wall clock; top round trip -> top_p50_ms on live-serve"),
        us_median("changelog.validate_us", &p.validate_us, "validate_batch on the mirror -> commit_p50_ms on live-serve"),
        us_median("changelog.apply_us", &p.apply_us, "apply_batch on the mirror -> commit_p50_ms on live-serve"),
        us_median("store.wal_append_us", &p.wal_append_us, "Wal::append, on-commit fdatasync -> commit_p50_ms, commit_p99_ms on live-serve"),
        mean("store.wal_bytes_per_commit", &p.wal_bytes, "-> commit_p50_ms, commit_p99_ms on live-serve"),
        us_median("delta.maintain_us", &p.maintain_us, "delta_batch on the mirror -> commit_p50_ms on live-serve"),
        mean("delta.candidate_scans_per_commit", &p.candidate_scans, "-> commit_p50_ms on live-serve"),
        mean("delta.complete_scans_per_commit", &p.complete_scans, "-> commit_p50_ms on live-serve"),
        mean("delta.events_per_commit", &p.events, "-> commit_p50_ms, event_p50_ms on live-serve"),
        us_median("session.commit_us", &p.session_commit_us, "FdSession::commit on the mirror session -> commit_p50_ms, event_p50_ms on live-serve"),
        us_median("session.self_us", &p.self_us, "commit - (validate + wal + apply + maintain): window, fan-out, bookkeeping -> commit_p50_ms, event_p50_ms"),
        ms_median("store.snapshot_read_ms", &r.snapshot_read_ms, "Store::read_snapshot of the crash image -> recovery_s on live-serve"),
        ms_median("store.wal_open_ms", &r.wal_open_ms, "Wal::open of the crash image -> recovery_s on live-serve"),
        ms_median("store.replay_ms", &r.replay_ms, "recovery - read - open -> recovery_s on live-serve"),
        ms_median("store.snapshot_write_ms", &m.snapshot_write_ms, "FdSession::checkpoint -> setup_s on live-serve"),
        metric("trace.overhead_pct", "%", overhead, q.traced_pass_s.len() + q.untraced_pass_s.len(), "query-mix time, traced vs untraced passes of this run"),
    ]
}

/// The traced run's report: self time per span name, then every
/// per-layer metric with its base and predicted end-to-end effect, then
/// the end-to-end metrics as measured with tracing on.
pub fn layer_report(m: &Measured<'_>, layers: &[LayerTime], tracer: &Tracer) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== layer report: {} ({} spans kept, {} not kept)",
        m.spec.name,
        tracer.num_spans(),
        tracer.dropped()
    );
    let _ = writeln!(
        text,
        "{:<24} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for l in layers {
        let _ = writeln!(
            text,
            "{:<24} {:>9} {:>12.3} {:>12.3}",
            l.name,
            l.count,
            l.total.as_secs_f64() * 1e3,
            l.self_time.as_secs_f64() * 1e3
        );
    }
    let _ = writeln!(
        text,
        "== per-layer metrics (value, samples, base -> predicted end-to-end effect)"
    );
    for metric in per_layer(m, layers) {
        let _ = writeln!(text, "{}", row(&metric));
    }
    let _ = writeln!(
        text,
        "== end-to-end metrics with tracing on (tracing overhead = these - an untraced run's)"
    );
    for metric in end_to_end(m) {
        let _ = writeln!(text, "{}", row(&metric));
    }
    text
}

fn row(m: &Metric) -> String {
    format!(
        "{:<34} {:>16.6} {:<6} n={:<7} {}",
        m.name, m.value, m.unit, m.samples, m.note
    )
}

pub fn print_table(metrics: &[Metric]) {
    for m in metrics {
        println!("{}", row(m));
    }
}

/// The last line of the output: `correct`, `attempted`, `failed` and
/// every metric's value and unit.
pub fn json_line(correct: bool, checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let body = text
            .split(&format!("\"{section}\": ["))
            .nth(1)
            .and_then(|rest| rest.split(']').next())
            .expect("the section exists");
        let field = |entry: &str, key: &str| {
            entry
                .split(&format!("\"{key}\": \""))
                .nth(1)
                .and_then(|v| v.split('"').next())
                .expect("the field exists")
                .to_owned()
        };
        body.split('}')
            .filter(|e| e.contains("\"name\""))
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    }

    fn emitted(metrics: Vec<Metric>) -> Vec<(String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    #[test]
    fn metrics_match_benchmark_json() {
        let m = Measured {
            spec: &WORKLOADS[0],
            setup: Samples::default(),
            setup_wall: Samples::default(),
            queries: QueryRun::default(),
            churn: ChurnRun::default(),
            recovery: RecoveryRun::default(),
            snapshot_write_ms: Samples::default(),
            peak_rss_mb: 1.0,
        };
        assert_eq!(emitted(end_to_end(&m)), listed("end_to_end"));
        assert_eq!(emitted(per_layer(&m, &[])), listed("per_layer"));
    }
}
