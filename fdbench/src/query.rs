//! The query mix: batch, parallel, streamed, ranked and approximate
//! full disjunctions over one database, run in passes.

use crate::cpu;
use crate::gate::{approx_join, digest, Checks, Reference, TAU, TOP_K};
use crate::samples::Samples;
use crate::trace::Tracer;
use fd_core::{AMin, EditDistanceSim, FMax, FdQuery, ImpScores, Stats, TupleSet};
use fd_relational::Database;
use std::time::Duration;

/// Passes made even when the time budget is already spent.
const MIN_PASSES: usize = 5;

/// Fresh streams read to their first answer, per pass.
const FIRST_REPS: usize = 20;

/// The streamed answer `kth_answer_ms` waits for.
pub const KTH: usize = 100;

#[derive(Debug, Default)]
pub struct QueryRun {
    pub passes: usize,
    pub batch_s: Samples,
    pub parallel_s: Samples,
    pub first_ms: Samples,
    pub kth_ms: Samples,
    pub topk_ms: Samples,
    pub approx_s: Samples,
    pub batch_stats: Stats,
    pub topk_stats: Stats,
    pub approx_stats: Stats,
    /// Traced runs only: the delay of each `FdStream::next` of a full
    /// drain, and the query-mix time of traced and untraced passes.
    pub delay_us: Samples,
    pub drained: Samples,
    pub traced_pass_s: Samples,
    pub untraced_pass_s: Samples,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` inside a span named `name`, returning its result, its wall
/// time and the calling thread's CPU time for it. Every query but the
/// parallel one runs on the calling thread, so its CPU time is its
/// wall time without the host's interference (see [`cpu`]).
fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, Duration, Duration) {
    let start = cpu::thread_time();
    let (out, wall) = tracer.time(name, f);
    (out, wall, cpu::thread_time() - start)
}

/// The query mix over one database, run one pass at a time. In a
/// traced run every other pass records spans, so the passes without
/// give the tracing overhead.
pub struct QueryMix<'a> {
    db: &'a Database,
    imp: &'a ImpScores,
    reference: &'a Reference,
    approx: AMin<EditDistanceSim>,
    traced_run: bool,
    /// The first answers of the first batch run, in emission order.
    emission: Vec<TupleSet>,
    out: QueryRun,
}

impl<'a> QueryMix<'a> {
    pub fn new(
        db: &'a Database,
        imp: &'a ImpScores,
        reference: &'a Reference,
        traced_run: bool,
    ) -> Self {
        QueryMix {
            db,
            imp,
            reference,
            approx: approx_join(db),
            traced_run,
            emission: Vec::new(),
            out: QueryRun::default(),
        }
    }

    pub fn satisfied(&self) -> bool {
        self.out.passes >= MIN_PASSES
    }

    pub fn finish(self) -> QueryRun {
        self.out
    }

    /// One pass: every query once (the first answer [`FIRST_REPS`]
    /// times), each output checked after its timed call.
    pub fn pass(&mut self, tracer: &mut Tracer, checks: &mut Checks) {
        let (db, reference, out) = (self.db, self.reference, &mut self.out);
        let traced = self.traced_run && out.passes % 2 == 1;
        tracer.set_enabled(traced);
        let mut mix = Duration::ZERO;

        let (batch, d, cpu) = timed(tracer, "query.batch", || FdQuery::over(db).run());
        mix += d;
        let batch = batch.expect("a bare query is valid");
        let batch_digest = digest(batch.sets());
        checks.check(batch_digest == reference.batch_digest, || {
            format!(
                "batch digest {batch_digest:016x} != reference {:016x} ({})",
                reference.batch_digest, reference.source
            )
        });
        out.batch_s.push(cpu.as_secs_f64());
        if self.emission.is_empty() {
            self.emission = batch.sets().iter().take(KTH).cloned().collect();
            out.batch_stats = *batch.stats();
        }
        drop(batch);
        let emission = &self.emission;

        let (par, d) = tracer.time("query.parallel", || FdQuery::over(db).parallel(2).run());
        mix += d;
        let par_digest = digest(par.expect("a parallel query is valid").sets());
        checks.check(par_digest == batch_digest, || {
            format!("parallel(2) digest {par_digest:016x} != sequential {batch_digest:016x}")
        });
        out.parallel_s.push(d.as_secs_f64());

        for _ in 0..FIRST_REPS {
            let (first, d, cpu) = timed(tracer, "query.first_answer", || {
                FdQuery::over(db)
                    .stream()
                    .expect("a bare stream is valid")
                    .next()
            });
            mix += d;
            let ok = matches!(&first, Some(Ok(s)) if Some(s) == emission.first());
            checks.check(ok, || {
                "first streamed answer != first batch answer".to_owned()
            });
            out.first_ms.push(ms(cpu));
        }

        let (prefix, d, cpu) = timed(tracer, "query.kth_answer", || {
            FdQuery::over(db)
                .stream()
                .expect("a bare stream is valid")
                .take(KTH)
                .collect::<Result<Vec<_>, _>>()
        });
        mix += d;
        let ok = prefix.as_ref().is_ok_and(|p| p == emission);
        checks.check(ok, || {
            format!("streamed prefix of {KTH} != batch emission prefix")
        });
        out.kth_ms.push(ms(cpu));

        let imp = self.imp;
        let (top, d, cpu) = timed(tracer, "query.topk", || {
            FdQuery::over(db).ranked(FMax::new(imp)).top_k(TOP_K).run()
        });
        mix += d;
        let top = top.expect("a ranked top-k query is valid");
        out.topk_stats = *top.stats();
        let ranked = top.into_ranked().expect("a ranked query returns ranks");
        checks.check(ranked == reference.top, || {
            "ranked top-10 != naive_top_k".to_owned()
        });
        out.topk_ms.push(ms(cpu));

        let approx = &self.approx;
        let (afd, d, cpu) = timed(tracer, "query.approx", || {
            FdQuery::over(db).approx(approx, TAU).run()
        });
        mix += d;
        let afd = afd.expect("an approximate query is valid");
        let approx_digest = digest(afd.sets());
        checks.check(approx_digest == reference.approx_digest, || {
            format!(
                "approx digest {approx_digest:016x} != reference {:016x}",
                reference.approx_digest
            )
        });
        out.approx_stats = *afd.stats();
        out.approx_s.push(cpu.as_secs_f64());

        if self.traced_run {
            if traced {
                out.traced_pass_s.push(mix.as_secs_f64());
                drain(db, tracer, out, batch_digest, checks);
            } else {
                out.untraced_pass_s.push(mix.as_secs_f64());
            }
        }
        out.passes += 1;
        tracer.set_enabled(self.traced_run);
    }
}

/// Reads one stream to its end with a span around every `next`, the
/// delay between two delivered `GETNEXTRESULT` answers.
fn drain(db: &Database, tracer: &mut Tracer, out: &mut QueryRun, expect: u64, checks: &mut Checks) {
    let open = tracer.enter("query.drain");
    let mut stream = FdQuery::over(db).stream().expect("a bare stream is valid");
    let mut sets = Vec::new();
    loop {
        let (next, d) = tracer.time("stream.next", || stream.next());
        match next {
            Some(Ok(set)) => {
                out.delay_us.push(d.as_secs_f64() * 1e6);
                sets.push(set);
            }
            Some(Err(e)) => {
                checks.check(false, || format!("stream failed: {e}"));
                break;
            }
            None => break,
        }
    }
    tracer.exit(open);
    out.drained.push(sets.len() as f64);
    checks.check(digest(&sets) == expect, || {
        "drained stream != batch".to_owned()
    });
}
