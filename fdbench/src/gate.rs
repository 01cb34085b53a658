//! The correctness gate: reference outputs and the checks every run
//! makes against them, outside the timed regions.
//!
//! A check that fails counts into `failed` (and `error_rate`) and makes
//! the command exit non-zero.

use fd_baselines::naive_top_k;
use fd_core::{
    canonicalize, AMin, EditDistanceSim, FMax, FdConfig, FdQuery, ImpScores, ProbScores, TupleSet,
};
use fd_relational::{Database, Value};

/// The seed whose reference digests are stored below; any other seed
/// recomputes them under `FdConfig::paper_faithful()`.
pub const DEFAULT_SEED: u64 = 1;

/// Threshold of the approximate full disjunction.
pub const TAU: f64 = 0.8;

/// Answers of the ranked query.
pub const TOP_K: usize = 10;

/// `(workload, exact FD digest, approximate FD digest)` at
/// [`DEFAULT_SEED`], computed under `FdConfig::paper_faithful()`.
const STORED: [(&str, u64, u64); 3] = [
    ("sparse-chain", 0xed57_9e23_fb39_8783, 0x5086_f75b_49f7_579c),
    ("dense-chain", 0xe755_825b_e3c9_478d, 0xe755_825b_e3c9_478d),
    ("live-serve", 0x77e6_536f_5200_9602, 0x77e6_536f_5200_9602),
];

/// The approximate join every workload queries: `A_min` over
/// edit-distance similarity with every tuple certain.
pub fn approx_join(db: &Database) -> AMin<EditDistanceSim> {
    AMin::new(EditDistanceSim, ProbScores::uniform(db, 1.0))
}

/// The importances the ranked `f_max` query ranks by: a hash of the
/// tuple's payload, so a tuple keeps its importance in every renamed
/// copy of the workload.
pub fn importance(db: &Database) -> ImpScores {
    ImpScores::from_fn(db, |t| {
        let payload = match db.tuple_values(t).last() {
            Some(Value::Int(p)) => *p as u64,
            _ => 0,
        };
        let mut z = payload.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    })
}

/// FNV-1a over the canonical (sorted) answers' member ids: equal
/// digests mean equal full disjunctions, whatever the emission order.
pub fn digest(sets: &[TupleSet]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u32| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for set in canonicalize(sets.to_vec()) {
        for t in set.tuples() {
            eat(t.0);
        }
        eat(u32::MAX);
    }
    h
}

/// What every measured output is compared with.
#[derive(Debug)]
pub struct Reference {
    pub batch_digest: u64,
    pub approx_digest: u64,
    /// `naive_top_k`: rank every answer of the full disjunction, sort.
    pub top: Vec<(TupleSet, f64)>,
    /// Where the digests came from, for the report.
    pub source: &'static str,
}

impl Reference {
    pub fn compute(
        workload: &str,
        seed: u64,
        db: &Database,
        imp: &ImpScores,
        expect_batch: Option<u64>,
    ) -> Self {
        let stored = STORED
            .iter()
            .find(|(w, _, _)| *w == workload)
            .filter(|_| seed == DEFAULT_SEED);
        let (batch_digest, approx_digest, source) = match stored {
            Some(&(_, b, a)) => (b, a, "stored"),
            None => {
                let faithful = FdConfig::paper_faithful();
                let exact = FdQuery::over(db)
                    .with_config(faithful)
                    .run()
                    .expect("a bare query is valid");
                let approx = FdQuery::over(db)
                    .with_config(faithful)
                    .approx(approx_join(db), TAU)
                    .run()
                    .expect("an approximate query is valid");
                (
                    digest(exact.sets()),
                    digest(approx.sets()),
                    "paper_faithful",
                )
            }
        };
        Reference {
            batch_digest: expect_batch.unwrap_or(batch_digest),
            approx_digest,
            top: naive_top_k(db, &FMax::new(imp), TOP_K),
            source: if expect_batch.is_some() {
                "--expect-digest"
            } else {
                source
            },
        }
    }
}

/// Counts checked operations and the ones that failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
