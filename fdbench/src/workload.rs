//! The three workloads: a data regime plus a traffic mix.
//!
//! Every workload runs the same pipeline — batch, parallel, streamed,
//! ranked and approximate queries, then durable commits over the wire
//! and a recovery — so every metric exists on every workload. What
//! differs is the data (how dense the joins are, strings or integers)
//! and how much of the run goes to commits, which decides the layer
//! that dominates.
//!
//! The seed picks an isomorphic copy of the workload's fixed shape: its
//! join values renamed by a seeded bijection (a permutation of the
//! integer domain, a substitution cipher on the letters of strings,
//! which keeps every edit distance). Every seed therefore asks for the
//! same work — the same full-disjunction size, the same ranked and
//! approximate answers up to renaming — through different values, hash
//! layouts and interned strings, so a run's figures do not depend on
//! which seed it drew.

use fd_relational::{Database, DatabaseBuilder, RelId, Value};
use fd_workloads::{chain, scrambled_name, DataSpec};

/// The seed of the shape every copy renames.
const SHAPE_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// Relations in the chain `C0(J0,J1,P0), C1(J1,J2,P1), …`.
    pub relations: usize,
    pub rows: usize,
    /// Join values are drawn from this many distinct values.
    pub domain: usize,
    /// String join values (edit-distance similarity applies) or integers.
    pub strings: bool,
    /// Share of string join values that carry a one-character typo.
    pub typo_rate: f64,
    /// Commits per run, paced over the run between query passes. A
    /// count rather than a share of the time: every round leaves
    /// tombstones that later scans pass over, so a commit's cost grows
    /// with the commits before it, and only a fixed count makes runs
    /// comparable.
    pub commits: u64,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "sparse-chain",
        relations: 5,
        rows: 48,
        domain: 48,
        strings: true,
        typo_rate: 0.1,
        commits: 4000,
    },
    Spec {
        name: "dense-chain",
        relations: 4,
        rows: 10,
        domain: 3,
        strings: false,
        typo_rate: 0.0,
        commits: 2000,
    },
    Spec {
        name: "live-serve",
        relations: 4,
        rows: 24,
        domain: 12,
        strings: true,
        typo_rate: 0.0,
        commits: 6000,
    },
];

pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Rows per committed insert batch; the round then deletes them again.
pub const BATCH_ROWS: usize = 8;

/// The churn repeats its rounds with this period, so every run commits
/// the same mix of batches however many rounds it gets through.
pub const CHURN_PERIOD: u64 = 50;

impl Spec {
    /// Generates and builds the database (interning and join indexes
    /// included) for `seed`: `fd_workloads::chain` makes the shape, and
    /// the seed's copy is built from it row by row.
    pub fn generate(&self, seed: u64) -> Database {
        let mut spec = DataSpec::new(self.rows, self.domain).seed(SHAPE_SEED);
        if self.strings {
            spec = spec.typos(self.typo_rate);
        }
        let shape = chain(self.relations, &spec);
        let renaming = Renaming::new(seed, self.domain);
        let mut b = DatabaseBuilder::new();
        for rel in shape.relations() {
            let attrs: Vec<&str> = rel
                .schema()
                .attrs()
                .iter()
                .map(|&a| shape.attr_name(a))
                .collect();
            let mut out = b.relation(rel.name(), &attrs);
            for row in rel.rows() {
                // Every column but the last (the payload) is a join column.
                let (payload, joins) = row.split_last().expect("chain rows have three columns");
                let mut values: Vec<Value> = joins.iter().map(|v| renaming.value(v)).collect();
                values.push(payload.clone());
                out.row_values(values);
            }
        }
        b.build().expect("a renamed chain is well-formed")
    }

    fn join_value(&self, k: usize) -> Value {
        if self.strings {
            Value::str(scrambled_name(k))
        } else {
            Value::Int(k as i64)
        }
    }

    /// The rows round `round` inserts, round-robin over the relations.
    /// Each row joins the base data on its left join attribute (a value
    /// of the domain) and carries a fresh right join value and payload,
    /// so it extends the results that end at its left neighbour without
    /// multiplying them further. The rows are drawn in shape space and
    /// renamed like the data, so every seed commits the same work.
    pub fn churn_rows(&self, seed: u64, round: u64) -> Vec<(RelId, Vec<Value>)> {
        let round = round % CHURN_PERIOD;
        let renaming = Renaming::new(seed, self.domain);
        let mut rng = SplitMix(SHAPE_SEED ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        (0..BATCH_ROWS)
            .map(|i| {
                let rel = i % self.relations;
                let fresh = self.domain + (round as usize) * BATCH_ROWS + i;
                let left = renaming.value(&self.join_value(rng.below(self.domain)));
                let right = renaming.value(&self.join_value(fresh));
                let payload = Value::Int(9_000_000 + fresh as i64);
                (RelId(rel as u16), vec![left, right, payload])
            })
            .collect()
    }
}

/// A seeded bijection on join values: integers of the domain are
/// permuted (others kept), strings get a letter substitution cipher.
struct Renaming {
    ints: Vec<i64>,
    letters: [u8; 26],
}

impl Renaming {
    fn new(seed: u64, domain: usize) -> Self {
        let mut rng = SplitMix(seed);
        let mut ints: Vec<i64> = (0..domain as i64).collect();
        for i in (1..ints.len()).rev() {
            ints.swap(i, rng.below(i + 1));
        }
        let mut letters: [u8; 26] = std::array::from_fn(|i| b'a' + i as u8);
        for i in (1..26).rev() {
            letters.swap(i, rng.below(i + 1));
        }
        Renaming { ints, letters }
    }

    fn value(&self, v: &Value) -> Value {
        match v {
            Value::Int(k) => match usize::try_from(*k).ok().and_then(|i| self.ints.get(i)) {
                Some(&renamed) => Value::Int(renamed),
                None => v.clone(),
            },
            Value::Str(s) => Value::str(
                s.as_ref()
                    .chars()
                    .map(|c| match c {
                        'a'..='z' => char::from(self.letters[(c as u8 - b'a') as usize]),
                        other => other,
                    })
                    .collect::<String>(),
            ),
            other => other.clone(),
        }
    }
}

/// SplitMix64: a tiny deterministic generator for the churn rows.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        for w in WORKLOADS {
            let (a, b) = (w.generate(7), w.generate(7));
            assert_eq!(a.num_tuples(), w.relations * w.rows);
            assert!(a
                .all_tuples()
                .all(|t| a.tuple_values(t) == b.tuple_values(t)));
            assert_eq!(w.churn_rows(7, 3), w.churn_rows(7, 3));
            assert_ne!(w.churn_rows(7, 3), w.churn_rows(7, 4));
            assert_eq!(w.churn_rows(7, 3), w.churn_rows(7, 3 + CHURN_PERIOD));
        }
    }

    #[test]
    fn every_seed_is_an_isomorphic_copy() {
        use fd_core::FdQuery;
        for w in WORKLOADS {
            let sizes: Vec<usize> = [1, 2, 3]
                .iter()
                .map(|&seed| FdQuery::over(&w.generate(seed)).run().expect("valid").len())
                .collect();
            assert!(
                sizes.iter().all(|&f| f == sizes[0]),
                "{}: {sizes:?}",
                w.name
            );
        }
    }
}
