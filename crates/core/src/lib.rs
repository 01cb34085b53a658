//! # fd-core
//!
//! The algorithms of **Cohen & Sagiv, "An incremental algorithm for
//! computing ranked full disjunctions"** (PODS 2005 / JCSS 2007).
//!
//! The paper's three algorithms are one skeleton: Fig. 2's
//! `GETNEXTRESULT` (pop, maximally extend, run the candidate loop over
//! the maximal subsets, filter by root and by `Complete`, merge into or
//! append to `Incomplete`). This crate writes it once, generic over two
//! parts:
//!
//! * a **join model** — `JCC` for the exact algorithms, `A(·) ≥ τ` for
//!   the approximate ones (which may yield several maximal subsets per
//!   candidate);
//! * a **frontier** — the FIFO `Incomplete` list of Fig. 1 (in Table 3's
//!   front-spliced order) or the rank heaps of Fig. 3.
//!
//! The public iterators are that routine under each combination:
//!
//! * [`FdiIter`] / [`FdIter`] — `INCREMENTALFD` (Figs. 1–2): the full
//!   disjunction with incremental polynomial delay (Theorems 4.2–4.10);
//! * [`RankedFdIter`] — `PRIORITYINCREMENTALFD` (Fig. 3): answers in
//!   ranking order for monotonically c-determined ranking functions
//!   (Theorem 5.5) and the threshold variant (Remark 5.6);
//! * [`ApproxFdIter`] / [`ApproxAllIter`] — `APPROXINCREMENTALFD`
//!   (Figs. 5–6): `(A, τ)`-approximate full disjunctions for acceptable,
//!   efficiently computable approximate join functions (Theorem 6.6);
//! * [`RankedApproxFdIter`] — the ranked approximate variant sketched at
//!   the end of Section 6;
//! * Section 7's optimizations: hash-indexed stores, block-based
//!   execution, alternative `Incomplete` initializations, plus one
//!   parallel batch and one parallel ranked plan for every join model.
//!
//! All of it is reachable through one typed entry point, [`FdQuery`]:
//! batch, streaming, ranked top-k/threshold, approximate,
//! ranked-approximate, parallel and delta execution share the builder,
//! honor the same [`FdConfig`] knobs, and report invalid combinations as
//! [`FdError`] values instead of panicking.
//!
//! ## Example
//!
//! ```
//! use fd_core::{FdQuery, FMax, ImpScores};
//! use fd_relational::tourist_database;
//!
//! let db = tourist_database();
//! // Table 2 of the paper: six maximal join-consistent connected sets.
//! assert_eq!(FdQuery::over(&db).run()?.len(), 6);
//! // Streaming: first answer after one GETNEXTRESULT call.
//! let first = FdQuery::over(&db).stream()?.next().unwrap()?;
//! assert_eq!(first.label(&db), "{c1, a1}");
//! // Ranked: the two best answers by tuple-id importance.
//! let imp = ImpScores::from_fn(&db, |t| t.0 as f64);
//! let top = FdQuery::over(&db).ranked(FMax::new(&imp)).top_k(2).run()?;
//! assert_eq!(top.len(), 2);
//! # Ok::<(), fd_core::FdError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(rustdoc::broken_intra_doc_links)]

mod getnext;
mod incremental;
mod init;
mod lists;
mod model;
mod padded;
mod parallel;
mod stats;
mod tupleset;

pub mod approx;
pub mod delta;
pub mod error;
pub mod jcc;
pub mod obs;
pub mod priority;
pub mod query;
pub mod ranking;
pub mod serve;
pub mod session;
pub mod sim;
pub mod store;

pub use approx::{
    AMin, AProd, ApproxAllIter, ApproxFdIter, ApproxJoin, ProbScores, RankedApproxFdIter,
};
pub use delta::{BatchDelta, DeleteDelta, InsertDelta};
pub use error::FdError;
pub use incremental::{canonicalize, fdi, FdConfig, FdIter, FdiIter};
pub use init::InitStrategy;
pub use lists::{CompleteStore, IncompleteQueue, StoreEngine};
pub use obs::{Counter, EventLog, Gauge, Histogram, MetricsServer, QueryTimings, Registry, Span};
pub use padded::{format_results, padded_relation, padded_tuple, padded_tuple_over};
pub use priority::RankedFdIter;
pub use query::{BoxedApprox, BoxedRanking, FdQuery, FdResult, FdStream, QueryParts};
pub use ranking::{
    canonical_rank_order, FMax, FPairSum, FSum, FTriple, ImpScores, MonotoneCDetermined,
    RankingFunction,
};
pub use serve::{
    trigger_shutdown_on_signals, AttrMax, ServeError, ServeOptions, Server, SessionHandle,
    ShutdownHandle,
};
pub use session::{
    ChannelSink, Commit, CommitTimings, DeltaBatch, EventSink, FdEvent, FdSession, SinkId,
    TopKUpdate, VecSink,
};
pub use sim::{EditDistanceSim, ExactSim, Similarity, TableSim};
pub use stats::Stats;
pub use store::{FsyncPolicy, StoreError};
pub use tupleset::TupleSet;
