//! The write path: a durable, ranked `fd serve` daemon in-process,
//! driven over loopback by a closed-loop committer and a subscriber,
//! then crash recovery from a copy of its data directory.

use crate::cpu;
use crate::gate::{Checks, TOP_K};
use crate::samples::Samples;
use crate::trace::Tracer;
use crate::workload::{Spec, BATCH_ROWS, CHURN_PERIOD};
use fd_core::delta::delta_batch;
use fd_core::serve::Client;
use fd_core::store::{Store, Wal};
use fd_core::{
    AttrMax, FdConfig, FdEvent, FdQuery, FdSession, FsyncPolicy, RankingFunction, Server, TupleSet,
};
use fd_relational::{
    apply_batch, textio, validate_batch, Change, Database, Delta, DeltaBatch, TupleId,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The fsync policy of every write-ahead log the benchmark opens.
pub const POLICY: FsyncPolicy = FsyncPolicy::OnCommit;

/// The crash image is taken after this many commits, so recovery
/// replays a WAL tail of fixed length whatever the throughput.
pub const RECOVERY_TAIL: u64 = 2 * CHURN_PERIOD;

/// Commits with events a run needs, so the p99 tails have ten samples
/// beyond them.
const MIN_COMMITS: u64 = 1000;

/// The attribute the ranked session ranks by (`C0`'s payload).
const RANK_ATTR: &str = "P0";

fn ranking(db: &Database) -> AttrMax {
    AttrMax::new(db, RANK_ATTR).expect("every chain has C0(J0, J1, P0)")
}

/// A running daemon over a durable ranked session.
pub struct Served {
    pub server: Server,
    pub base_len: usize,
}

/// Opens the ranked session, makes it durable in `dir` and starts the
/// daemon on an ephemeral loopback port.
pub fn serve(db: &Database, dir: &Path, tracer: &mut Tracer) -> Served {
    let (mut session, _) = tracer.time("session.materialize", || {
        FdSession::ranked(db.clone(), ranking(db), TOP_K)
    });
    let (persisted, _) = tracer.time("store.persist", || session.persist_to(dir, POLICY));
    persisted.expect("persisting to a fresh directory");
    let base_len = session.len();
    let (server, _) = tracer.time("serve.start", || Server::start(session, "127.0.0.1:0"));
    Served {
        server: server.expect("binding an ephemeral loopback port"),
        base_len,
    }
}

#[derive(Debug, Default)]
pub struct ChurnRun {
    pub commits: u64,
    pub elapsed: Duration,
    /// Every commit's latency, and that of the insert commits alone: a
    /// round's delete commit is a second, much faster mode (it finds no
    /// new results), and a median over both kinds would sit in the gap
    /// between the two.
    pub commit_ms: Samples,
    pub insert_commit_ms: Samples,
    pub event_ms: Samples,
    pub insert_event_ms: Samples,
    pub top_ms: Samples,
    /// Per round: its two commits and its `top` read.
    pub round_s: Samples,
    /// Wall-clock readings of the insert commits and the `top` reads,
    /// printed beside the CPU-time metrics for comparison.
    pub insert_commit_wall_ms: Samples,
    pub top_wall_ms: Samples,
    pub phases: Phases,
}

/// Traced runs only: each batch replayed through the calls a commit
/// composes, on mirrors with their own WAL files.
#[derive(Debug, Default)]
pub struct Phases {
    pub roundtrip_us: Samples,
    pub overhead_us: Samples,
    pub session_commit_us: Samples,
    pub self_us: Samples,
    pub validate_us: Samples,
    pub wal_append_us: Samples,
    pub apply_us: Samples,
    pub maintain_us: Samples,
    pub wal_bytes: Samples,
    pub candidate_scans: Samples,
    pub complete_scans: Samples,
    pub events: Samples,
}

/// How long the committer waits for a commit's events to reach the
/// subscriber before it counts the delivery as failed.
const DELIVERY_TIMEOUT: Duration = Duration::from_secs(10);

/// The subscriber connection: a reader thread timestamps every pushed
/// `event` line; the main thread keeps the write half to end the feed.
struct Subscriber {
    writer: TcpStream,
    delivered: Arc<Delivered>,
}

/// Event lines the subscriber has read, shared with the committer, which
/// waits for each commit's events before its next request. The loop is
/// closed over delivery too, so a commit's event fan-out never overlaps
/// the next commit.
#[derive(Default)]
struct Delivered {
    lines: Mutex<u64>,
    arrived: Condvar,
}

impl Delivered {
    fn add(&self) {
        *self
            .lines
            .lock()
            .expect("the subscriber thread does not panic") += 1;
        self.arrived.notify_all();
    }

    /// Waits until `n` lines have arrived; `false` on timeout.
    fn wait_for(&self, n: u64) -> bool {
        let lines = self
            .lines
            .lock()
            .expect("the subscriber thread does not panic");
        let (lines, _) = self
            .arrived
            .wait_timeout_while(lines, DELIVERY_TIMEOUT, |lines| *lines < n)
            .expect("the subscriber thread does not panic");
        *lines >= n
    }
}

/// Every event line's arrival, read on the process CPU clock, and —
/// for the traced comparison with the mirror — the lines themselves.
struct Feed {
    arrivals: Vec<Duration>,
    labels: Vec<String>,
}

fn read_line(reader: &mut impl BufRead) -> Option<String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(n) if n > 0 => Some(line.trim_end().to_owned()),
        _ => None,
    }
}

impl Subscriber {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<(Self, BufReader<TcpStream>)> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        read_line(&mut reader); // greeting
        writer.write_all(b"subscribe\n")?;
        match read_line(&mut reader) {
            Some(l) if l.starts_with("ok subscribed") => {}
            other => {
                return Err(std::io::Error::other(format!(
                    "subscribe failed: {other:?}"
                )))
            }
        }
        let delivered = Arc::new(Delivered::default());
        Ok((Subscriber { writer, delivered }, reader))
    }

    /// Reads event lines until the reply to the closing `stats` request.
    fn feed(
        mut reader: BufReader<TcpStream>,
        delivered: Arc<Delivered>,
        keep_labels: bool,
    ) -> Feed {
        let mut feed = Feed {
            arrivals: Vec::new(),
            labels: Vec::new(),
        };
        while let Some(line) = read_line(&mut reader) {
            let at = cpu::process_time();
            match line.strip_prefix("event ") {
                Some(label) => {
                    feed.arrivals.push(at);
                    if keep_labels {
                        feed.labels.push(label.to_owned());
                    }
                    delivered.add();
                }
                None if line.starts_with("ok results=") => break,
                None => {}
            }
        }
        feed
    }

    /// Ends the feed: the reply to `stats` follows every event line
    /// already delivered.
    fn close(&mut self) {
        let _ = self.writer.write_all(b"stats\n");
    }
}

/// Mirrors of the served session for the traced phase replay: a second
/// in-process session (the `FdSession::commit` time of each batch) and
/// the bare database, result list and WAL the commit composes.
struct Mirror {
    session: FdSession<'static>,
    db: Database,
    results: Vec<TupleSet>,
    wal: Wal,
    seq: u64,
}

impl Mirror {
    fn new(db: &Database, dir: &Path) -> Self {
        let mut session = FdSession::ranked(db.clone(), ranking(db), TOP_K);
        session
            .persist_to(dir.join("session"), POLICY)
            .expect("persisting the mirror session");
        let wal = Wal::open(dir.join("phases.wal"))
            .expect("opening the mirror WAL")
            .wal;
        let results = FdQuery::over(db)
            .run()
            .expect("a bare query is valid")
            .into_sets();
        Mirror {
            session,
            db: db.clone(),
            results,
            wal,
            seq: 0,
        }
    }

    /// Replays one batch; returns the commit's event labels, sorted.
    fn replay(
        &mut self,
        batch: &DeltaBatch,
        roundtrip: Duration,
        tracer: &mut Tracer,
        p: &mut Phases,
        checks: &mut Checks,
    ) -> Vec<String> {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let (commit, d_commit) =
            tracer.time("session.commit", || self.session.commit(batch.clone()));
        let commit = commit.expect("the mirror session accepts the served batch");
        let open = tracer.enter("session.phases");
        let (valid, d_validate) =
            tracer.time("changelog.validate", || validate_batch(&self.db, batch));
        valid.expect("the served batch validates");
        self.seq += 1;
        let (bytes, d_wal) = tracer.time("store.wal_append", || {
            self.wal.append(self.seq, batch, POLICY)
        });
        let (changes, d_apply) = tracer.time("changelog.apply", || {
            apply_batch(&mut self.db, batch.clone())
        });
        let changes = changes.expect("the served batch applies");
        let (inserted, removed) = split_changes(&changes);
        let (delta, d_maintain) = tracer.time("delta.maintain", || {
            delta_batch(
                &self.db,
                &inserted,
                &removed,
                &self.results,
                FdConfig::default(),
            )
        });
        tracer.exit(open);

        self.results.retain(|s| !delta.retracted.contains(s));
        self.results.extend(delta.added.iter().cloned());
        let mut phase_labels: Vec<String> = delta
            .retracted
            .iter()
            .map(|s| FdEvent::Retracted(s.clone()).label(&self.db))
            .chain(
                delta
                    .added
                    .iter()
                    .map(|s| FdEvent::Added(s.clone()).label(&self.db)),
            )
            .collect();
        phase_labels.sort();
        let mut session_labels: Vec<String> = commit
            .events
            .iter()
            .map(|e| e.label(self.session.db()))
            .collect();
        session_labels.sort();
        checks.check(phase_labels == session_labels, || {
            "replayed commit phases' net events != FdSession::commit events".to_owned()
        });

        let parts = d_validate + d_wal + d_apply + d_maintain;
        p.roundtrip_us.push(us(roundtrip));
        p.overhead_us.push(us(roundtrip) - us(d_commit));
        p.session_commit_us.push(us(d_commit));
        p.self_us.push(us(d_commit) - us(parts));
        p.validate_us.push(us(d_validate));
        p.wal_append_us.push(us(d_wal));
        p.apply_us.push(us(d_apply));
        p.maintain_us.push(us(d_maintain));
        p.wal_bytes
            .push(bytes.expect("appending to the mirror WAL") as f64);
        p.candidate_scans.push(delta.stats.candidate_scans as f64);
        p.complete_scans.push(delta.stats.complete_scans as f64);
        p.events.push(session_labels.len() as f64);
        session_labels
    }
}

/// Each round commits its insert batch, then its delete batch.
fn is_insert(commit: u64) -> bool {
    commit.is_multiple_of(2)
}

fn split_changes(changes: &[Change]) -> (Vec<TupleId>, Vec<TupleId>) {
    let mut inserted = Vec::new();
    let mut removed = Vec::new();
    for c in changes {
        match c {
            Change::Inserted { tuple, .. } => inserted.push(*tuple),
            Change::Removed { tuple, .. } => removed.push(*tuple),
        }
    }
    (inserted, removed)
}

/// `ok committed 8 mutation(s) in 1 maintenance pass; 12 event(s)` → 12.
fn reply_events(status: &str) -> Option<u64> {
    let head = status.strip_suffix(" event(s)")?;
    head.rsplit(' ').next()?.parse().ok()
}

/// `ok top 10 of 391` → 391.
fn reply_total(status: &str) -> Option<usize> {
    status
        .strip_prefix("ok top ")?
        .rsplit(' ')
        .next()?
        .parse()
        .ok()
}

fn status(lines: &[String]) -> &str {
    lines.last().map_or("", String::as_str)
}

fn copy_files(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Everything the churn needs besides the daemon.
pub struct ChurnInput<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub db: &'a Database,
    pub data_dir: &'a Path,
    /// Where the crash image is copied after [`RECOVERY_TAIL`] commits.
    pub image_dir: &'a Path,
    pub mirror_dir: &'a Path,
}

/// Closed-loop churn against the daemon, run in chunks: each round
/// commits an insert batch, commits its deletion and reads `top`, while
/// a subscribed connection times the pushed events.
pub struct Churn<'a> {
    input: &'a ChurnInput<'a>,
    served: &'a Served,
    writer: Client,
    sub: Subscriber,
    feed: Option<JoinHandle<Feed>>,
    mirror: Option<Mirror>,
    /// A copy of the database that learns the tuple ids the daemon
    /// assigns (allocation is deterministic), for the delete batches.
    ids: Database,
    rel_names: Vec<String>,
    base_show: Vec<String>,
    round: u64,
    /// Process CPU clock at the send and event count of every commit,
    /// in commit order.
    sends: Vec<(Duration, u64)>,
    mirror_labels: Vec<Vec<String>>,
    with_events: u64,
    /// Event lines the commits so far announced.
    events: u64,
    out: ChurnRun,
}

impl<'a> Churn<'a> {
    pub fn start(input: &'a ChurnInput<'a>, served: &'a Served, tracer: &Tracer) -> Self {
        let addr = served.server.addr();
        let mut writer = Client::connect(addr).expect("connecting the committer");
        writer.read_line().expect("greeting");
        let (sub, reader) = Subscriber::connect(addr).expect("connecting the subscriber");
        let delivered = Arc::clone(&sub.delivered);
        let keep_labels = tracer.enabled();
        let feed = std::thread::spawn(move || Subscriber::feed(reader, delivered, keep_labels));
        let base_show = writer.request("show").expect("show");
        Churn {
            input,
            served,
            writer,
            sub,
            feed: Some(feed),
            mirror: tracer
                .enabled()
                .then(|| Mirror::new(input.db, input.mirror_dir)),
            ids: input.db.clone(),
            rel_names: input
                .db
                .relations()
                .iter()
                .map(|r| r.name().to_owned())
                .collect(),
            base_show,
            round: 0,
            sends: Vec::new(),
            mirror_labels: Vec::new(),
            with_events: 0,
            events: 0,
            out: ChurnRun::default(),
        }
    }

    /// Has the run made its workload's commits (and, in any case,
    /// enough for the p99 tails and the crash image)?
    pub fn done(&self) -> bool {
        self.out.commits >= self.input.spec.commits.max(RECOVERY_TAIL)
            && self.with_events >= MIN_COMMITS
    }

    /// The result lines of the served state every round returns to.
    pub fn base_results(&self) -> &[String] {
        &self.base_show[..self.base_show.len().saturating_sub(1)]
    }

    /// Has the crash image been taken?
    pub fn imaged(&self) -> bool {
        self.out.commits >= RECOVERY_TAIL
    }

    /// Runs whole rounds until `due` commits are made (or the run's
    /// commits are done, if that comes first).
    pub fn run_until(&mut self, due: u64, tracer: &mut Tracer, checks: &mut Checks) {
        let start = Instant::now();
        while self.out.commits < due && !self.done() {
            self.round(tracer, checks);
        }
        self.out.elapsed += start.elapsed();
    }

    fn commit(&mut self, batch: &DeltaBatch, tracer: &mut Tracer, checks: &mut Checks) {
        tracer.set_group(self.out.commits + 1);
        // The batch's lines go out back to back and their replies are
        // read after: one wake-up of the daemon's connection thread per
        // batch rather than one per line, so round-trip jitter stays out
        // of the throughput.
        let mut lines = vec!["begin".to_owned()];
        for delta in batch.deltas() {
            lines.push(match delta {
                Delta::Insert { rel, values } => format!(
                    "insert {} | {}",
                    self.rel_names[rel.index()],
                    textio::format_row(values)
                ),
                Delta::Delete { tuple } => format!("delete t{}", tuple.0),
            });
        }
        let sent_all = lines.iter().all(|line| self.writer.send(line).is_ok());
        for (i, line) in lines.iter().enumerate() {
            let reply = self.writer.read_response();
            let expect = if i == 0 { "ok begin" } else { "ok queued" };
            checks.check(
                sent_all && reply.is_ok_and(|r| status(&r).starts_with(expect)),
                || format!("{line} was not accepted"),
            );
        }
        // Timed on the process CPU clock (see `cpu`): this client, the
        // daemon's threads and the subscriber all work on the commit.
        let writer = &mut self.writer;
        let sent = cpu::process_time();
        let (reply, d) = tracer.time("serve.commit", || {
            writer.send("commit").and_then(|()| writer.read_response())
        });
        let cpu = cpu::process_time() - sent;
        let reply = reply.map(|r| status(&r).to_owned()).unwrap_or_default();
        let events = reply
            .starts_with(&format!("ok committed {BATCH_ROWS} mutation(s)"))
            .then(|| reply_events(&reply))
            .flatten();
        checks.check(events.is_some(), || format!("commit failed: {reply}"));
        self.out.commit_ms.push(cpu.as_secs_f64() * 1e3);
        if is_insert(self.out.commits) {
            self.out.insert_commit_ms.push(cpu.as_secs_f64() * 1e3);
            self.out.insert_commit_wall_ms.push(d.as_secs_f64() * 1e3);
        }
        let events = events.unwrap_or(0);
        self.sends.push((sent, events));
        self.events += events;
        let delivered = self.sub.delivered.wait_for(self.events);
        checks.check(delivered, || {
            format!("commit {} events not delivered", self.out.commits)
        });
        self.out.commits += 1;
        self.with_events += u64::from(events > 0);
        if let Some(m) = self.mirror.as_mut() {
            let labels = m.replay(batch, d, tracer, &mut self.out.phases, checks);
            self.mirror_labels.push(labels);
        }
        tracer.set_group(0);
    }

    fn round(&mut self, tracer: &mut Tracer, checks: &mut Checks) {
        let mut insert = DeltaBatch::new();
        for (rel, values) in self.input.spec.churn_rows(self.input.seed, self.round) {
            insert.insert(rel, values);
        }
        let changes = apply_batch(&mut self.ids, insert.clone()).expect("churn rows are valid");
        let mut delete = DeltaBatch::new();
        for t in split_changes(&changes).0 {
            delete.delete(t);
        }
        let round_start = cpu::process_time();
        self.commit(&insert, tracer, checks);
        self.commit(&delete, tracer, checks);

        let writer = &mut self.writer;
        let top_start = cpu::process_time();
        let (top, d) = tracer.time("serve.top", || writer.request("top"));
        let now = cpu::process_time();
        let total = top.ok().and_then(|r| reply_total(status(&r)));
        let base = self.served.base_len;
        let round = self.round;
        checks.check(total == Some(base), || {
            format!("round {round} left {total:?} results, base is {base}")
        });
        self.out.top_ms.push((now - top_start).as_secs_f64() * 1e3);
        self.out.top_wall_ms.push(d.as_secs_f64() * 1e3);
        self.out.round_s.push((now - round_start).as_secs_f64());

        if self.out.commits == RECOVERY_TAIL {
            let (data, image) = (self.input.data_dir, self.input.image_dir);
            let copied = self
                .served
                .server
                .handle()
                .with(|_| copy_files(data, image));
            checks.check(matches!(copied, Ok(Ok(()))), || {
                "copying the crash image failed".to_owned()
            });
        }
        self.round += 1;
    }

    /// Ends the feed, checks the final state and the pushed events, and
    /// turns the event timestamps into latencies.
    pub fn finish(mut self, checks: &mut Checks) -> ChurnRun {
        self.sub.close();
        let feed = self
            .feed
            .take()
            .expect("finish runs once")
            .join()
            .expect("the subscriber thread does not panic");
        let show = self.writer.request("show").expect("show");
        checks.check(show == self.base_show, || {
            "churn did not return to the base results".to_owned()
        });
        let _ = self.writer.send("quit");
        let _ = self.sub.writer.write_all(b"quit\n");

        let lines = feed.arrivals.len();
        let total = self.events;
        checks.check(lines as u64 == total, || {
            format!("subscriber saw {lines} event lines, commits reported {total}")
        });
        // Events arrive in commit order: commit i's last event is line
        // (events of commits 0..=i) - 1.
        let mut seen = 0usize;
        for (i, &(sent, n)) in self.sends.iter().enumerate() {
            let n = n as usize;
            if n > 0 && seen + n <= lines {
                let last = feed.arrivals[seen + n - 1];
                let ms = last.saturating_sub(sent).as_secs_f64() * 1e3;
                self.out.event_ms.push(ms);
                if is_insert(i as u64) {
                    self.out.insert_event_ms.push(ms);
                }
                if let Some(expected) = self.mirror_labels.get(i) {
                    let mut got = feed.labels[seen..seen + n].to_vec();
                    got.sort();
                    checks.check(&got == expected, || {
                        format!("commit {i}: pushed events != mirror events")
                    });
                }
            }
            seen += n;
        }
        self.out
    }
}

#[derive(Debug, Default)]
pub struct RecoveryRun {
    pub recovery_s: Samples,
    pub snapshot_read_ms: Samples,
    pub wal_open_ms: Samples,
    pub replay_ms: Samples,
}

/// Recovers the ranked session from a copy of the crash image: the
/// snapshot plus a WAL tail of [`RECOVERY_TAIL`] batches. The first
/// recovery of a run is checked against the served state.
pub fn recover(
    image: &Path,
    scratch: &Path,
    show: &[String],
    out: &mut RecoveryRun,
    tracer: &mut Tracer,
    checks: &mut Checks,
) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let dir: PathBuf = scratch.join("recover");
    let _ = std::fs::remove_dir_all(&dir);
    if copy_files(image, &dir).is_err() {
        checks.check(false, || "copying the crash image failed".to_owned());
        return;
    }
    let mut read_open = Duration::ZERO;
    if tracer.enabled() {
        let store = Store::create(&dir).expect("the image directory exists");
        let (snap, d_read) = tracer.time("store.snapshot_read", || store.read_snapshot());
        let (wal, d_open) = tracer.time("store.wal_open", || Wal::open(store.wal_path()));
        checks.check(snap.is_ok() && wal.is_ok(), || {
            "reading the crash image failed".to_owned()
        });
        drop((snap, wal));
        out.snapshot_read_ms.push(ms(d_read));
        out.wal_open_ms.push(ms(d_open));
        read_open = d_read + d_open;
    }
    // Recovery runs on the calling thread and reads the image from the
    // page cache without syncing it, so it is timed on that thread's
    // CPU clock (see `cpu`), like the single-threaded queries.
    let cpu_start = cpu::thread_time();
    let (session, d) = tracer.time("store.recover", || {
        FdSession::open_ranked_with_config(&dir, FdConfig::default(), POLICY, TOP_K, |db| {
            Ok(Box::new(ranking(db)) as Box<dyn RankingFunction + Send>)
        })
    });
    out.recovery_s
        .push((cpu::thread_time() - cpu_start).as_secs_f64());
    if tracer.enabled() {
        out.replay_ms.push(ms(d.saturating_sub(read_open)));
    }
    match session {
        Ok(s) if out.recovery_s.len() == 1 => {
            checks.check(s.replayed_batches() == RECOVERY_TAIL, || {
                format!(
                    "recovery replayed {} batches, expected {RECOVERY_TAIL}",
                    s.replayed_batches()
                )
            });
            checks.check(s.verify_snapshot(), || {
                "recovered session fails verify_snapshot".to_owned()
            });
            let lines: Vec<String> = s
                .canonical_results()
                .iter()
                .map(|r| format!("  {}", r.label(s.db())))
                .collect();
            checks.check(lines == show, || {
                "recovered results != served results".to_owned()
            });
        }
        Ok(_) => {}
        Err(e) => checks.check(false, || format!("recovery failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
