//! The multi-threaded TCP job server behind `redbin-served`.
//!
//! Architecture (all std, no external dependencies):
//!
//! * a **blocking accept loop** hands each connection through a bounded
//!   hand-off queue ([`HANDOFF_QUEUE`]) to a fixed pool of
//!   [`ServeConfig::handlers`] **handler threads**; a connection that
//!   finds the queue full is answered by the accept loop itself with a
//!   [`BUSY`] error envelope, which [`crate::Client`] retries. A handler
//!   reads **one request line** of at most [`MAX_REQUEST_BYTES`] within
//!   [`READ_DEADLINE`], answers it in the newline-delimited envelope
//!   protocol of [`redbin::wire`], and closes the connection;
//! * a **bounded queue** feeds a fixed **worker pool**; a full queue
//!   answers `submit` with an explicit `retry-after` envelope instead of
//!   blocking the connection (backpressure, never a hang);
//! * results land in the **content-addressed cache** ([`crate::cache`]),
//!   so a resubmission of the same fully-resolved configuration is served
//!   `Done` immediately and fetches byte-identically;
//! * a `poll` carrying `wait-ms` on an unfinished job is **held**: the
//!   handler parks the connection in the shared state and moves on, and
//!   whichever thread moves the job into a terminal state answers it, so
//!   a client learns a job ended as soon as it does while no thread waits
//!   on its behalf. The reaper answers held polls whose wait ran out;
//! * a **reaper** tick expires queued jobs whose deadline passed and sets
//!   the cancellation flag of late running jobs (cooperatively honored —
//!   synthetic sleep jobs stop within ~10 ms; simulator experiments run
//!   to completion and are then marked expired without poisoning the
//!   cache). It also turns the external shutdown flag into a drain;
//! * terminal job records are evicted once they leave the window of the
//!   last [`ServeConfig::completed_log`] terminal jobs, so memory does not
//!   grow with the lifetime job count; a done job still answers `poll` and
//!   `fetch` from the cache;
//! * **graceful shutdown** — a `shutdown` envelope or an external signal
//!   flag (SIGTERM in the binary) — stops intake, wakes the blocked accept
//!   by connecting to the server's own address once, closes connections
//!   that have not sent a request, drains every accepted job, and only
//!   then lets [`Server::run`] return.

// A panic on a worker or handler thread takes a queued job, or the whole
// service, with it: outside tests every failure here is handled.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use redbin::json::Json;
use redbin::sim::stats::StallCause;
use redbin::telemetry::{Clock, Deadline, MetricsRegistry, DEFAULT_TIME_BOUNDS_MS};
use redbin::wire::{ExperimentKind, JobSpec, JobState, Request, Response, MAX_POLL_WAIT_MS};
use redbin::workload::Scale;

use crate::cache::ResultCache;

/// The longest request line a handler reads; a longer one is answered
/// with a `request too large` error. Custom sources are ~12 KB.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Connections accepted but not yet taken by a handler. Past this the
/// accept loop answers `server busy` itself.
pub const HANDOFF_QUEUE: usize = 16;

/// The time a client gets to deliver its request line, from the moment a
/// handler takes the connection. It bounds how long an idle or slow
/// socket can hold a handler.
pub const READ_DEADLINE: Duration = Duration::from_secs(5);

/// Socket write timeout for a response.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// The reaper's tick: deadline enforcement, held-poll expiry and
/// shutdown-flag latency. Handlers waiting for a request line check for a
/// drain on the same tick.
const REAPER_TICK: Duration = Duration::from_millis(25);

/// How the `error` envelope that refuses a connection past the hand-off
/// queue begins. The request was never read, so a client may resend it.
pub const BUSY: &str = "server busy";

/// Tuning knobs for a server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum *queued* (not yet running) jobs before `submit` gets
    /// `retry-after`.
    pub queue_capacity: usize,
    /// Threads each job's internal benchmark fan-out may use
    /// ([`redbin::pool::run_jobs`]).
    pub job_threads: usize,
    /// Deadline applied to submissions that carry none (0 = unlimited).
    pub default_deadline_ms: u64,
    /// The delay suggested in `retry-after` responses.
    pub retry_after_secs: u64,
    /// Result-cache capacity (entries).
    pub cache_capacity: usize,
    /// Completed-job records kept for the `stats` response; also the
    /// number of terminal job records kept for `poll` before eviction.
    pub completed_log: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            job_threads: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            default_deadline_ms: 0,
            retry_after_secs: 1,
            cache_capacity: 256,
            completed_log: 64,
        }
    }
}

impl ServeConfig {
    /// Connection handler threads: one per worker plus two. A handler is
    /// busy only while it reads and answers one request (held polls do not
    /// occupy it), and each thread that allocates at the same time costs
    /// its own malloc arena, so the pool stays small.
    pub fn handlers(&self) -> usize {
        self.workers.max(1) + 2
    }

    /// Polls held at once: four waiting clients for every job the server
    /// admits (queued plus running). Past it a waiting poll is answered at
    /// once, and the client falls back to [`crate::Client::poll_interval`].
    pub fn held_polls(&self) -> usize {
        4 * (self.queue_capacity + self.workers.max(1))
    }
}

/// One tracked submission.
#[derive(Debug)]
struct JobRecord {
    spec: JobSpec,
    state: JobState,
    error: Option<String>,
    deadline: Option<Deadline>,
    queued_at: Clock,
    cancelled: Arc<AtomicBool>,
    /// The submission number, which tells this record from a later
    /// resubmission of the same id.
    seq: u64,
}

/// A `poll` whose answer waits until its job ends or its wait runs out.
/// The stream is non-blocking, so answering it never stalls the thread
/// that ends the job: a short line fits the empty send buffer at once.
#[derive(Debug)]
struct HeldPoll {
    job: String,
    stream: TcpStream,
    until: Deadline,
}

/// A completed-job line for the `stats` response.
#[derive(Debug, Clone)]
struct CompletedJob {
    id: String,
    kind: ExperimentKind,
    scale: Scale,
    state: JobState,
    wall_seconds: f64,
    stall_causes: Vec<(String, u64)>,
}

/// Monotonic counters for the `stats` response.
#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    deduped: u64,
    rejected: u64,
    rejected_unsound: u64,
    rejected_unsafe_program: u64,
    completed: u64,
    failed: u64,
    expired: u64,
}

#[derive(Debug)]
struct Inner {
    queue: VecDeque<String>,
    jobs: HashMap<String, JobRecord>,
    cache: ResultCache,
    counters: Counters,
    busy: usize,
    draining: bool,
    /// The most recent executions, for `stats`.
    completed: VecDeque<CompletedJob>,
    /// Terminal records in the order they ended, with their submission
    /// numbers: the eviction window.
    ended: VecDeque<(String, u64)>,
    /// Polls waiting for their job to end, at most
    /// [`ServeConfig::held_polls`].
    held: Vec<HeldPoll>,
}

struct Shared {
    cfg: ServeConfig,
    inner: Mutex<Inner>,
    /// Signalled when a job is queued and when draining begins.
    work: Condvar,
    started: Clock,
    /// Persistent per-job timing histograms behind the `metrics` request
    /// (`job-queue-ms`: submit→dequeue wait, `job-service-ms`: worker
    /// execution time). Counters and gauges are point-in-time snapshots of
    /// [`Inner`] and are added at render time.
    metrics: Mutex<MetricsRegistry>,
    /// The listener's own address, connected to once to wake the blocked
    /// accept when draining begins.
    wake_addr: SocketAddr,
}

impl Shared {
    fn new(cfg: ServeConfig, wake_addr: SocketAddr) -> Shared {
        let mut metrics = MetricsRegistry::new();
        metrics.register_histogram("job-queue-ms", DEFAULT_TIME_BOUNDS_MS);
        metrics.register_histogram("job-service-ms", DEFAULT_TIME_BOUNDS_MS);
        Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                cache: ResultCache::new(cfg.cache_capacity),
                counters: Counters::default(),
                busy: 0,
                draining: false,
                completed: VecDeque::new(),
                ended: VecDeque::new(),
                held: Vec::new(),
            }),
            cfg,
            work: Condvar::new(),
            started: Clock::now(),
            metrics: Mutex::new(metrics),
            wake_addr,
        }
    }
}

/// Moves job `id` into a terminal `state`, counts it, answers the polls
/// held on it, and evicts the record that falls out of the window of the
/// last `completed_log` terminal records.
fn finish(shared: &Shared, inner: &mut Inner, id: &str, state: JobState, error: Option<String>) {
    let Some(rec) = inner.jobs.get_mut(id) else {
        return;
    };
    rec.state = state;
    rec.error = error;
    let seq = rec.seq;
    match state {
        JobState::Done => inner.counters.completed += 1,
        JobState::Failed => inner.counters.failed += 1,
        JobState::Expired => inner.counters.expired += 1,
        // Callers pass only terminal states; counting a non-terminal as
        // failed keeps the books consistent if that ever changes.
        JobState::Queued | JobState::Running => {
            debug_assert!(false, "jobs only finish into terminal states");
            inner.counters.failed += 1;
        }
    }
    release_held(inner, |held| held.job == id);
    inner.ended.push_back((id.to_string(), seq));
    while inner.ended.len() > shared.cfg.completed_log {
        let Some((old, seq)) = inner.ended.pop_front() else {
            break;
        };
        // The id may have been resubmitted since; keep that record.
        if inner.jobs.get(&old).is_some_and(|r| r.seq == seq) {
            inner.jobs.remove(&old);
        }
    }
}

/// Answers and closes every held poll that `due` selects, with its job's
/// state as `poll` reports it.
fn release_held(inner: &mut Inner, due: impl Fn(&HeldPoll) -> bool) {
    let (answer, keep) = std::mem::take(&mut inner.held)
        .into_iter()
        .partition::<Vec<_>, _>(|held| due(held));
    inner.held = keep;
    for held in answer {
        // A peer that has gone away only loses its own answer.
        let _ = write_response(&held.stream, &poll_status(inner, &held.job));
    }
}

/// Locks the shared state, recovering from poisoning: one panicking
/// handler must not wedge every other connection, and `Inner` is kept
/// consistent at every await-free critical section, so the data behind a
/// poisoned lock is still well-formed.
fn lock_inner(shared: &Shared) -> std::sync::MutexGuard<'_, Inner> {
    shared.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Locks the metrics registry with the same poisoning policy.
fn lock_metrics(shared: &Shared) -> std::sync::MutexGuard<'_, MetricsRegistry> {
    shared
        .metrics
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A bound-but-not-yet-running job server.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(if wake_addr.is_ipv4() {
                Ipv4Addr::LOCALHOST.into()
            } else {
                Ipv6Addr::LOCALHOST.into()
            });
        }
        Ok(Server {
            listener,
            shared: Shared::new(cfg, wake_addr),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that, once set (e.g. from a SIGTERM handler), makes the
    /// server stop accepting work, drain, and return from [`Server::run`].
    /// The reaper notices it within one 25 ms tick.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until shutdown (envelope or [`Server::shutdown_flag`]),
    /// draining all accepted jobs before returning.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors (per-connection errors only
    /// drop that connection). The accepted jobs still drain first.
    pub fn run(self) -> std::io::Result<()> {
        let Server {
            listener,
            shared,
            shutdown,
        } = self;
        let shared = &shared;
        let (handoff, incoming) = std::sync::mpsc::sync_channel(HANDOFF_QUEUE);
        let incoming = Mutex::new(incoming);
        std::thread::scope(|scope| {
            for worker in 0..shared.cfg.workers.max(1) {
                // Startup-only: no pool means no service at all.
                #[allow(clippy::expect_used)]
                std::thread::Builder::new()
                    .name(format!("redbin-worker-{worker}"))
                    .spawn_scoped(scope, || worker_loop(shared))
                    .expect("spawn worker");
            }
            for handler in 0..shared.cfg.handlers() {
                // Startup-only: connections need a handler to exist.
                #[allow(clippy::expect_used)]
                std::thread::Builder::new()
                    .name(format!("redbin-conn-{handler}"))
                    .spawn_scoped(scope, || handler_loop(shared, &incoming))
                    .expect("spawn connection handler");
            }
            // Startup-only: deadlines need the reaper to exist.
            #[allow(clippy::expect_used)]
            std::thread::Builder::new()
                .name("redbin-reaper".into())
                .spawn_scoped(scope, || reaper_loop(shared, &shutdown))
                .expect("spawn reaper");

            let accepted = accept_loop(&listener, shared, &handoff);
            // Nothing new is accepted past here (after an accept error, this
            // is where the drain starts). Handlers answer the queued
            // connections and exit once the channel is empty; workers drain
            // the job queue; the reaper exits once nothing is outstanding.
            drop(handoff);
            begin_drain(shared);
            accepted
        })
    }
}

/// Accepts until draining begins, handing each connection to the pool.
fn accept_loop(
    listener: &TcpListener,
    shared: &Shared,
    handoff: &SyncSender<TcpStream>,
) -> std::io::Result<()> {
    loop {
        let accepted = listener.accept();
        // Draining wakes this accept with a connection of its own.
        if lock_inner(shared).draining {
            return Ok(());
        }
        match accepted {
            Ok((stream, _peer)) => match handoff.try_send(stream) {
                Ok(()) => {}
                Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
                    answer_busy(&stream, shared.cfg.handlers());
                }
            },
            // The peer gave up while queued in the backlog, or a signal
            // interrupted the call: neither is the listener's fault.
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted
                        | std::io::ErrorKind::ConnectionReset
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Puts the server into draining mode (idempotent). The first call wakes
/// the accept loop, blocked in `accept`, by connecting to the server's own
/// address once; the accept loop drops that connection unread.
fn begin_drain(shared: &Shared) {
    let first = !std::mem::replace(&mut lock_inner(shared).draining, true);
    shared.work.notify_all();
    if first {
        let _ = TcpStream::connect_timeout(&shared.wake_addr, Duration::from_secs(1));
    }
}

/// Jobs not yet finished (queued + running) — reported in `bye`.
fn outstanding(inner: &Inner) -> u64 {
    inner.queue.len() as u64 + inner.busy as u64
}

/// A connection handler: serves the connections the accept loop hands
/// over, one at a time, until the accept loop is gone and the hand-off
/// queue is empty.
fn handler_loop(shared: &Shared, incoming: &Mutex<Receiver<TcpStream>>) {
    loop {
        // The lock is held only while waiting for the next connection.
        let next = incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .recv();
        let Ok(stream) = next else {
            return;
        };
        // One connection's failure, or a panic while serving it, closes
        // that connection and must not cost the pool a thread.
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| handle_connection(stream, shared)));
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let (id, record_spec, cancelled, deadline, queued_ms) = {
            let mut inner = lock_inner(shared);
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    // Every queued id has a record (submit inserts both under
                    // one lock, and only terminal records are evicted); a
                    // missing one means the record was torn down, and the
                    // only safe move is to skip the orphaned id.
                    let Some(rec) = inner.jobs.get_mut(&id) else {
                        continue;
                    };
                    // Deadline may have passed while queued (the reaper also
                    // sweeps, but this close the last race).
                    if rec.deadline.is_some_and(|d| d.expired()) {
                        finish(
                            shared,
                            &mut inner,
                            &id,
                            JobState::Expired,
                            Some("deadline exceeded while queued".into()),
                        );
                        continue;
                    }
                    rec.state = JobState::Running;
                    let out = (
                        id.clone(),
                        rec.spec.clone(),
                        Arc::clone(&rec.cancelled),
                        rec.deadline,
                        rec.queued_at.elapsed().as_millis() as u64,
                    );
                    inner.busy += 1;
                    break out;
                }
                if inner.draining {
                    return;
                }
                let (guard, _timeout) = shared
                    .work
                    .wait_timeout(inner, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
            }
        };

        let started = Clock::now();
        let threads = shared.cfg.job_threads;
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| record_spec.run(threads, &cancelled)));
        let wall_seconds = started.seconds();

        {
            let mut metrics = lock_metrics(shared);
            metrics.observe("job-queue-ms", queued_ms);
            metrics.observe("job-service-ms", started.elapsed().as_millis() as u64);
        }

        let mut inner = lock_inner(shared);
        inner.busy -= 1;
        let was_cancelled = cancelled.load(Ordering::Relaxed);
        let late = deadline.is_some_and(|d| d.expired());
        let (state, error, stall_causes) = match outcome {
            Ok(body) => {
                let causes = aggregate_stall_causes(&body);
                if was_cancelled {
                    // Body is partial; never cache it.
                    (
                        JobState::Expired,
                        Some("deadline exceeded; job cancelled".into()),
                        causes,
                    )
                } else {
                    // Complete body: cache it unconditionally (the content
                    // address is valid even if *this* submission missed its
                    // deadline).
                    inner.cache.insert(&id, body);
                    if late {
                        (
                            JobState::Expired,
                            Some("completed after deadline".into()),
                            causes,
                        )
                    } else {
                        (JobState::Done, None, causes)
                    }
                }
            }
            Err(panic) => (JobState::Failed, Some(panic_message(&panic)), Vec::new()),
        };
        finish(shared, &mut inner, &id, state, error);
        inner.completed.push_back(CompletedJob {
            id,
            kind: record_spec.kind,
            scale: record_spec.scale,
            state,
            wall_seconds,
            stall_causes,
        });
        while inner.completed.len() > shared.cfg.completed_log {
            inner.completed.pop_front();
        }
    }
}

/// Periodically expires queued jobs past their deadline and cancels late
/// running jobs; starts the drain once the external shutdown flag is set.
/// Returns once draining has begun and no job is outstanding.
fn reaper_loop(shared: &Shared, shutdown: &AtomicBool) {
    loop {
        std::thread::sleep(REAPER_TICK);
        if shutdown.load(Ordering::Relaxed) {
            begin_drain(shared);
        }
        let mut inner = lock_inner(shared);
        if inner.draining && outstanding(&inner) == 0 {
            // Every job has ended, so no poll is left holding; answer any
            // that is rather than drop it unanswered.
            release_held(&mut inner, |_| true);
            return;
        }
        let mut expired_ids = Vec::new();
        {
            let Inner { queue, jobs, .. } = &mut *inner;
            queue.retain(|id| {
                let late = jobs
                    .get(id)
                    .is_some_and(|rec| rec.deadline.is_some_and(|d| d.expired()));
                if late {
                    expired_ids.push(id.clone());
                }
                !late
            });
        }
        for id in expired_ids {
            finish(
                shared,
                &mut inner,
                &id,
                JobState::Expired,
                Some("deadline exceeded while queued".into()),
            );
        }
        for rec in inner.jobs.values_mut() {
            if rec.state == JobState::Running && rec.deadline.is_some_and(|d| d.expired()) {
                rec.cancelled.store(true, Ordering::Relaxed);
            }
        }
        release_held(&mut inner, |held| held.until.expired());
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Sums every `"stall" → "causes"` object in a result body — the PR-1
/// stall-cause breakdown, aggregated over all machine models/benchmarks a
/// job simulated. Returned in [`StallCause::all`] order for stable output.
fn aggregate_stall_causes(body: &Json) -> Vec<(String, u64)> {
    fn walk(v: &Json, totals: &mut HashMap<String, u64>) {
        match v {
            Json::Obj(pairs) => {
                for (k, val) in pairs {
                    if k == "stall" {
                        if let Some(Json::Obj(causes)) = val.get("causes") {
                            for (cause, n) in causes {
                                if let Some(n) = n.as_u64() {
                                    *totals.entry(cause.clone()).or_insert(0) += n;
                                }
                            }
                        }
                    }
                    walk(val, totals);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    walk(item, totals);
                }
            }
            _ => {}
        }
    }
    let mut totals = HashMap::new();
    walk(body, &mut totals);
    if totals.is_empty() {
        return Vec::new();
    }
    StallCause::all()
        .iter()
        .map(|c| {
            (
                c.key().to_string(),
                totals.get(c.key()).copied().unwrap_or(0),
            )
        })
        .collect()
}

/// What a handler read from its connection.
enum Incoming {
    /// The peer closed without sending a byte.
    Nothing,
    /// One request line, without its newline.
    Line(Vec<u8>),
    /// More than [`MAX_REQUEST_BYTES`] arrived before a newline.
    TooLarge,
}

/// Reads once from `stream` (whose read timeout is [`REAPER_TICK`]),
/// giving up once `deadline` passes or the server starts draining.
fn read_before(
    mut stream: &TcpStream,
    deadline: &Deadline,
    shared: &Shared,
    buf: &mut [u8],
) -> std::io::Result<usize> {
    loop {
        match stream.read(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if deadline.expired() || lock_inner(shared).draining {
                    return Err(e);
                }
            }
            read => return read,
        }
    }
}

/// Reads one request line of at most [`MAX_REQUEST_BYTES`] by `deadline`.
/// Bytes after the first newline are ignored: one request per connection.
fn read_request(
    stream: &TcpStream,
    deadline: &Deadline,
    shared: &Shared,
) -> std::io::Result<Incoming> {
    let mut line = Vec::new();
    let mut chunk = [0u8; 8192];
    loop {
        let n = read_before(stream, deadline, shared, &mut chunk)?;
        if n == 0 {
            return Ok(if line.is_empty() {
                Incoming::Nothing
            } else {
                Incoming::Line(line)
            });
        }
        let newline = chunk[..n].iter().position(|&c| c == b'\n');
        line.extend_from_slice(&chunk[..newline.unwrap_or(n)]);
        if line.len() > MAX_REQUEST_BYTES {
            return Ok(Incoming::TooLarge);
        }
        if newline.is_some() {
            return Ok(Incoming::Line(line));
        }
    }
}

/// Writes one response line.
fn write_response(mut stream: &TcpStream, response: &Response) -> std::io::Result<()> {
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let mut line = response.to_line();
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// Answers a connection that no handler can take, then closes it. The
/// accept loop never waits on the peer here: a fresh socket's send buffer
/// takes the short answer at once.
fn answer_busy(stream: &TcpStream, handlers: usize) {
    let busy = Response::Error {
        message: format!(
            "{BUSY}: {handlers} connection handlers and {HANDOFF_QUEUE} queued \
             connections are taken; retry shortly"
        ),
    };
    let _ = write_response(stream, &busy);
    let _ = stream.shutdown(Shutdown::Write);
}

/// Serves one connection: reads one request line within [`READ_DEADLINE`],
/// answers it, and closes. A waiting poll hands the connection to
/// [`hold_poll`] instead.
fn handle_connection(stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    let deadline = Deadline::after(READ_DEADLINE);
    stream.set_read_timeout(Some(REAPER_TICK))?;
    let reply = match read_request(&stream, &deadline, shared)? {
        Incoming::Nothing => return Ok(()),
        Incoming::TooLarge => {
            let too_large = Response::Error {
                message: format!(
                    "request too large: more than {MAX_REQUEST_BYTES} bytes without a newline"
                ),
            };
            write_response(&stream, &too_large)?;
            // Read what the peer is still sending until it closes or the
            // deadline passes: closing with unread input would reset the
            // connection before the peer reads the answer.
            stream.shutdown(Shutdown::Write)?;
            let mut sink = [0u8; 8192];
            while read_before(&stream, &deadline, shared, &mut sink)? > 0 {}
            return Ok(());
        }
        Incoming::Line(bytes) => match String::from_utf8(bytes) {
            Ok(line) => handle_line(line.trim(), shared),
            Err(_) => Reply::Answer(Response::Error {
                message: "request is not valid UTF-8".into(),
            }),
        },
    };
    match reply {
        Reply::Answer(response) => write_response(&stream, &response),
        Reply::AnswerThenDrain(response) => {
            let written = write_response(&stream, &response);
            begin_drain(shared);
            written
        }
        Reply::Hold { job, wait } => hold_poll(stream, job, wait, shared),
    }
}

/// What a handler does with a dispatched request.
#[derive(Debug)]
enum Reply {
    /// Write the response and close.
    Answer(Response),
    /// Write the response, close, and begin draining (`shutdown`).
    AnswerThenDrain(Response),
    /// A `poll` with a wait: see [`hold_poll`].
    Hold { job: String, wait: Duration },
}

/// Dispatches one request line.
fn handle_line(line: &str, shared: &Shared) -> Reply {
    let request = match Request::from_line(line) {
        Ok(r) => r,
        Err(e) => {
            return Reply::Answer(Response::Error {
                message: e.to_string(),
            })
        }
    };
    match request {
        Request::Submit { spec, deadline_ms } => {
            Reply::Answer(handle_submit(spec, deadline_ms, shared))
        }
        Request::Poll {
            job,
            wait_ms: Some(ms),
        } if ms > 0 => Reply::Hold {
            job,
            wait: Duration::from_millis(ms.min(MAX_POLL_WAIT_MS)),
        },
        Request::Poll { job, .. } => Reply::Answer(poll_status(&lock_inner(shared), &job)),
        Request::Fetch { job } => Reply::Answer(handle_fetch(&job, shared)),
        Request::Stats => Reply::Answer(Response::Stats {
            body: stats_body(shared),
        }),
        Request::Metrics => Reply::Answer(Response::Metrics {
            text: metrics_text(shared),
        }),
        Request::Shutdown => Reply::AnswerThenDrain(Response::Bye {
            draining: outstanding(&lock_inner(shared)),
        }),
    }
}

fn handle_submit(spec: JobSpec, deadline_ms: Option<u64>, shared: &Shared) -> Response {
    let id = spec.job_id();
    // Static soundness gate (outside the lock — it is pure computation):
    // a config whose bypass network can never deliver some operand class
    // would wedge or mis-simulate, so it is rejected here with a
    // structured error instead of being queued to fail later.
    let unsound = redbin_analyze::bypass::validate_job_configs(&spec.machine_configs()).err();
    // Program verifier gate for custom jobs, also outside the lock: the
    // submitted source must assemble and prove memory-safe + terminating
    // before a worker will ever simulate it (see SERVING.md).
    let unsafe_program = verify_custom_program(&spec).err();
    let mut inner = lock_inner(shared);
    if inner.draining {
        return Response::Error {
            message: "server is draining".into(),
        };
    }
    if let Some(e) = unsound {
        inner.counters.rejected_unsound += 1;
        return Response::Error {
            message: e.to_string(),
        };
    }
    if let Some(e) = unsafe_program {
        inner.counters.rejected_unsafe_program += 1;
        return Response::Error { message: e };
    }

    // Content-addressed fast path: the result already exists.
    if inner.cache.lookup(&id).is_some() {
        return Response::Accepted {
            job: id,
            cache_hit: true,
            state: JobState::Done,
        };
    }
    // A miss was just counted; the outcomes below all correspond to "the
    // result was not served from cache".

    // Idempotent submit: the same computation is already queued or running.
    let live_state = inner
        .jobs
        .get(&id)
        .map(|rec| rec.state)
        .filter(|s| !s.is_terminal());
    if let Some(state) = live_state {
        inner.counters.deduped += 1;
        return Response::Accepted {
            job: id,
            cache_hit: false,
            state,
        };
    }

    // Backpressure: explicit retry-after, never a hang.
    if inner.queue.len() >= shared.cfg.queue_capacity {
        inner.counters.rejected += 1;
        return Response::RetryAfter {
            seconds: shared.cfg.retry_after_secs.max(1),
        };
    }

    let effective_ms = deadline_ms.unwrap_or(shared.cfg.default_deadline_ms);
    let deadline = (effective_ms > 0).then(|| Deadline::after(Duration::from_millis(effective_ms)));
    let seq = inner.counters.submitted;
    inner.jobs.insert(
        id.clone(),
        JobRecord {
            spec,
            state: JobState::Queued,
            error: None,
            deadline,
            queued_at: Clock::now(),
            cancelled: Arc::new(AtomicBool::new(false)),
            seq,
        },
    );
    inner.queue.push_back(id.clone());
    inner.counters.submitted += 1;
    shared.work.notify_one();
    Response::Accepted {
        job: id,
        cache_hit: false,
        state: JobState::Queued,
    }
}

/// Assembles and safety-verifies a [`ExperimentKind::Custom`] job's
/// source. Lints stay off — the gate is the safety tier only: every
/// load/store provably inside a declared region and a termination proof.
fn verify_custom_program(spec: &JobSpec) -> Result<(), String> {
    use redbin_analyze::program::{analyze_program, AnalyzeOptions};
    if spec.kind != redbin::wire::ExperimentKind::Custom {
        return Ok(());
    }
    let src = spec
        .custom
        .as_deref()
        .ok_or_else(|| "rejected unsafe program: custom job has no source".to_string())?;
    let prog = redbin::workload::text::parse(src)
        .map_err(|e| format!("rejected unsafe program: does not assemble: {e}"))?;
    let a = analyze_program(
        &prog,
        None,
        &AnalyzeOptions {
            lints: false,
            ..Default::default()
        },
    );
    if a.safe() {
        return Ok(());
    }
    let mut msg = format!(
        "rejected unsafe program: memory {}, termination {}",
        verdict_word(a.memory),
        verdict_word(a.termination),
    );
    for note in &a.notes {
        msg.push_str("; ");
        msg.push_str(note);
    }
    Err(msg)
}

/// [`Verdict`] label for rejection messages.
fn verdict_word(v: redbin_analyze::program::Verdict) -> &'static str {
    match v {
        redbin_analyze::program::Verdict::Proved => "proved",
        redbin_analyze::program::Verdict::Violated => "VIOLATED",
        redbin_analyze::program::Verdict::Unknown => "unprovable",
    }
}

/// The answer to a `poll` of `job`, held or not.
fn poll_status(inner: &Inner, job: &str) -> Response {
    // Cache presence alone answers done — the record may have been
    // evicted, or the entry may come from an earlier submission.
    let (state, error) = if let Some(rec) = inner.jobs.get(job) {
        (rec.state, rec.error.clone())
    } else if inner.cache.peek(job).is_some() {
        (JobState::Done, None)
    } else {
        return Response::Error {
            message: format!("unknown job `{job}`"),
        };
    };
    Response::Status {
        job: job.to_string(),
        state,
        error,
    }
}

/// Answers a `poll` that may wait up to `wait`. An unfinished job's poll
/// is parked in [`Inner::held`], to be answered by [`finish`] or, once
/// the wait runs out, by the reaper; the handler is free at once. Any
/// other poll, or one past [`ServeConfig::held_polls`], is answered now.
fn hold_poll(
    stream: TcpStream,
    job: String,
    wait: Duration,
    shared: &Shared,
) -> std::io::Result<()> {
    let mut inner = lock_inner(shared);
    let status = poll_status(&inner, &job);
    let unfinished = matches!(&status, Response::Status { state, .. } if !state.is_terminal());
    if !unfinished || inner.held.len() >= shared.cfg.held_polls() {
        drop(inner);
        return write_response(&stream, &status);
    }
    stream.set_nonblocking(true)?;
    inner.held.push(HeldPoll {
        job,
        stream,
        until: Deadline::after(wait),
    });
    Ok(())
}

fn handle_fetch(job: &str, shared: &Shared) -> Response {
    let inner = lock_inner(shared);
    if let Some(body) = inner.cache.peek(job) {
        return Response::Result {
            job: job.to_string(),
            body: body.clone(),
        };
    }
    match inner.jobs.get(job) {
        Some(rec) if !rec.state.is_terminal() => Response::Error {
            message: format!("job `{job}` is {}; poll until done", rec.state.name()),
        },
        Some(rec) => Response::Error {
            message: format!(
                "job `{job}` {}: {}",
                rec.state.name(),
                rec.error.as_deref().unwrap_or("no result")
            ),
        },
        None => Response::Error {
            message: format!("unknown job `{job}`"),
        },
    }
}

/// Builds the `stats` response body.
fn stats_body(shared: &Shared) -> Json {
    let inner = lock_inner(shared);
    let mut body = Json::object();
    body.set("uptime-seconds", Json::Num(shared.started.seconds()));
    body.set("workers", Json::UInt(shared.cfg.workers as u64));
    body.set("workers-busy", Json::UInt(inner.busy as u64));
    body.set("queue-depth", Json::UInt(inner.queue.len() as u64));
    body.set(
        "queue-capacity",
        Json::UInt(shared.cfg.queue_capacity as u64),
    );
    body.set(
        "worker-utilization",
        Json::Num(inner.busy as f64 / shared.cfg.workers.max(1) as f64),
    );
    let mut jobs = Json::object();
    jobs.set("submitted", Json::UInt(inner.counters.submitted));
    jobs.set("deduped", Json::UInt(inner.counters.deduped));
    jobs.set("rejected", Json::UInt(inner.counters.rejected));
    jobs.set(
        "rejected-unsound",
        Json::UInt(inner.counters.rejected_unsound),
    );
    jobs.set(
        "rejected-unsafe-program",
        Json::UInt(inner.counters.rejected_unsafe_program),
    );
    jobs.set("completed", Json::UInt(inner.counters.completed));
    jobs.set("failed", Json::UInt(inner.counters.failed));
    jobs.set("expired", Json::UInt(inner.counters.expired));
    body.set("jobs", jobs);
    let mut cache = Json::object();
    cache.set("entries", Json::UInt(inner.cache.len() as u64));
    cache.set("capacity", Json::UInt(shared.cfg.cache_capacity as u64));
    cache.set("hits", Json::UInt(inner.cache.hits()));
    cache.set("misses", Json::UInt(inner.cache.misses()));
    cache.set("hit-rate", Json::Num(inner.cache.hit_rate()));
    body.set("cache", cache);

    let rows: Vec<Json> = inner
        .completed
        .iter()
        .map(|c| {
            let mut o = Json::object();
            o.set("job", Json::Str(c.id.clone()));
            o.set("experiment", Json::Str(c.kind.name().to_string()));
            o.set("scale", Json::Str(c.scale.name().to_string()));
            o.set("state", Json::Str(c.state.name().to_string()));
            o.set("wall-seconds", Json::Num(c.wall_seconds));
            if !c.stall_causes.is_empty() {
                o.set(
                    "stall-causes",
                    Json::Obj(
                        c.stall_causes
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                            .collect(),
                    ),
                );
            }
            o
        })
        .collect();
    body.set("completed", Json::Arr(rows));
    body
}

/// Builds the text-exposition dump behind the `metrics` request: the
/// persistent per-job timing histograms plus point-in-time counters and
/// gauges snapshotted from [`Inner`].
fn metrics_text(shared: &Shared) -> String {
    let mut reg = lock_metrics(shared).clone();
    let inner = lock_inner(shared);
    reg.add("jobs-submitted", inner.counters.submitted);
    reg.add("jobs-deduped", inner.counters.deduped);
    reg.add("jobs-rejected", inner.counters.rejected);
    reg.add("jobs-rejected-unsound", inner.counters.rejected_unsound);
    reg.add(
        "jobs-rejected-unsafe-program",
        inner.counters.rejected_unsafe_program,
    );
    reg.add("jobs-completed", inner.counters.completed);
    reg.add("jobs-failed", inner.counters.failed);
    reg.add("jobs-expired", inner.counters.expired);
    reg.add("cache-hits", inner.cache.hits());
    reg.add("cache-misses", inner.cache.misses());
    reg.set_gauge("uptime-seconds", shared.started.seconds());
    reg.set_gauge("queue-depth", inner.queue.len() as f64);
    reg.set_gauge("workers-busy", inner.busy as f64);
    reg.set_gauge(
        "worker-utilization",
        inner.busy as f64 / shared.cfg.workers.max(1) as f64,
    );
    reg.set_gauge("cache-entries", inner.cache.len() as f64);
    reg.render_text()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_aggregation_sums_across_models() {
        let doc = redbin::json::parse(
            r#"{"rows":[
                {"stats":{"Baseline":{"stall":{"causes":{"fetch-starved":3,"window-full":1}}},
                          "Ideal":{"stall":{"causes":{"fetch-starved":4,"window-full":0}}}}}
            ]}"#,
        )
        .expect("valid");
        let causes = aggregate_stall_causes(&doc);
        assert!(!causes.is_empty());
        let get = |k: &str| {
            causes
                .iter()
                .find(|(c, _)| c == k)
                .map(|(_, n)| *n)
                .unwrap_or(0)
        };
        assert_eq!(get("fetch-starved"), 7);
        assert_eq!(get("window-full"), 1);
    }

    #[test]
    fn stall_aggregation_empty_for_stall_free_bodies() {
        let doc = redbin::json::parse(r#"{"rows":[{"x":1}]}"#).expect("valid");
        assert!(aggregate_stall_causes(&doc).is_empty());
    }

    /// A server state with no listener; draining connects nowhere.
    fn test_shared(cfg: ServeConfig) -> Shared {
        Shared::new(cfg, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    #[test]
    fn metrics_request_renders_histograms_and_counters() {
        let shared = test_shared(ServeConfig::default());
        lock_metrics(&shared).observe("job-service-ms", 7);
        lock_inner(&shared).counters.submitted = 3;
        let Reply::Answer(Response::Metrics { text }) =
            handle_line(&Request::Metrics.to_line(), &shared)
        else {
            panic!("expected a metrics response");
        };
        assert!(text.contains("# TYPE job-service-ms histogram"));
        assert!(text.contains("# TYPE job-queue-ms histogram"));
        assert!(text.contains("jobs-submitted 3"));
        assert!(text.contains("uptime-seconds"));
    }

    #[test]
    fn metrics_text_is_safe_on_an_idle_server() {
        let shared = test_shared(ServeConfig::default());
        let text = metrics_text(&shared);
        assert!(text.contains("job-queue-ms-count 0"));
        assert!(text.contains("worker-utilization 0"));
    }

    #[test]
    fn terminal_records_are_evicted_past_the_completed_log_window() {
        let window = 4;
        let shared = test_shared(ServeConfig {
            completed_log: window,
            ..ServeConfig::default()
        });
        let ids: Vec<String> = (0..3 * window as u64)
            .map(
                |ms| match handle_submit(JobSpec::sleep(ms), None, &shared) {
                    Response::Accepted { job, .. } => job,
                    other => panic!("expected acceptance, got {other:?}"),
                },
            )
            .collect();
        // A draining worker runs the queue dry, then returns.
        begin_drain(&shared);
        worker_loop(&shared);
        let inner = lock_inner(&shared);
        assert!(inner.jobs.len() <= window, "{} records", inner.jobs.len());
        assert_eq!(inner.ended.len(), window);
        assert_eq!(inner.completed.len(), window);
        assert_eq!(inner.counters.completed, 3 * window as u64);
        drop(inner);
        // An evicted done job still answers poll and fetch from the cache.
        assert_eq!(
            poll_status(&lock_inner(&shared), &ids[0]),
            Response::Status {
                job: ids[0].clone(),
                state: JobState::Done,
                error: None,
            }
        );
        assert!(matches!(
            handle_fetch(&ids[0], &shared),
            Response::Result { .. }
        ));
    }

    #[test]
    fn a_resubmitted_id_keeps_its_new_record() {
        let shared = test_shared(ServeConfig {
            completed_log: 1,
            ..ServeConfig::default()
        });
        let spec = JobSpec::sleep(5);
        let id = spec.job_id();
        let mut inner = lock_inner(&shared);
        for seq in 0..2 {
            inner.jobs.insert(
                id.clone(),
                JobRecord {
                    spec: spec.clone(),
                    state: JobState::Queued,
                    error: None,
                    deadline: None,
                    queued_at: Clock::now(),
                    cancelled: Arc::new(AtomicBool::new(false)),
                    seq,
                },
            );
            finish(&shared, &mut inner, &id, JobState::Expired, None);
        }
        // The first record's window slot ran out after the second record
        // replaced it: the second record, still in the window, stays.
        assert_eq!(inner.jobs.get(&id).map(|r| r.seq), Some(1));
        assert_eq!(inner.counters.expired, 2);
    }

    /// Reads the one response line a connection gets.
    fn read_reply(stream: TcpStream) -> Response {
        use std::io::BufRead;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut line = String::new();
        std::io::BufReader::new(stream)
            .read_line(&mut line)
            .expect("read");
        Response::from_line(&line).expect("an envelope")
    }

    #[test]
    fn held_polls_are_answered_when_their_job_ends_and_capped() {
        let shared = test_shared(ServeConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServeConfig::default()
        });
        let Response::Accepted { job, .. } = handle_submit(JobSpec::sleep(5), None, &shared) else {
            panic!("expected acceptance");
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let cap = shared.cfg.held_polls();
        let clients: Vec<TcpStream> = (0..=cap)
            .map(|_| {
                let client = TcpStream::connect(addr).expect("connect");
                let (conn, _) = listener.accept().expect("accept");
                hold_poll(conn, job.clone(), Duration::from_secs(60), &shared).expect("hold");
                client
            })
            .collect();
        assert_eq!(lock_inner(&shared).held.len(), cap);
        let mut clients = clients.into_iter();
        // The poll past the cap is answered at once with the job's state.
        let Some(late) = clients.next_back() else {
            panic!("no clients");
        };
        assert!(matches!(
            read_reply(late),
            Response::Status {
                state: JobState::Queued,
                ..
            }
        ));
        // Ending the job answers every held poll with its terminal state.
        finish(
            &shared,
            &mut lock_inner(&shared),
            &job,
            JobState::Expired,
            Some("test".into()),
        );
        assert!(lock_inner(&shared).held.is_empty());
        for client in clients {
            assert_eq!(
                read_reply(client),
                Response::Status {
                    job: job.clone(),
                    state: JobState::Expired,
                    error: Some("test".into()),
                }
            );
        }
    }
}
