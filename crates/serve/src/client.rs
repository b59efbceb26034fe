//! A blocking client for the `redbin-served` wire protocol.
//!
//! Each request opens a fresh connection, sends one envelope line, and
//! reads one response line — the protocol is stateless, so this keeps the
//! client trivially robust against server restarts (the content-addressed
//! job ids stay valid across them as long as the cache is warm). A
//! connection the server refuses as busy, before reading the request, is
//! retried with jittered backoff.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use redbin::json::Json;
use redbin::telemetry::{Clock, Deadline};
use redbin::wire::{JobSpec, JobState, Request, Response, MAX_POLL_WAIT_MS};
use redbin_testkit::Rng;

use crate::server::BUSY;

/// The first backoff after a busy answer; it doubles per attempt up to
/// [`BUSY_BACKOFF_MAX_MS`].
const BUSY_BACKOFF_MS: u64 = 20;

/// The longest backoff after a busy answer.
const BUSY_BACKOFF_MAX_MS: u64 = 500;

/// A deterministic draw in `[base_ms/2, base_ms]` for retry `attempt`.
fn jittered(seed: u64, attempt: u32, base_ms: u64) -> Duration {
    let mut rng = Rng::new(seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let half = base_ms / 2;
    Duration::from_millis(half + rng.range_u64(0, half + 1))
}

/// Bounded retry with jittered backoff for submit-time backpressure.
///
/// A `retry-after` answer is the server saying "come back in N seconds";
/// a fleet of clients that all obey N literally re-collide N seconds
/// later. The policy clamps the suggestion to `retry_after_cap` and
/// sleeps a deterministic jitter in `[base/2, base]`, seeded from the
/// spec's canonical key so the schedule is reproducible per job and
/// decorrelated across jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional submit attempts after the first (0 = give up on the
    /// first `retry-after`).
    pub retries: u32,
    /// Upper bound, in seconds, on the server-suggested wait.
    pub retry_after_cap: u64,
}

impl RetryPolicy {
    /// No retries: the first `retry-after` is returned to the caller.
    pub fn none() -> Self {
        RetryPolicy {
            retries: 0,
            retry_after_cap: 1,
        }
    }

    /// The backoff before retry `attempt` (1-based), given the server's
    /// suggested wait. Deterministic in `(seed, attempt)`.
    pub fn backoff(&self, seed: u64, attempt: u32, suggested_secs: u64) -> Duration {
        let base_ms = suggested_secs
            .min(self.retry_after_cap)
            .saturating_mul(1000);
        jittered(seed, attempt, base_ms)
    }
}

/// A client error.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// The server's bytes did not decode as a protocol envelope.
    Protocol(String),
    /// The server answered with an `error` envelope.
    Server(String),
    /// The job reached a terminal state without a result.
    JobFailed {
        /// The job id.
        job: String,
        /// `failed` or `expired`.
        state: JobState,
        /// The server's failure message.
        message: String,
    },
    /// [`Client::run_to_completion`] gave up waiting.
    Timeout(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(m) => write!(f, "server: {m}"),
            ClientError::JobFailed {
                job,
                state,
                message,
            } => {
                write!(f, "job {job} {}: {message}", state.name())
            }
            ClientError::Timeout(m) => write!(f, "timeout: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking protocol client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// Per-request socket timeout.
    pub io_timeout: Duration,
    /// Delay between polls for callers that poll by hand with
    /// [`Client::poll`]. [`Client::run_to_completion`] uses
    /// [`Client::poll_wait`], which the server holds until the job ends,
    /// and sleeps this long only when the server answers before the wait
    /// ran out without the job having ended.
    pub poll_interval: Duration,
}

impl Client {
    /// A client for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            io_timeout: Duration::from_secs(10),
            poll_interval: Duration::from_millis(50),
        }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one request and reads one response. A [`BUSY`] answer means
    /// the server never read the request, so it is sent again after a
    /// jittered, doubling backoff until `io_timeout` has passed; the last
    /// busy answer is then returned.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on socket failure, [`ClientError::Protocol`] on
    /// an undecodable reply.
    pub fn request(&self, request: &Request) -> Result<Response, ClientError> {
        let mut addrs = self
            .addr
            .to_socket_addrs()
            .map_err(|e| ClientError::Protocol(format!("bad address `{}`: {e}", self.addr)))?;
        let addr = addrs.next().ok_or_else(|| {
            ClientError::Protocol(format!("address `{}` resolves to nothing", self.addr))
        })?;
        let mut line = request.to_line();
        line.push('\n');
        let give_up = Deadline::after(self.io_timeout);
        let mut attempt = 0;
        loop {
            let (response, port) = self.exchange(&addr, &line)?;
            let busy =
                matches!(&response, Response::Error { message } if message.starts_with(BUSY));
            if !busy || give_up.expired() {
                return Ok(response);
            }
            attempt += 1;
            // The refused connection's local port tells concurrent
            // clients apart, so their retries do not collide again.
            let base_ms = (BUSY_BACKOFF_MS << (attempt - 1).min(8)).min(BUSY_BACKOFF_MAX_MS);
            std::thread::sleep(jittered(u64::from(port), attempt, base_ms));
        }
    }

    /// One connection: sends `line`, reads one response, and returns it
    /// with the connection's local port.
    fn exchange(
        &self,
        addr: &std::net::SocketAddr,
        line: &str,
    ) -> Result<(Response, u16), ClientError> {
        let stream = TcpStream::connect_timeout(addr, self.io_timeout)?;
        let port = stream.local_addr()?.port();
        stream.set_read_timeout(Some(self.io_timeout))?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        (&stream).write_all(line.as_bytes())?;
        (&stream).flush()?;
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply)?;
        if reply.is_empty() {
            return Err(ClientError::Protocol(
                "server closed without replying".into(),
            ));
        }
        let response =
            Response::from_line(&reply).map_err(|e| ClientError::Protocol(e.to_string()))?;
        Ok((response, port))
    }

    /// Submits a job.
    ///
    /// # Errors
    ///
    /// Transport errors only — backpressure comes back as
    /// [`Response::RetryAfter`], not an error.
    pub fn submit(&self, spec: JobSpec, deadline_ms: Option<u64>) -> Result<Response, ClientError> {
        self.request(&Request::Submit { spec, deadline_ms })
    }

    /// Submits, retrying `policy.retries` times on `retry-after`
    /// backpressure with jittered backoff (see [`RetryPolicy`]). Any
    /// other response — including a final `retry-after` once the budget
    /// is exhausted — is returned to the caller unchanged.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from [`Client::submit`].
    pub fn submit_with_retry(
        &self,
        spec: JobSpec,
        deadline_ms: Option<u64>,
        policy: RetryPolicy,
    ) -> Result<Response, ClientError> {
        let seed = spec.canonical_key();
        let mut attempt = 0;
        loop {
            match self.submit(spec.clone(), deadline_ms)? {
                Response::RetryAfter { seconds } if attempt < policy.retries => {
                    attempt += 1;
                    std::thread::sleep(policy.backoff(seed, attempt, seconds));
                }
                other => return Ok(other),
            }
        }
    }

    /// Polls a job's state.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Server`] for unknown jobs.
    pub fn poll(&self, job: &str) -> Result<Response, ClientError> {
        self.request(&Request::Poll {
            job: job.to_string(),
            wait_ms: None,
        })
    }

    /// Polls a job's state, letting the server hold the answer until the
    /// job is terminal or `wait` passes. The server caps the wait at
    /// [`MAX_POLL_WAIT_MS`].
    ///
    /// # Errors
    ///
    /// Transport errors, or [`ClientError::Server`] for unknown jobs.
    pub fn poll_wait(&self, job: &str, wait: Duration) -> Result<Response, ClientError> {
        self.request(&Request::Poll {
            job: job.to_string(),
            wait_ms: Some(wait.as_millis().min(u128::from(MAX_POLL_WAIT_MS)) as u64),
        })
    }

    /// Fetches a completed job's result body.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] if the job is unknown or has no result.
    pub fn fetch(&self, job: &str) -> Result<Json, ClientError> {
        match self.request(&Request::Fetch {
            job: job.to_string(),
        })? {
            Response::Result { body, .. } => Ok(body),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to fetch: {other:?}"
            ))),
        }
    }

    /// Fetches the server's statistics document.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn stats(&self) -> Result<Json, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats { body } => Ok(body),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to stats: {other:?}"
            ))),
        }
    }

    /// Fetches the server's metrics dump in text exposition format
    /// (counters, gauges, and the per-job `job-queue-ms` /
    /// `job-service-ms` histograms).
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn metrics(&self) -> Result<String, ClientError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { text } => Ok(text),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to metrics: {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and exit; returns the number of jobs it
    /// still had in flight.
    ///
    /// # Errors
    ///
    /// Transport/protocol errors.
    pub fn shutdown(&self) -> Result<u64, ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::Bye { draining } => Ok(draining),
            Response::Error { message } => Err(ClientError::Server(message)),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to shutdown: {other:?}"
            ))),
        }
    }

    /// The full submit→poll→fetch cycle: submits (respecting `retry-after`
    /// backpressure), polls until terminal with server-held polls (no
    /// fixed sleep between them), and fetches the result.
    ///
    /// Returns `(job id, result body, served from cache at submit)`.
    ///
    /// # Errors
    ///
    /// [`ClientError::JobFailed`] if the job fails or expires;
    /// [`ClientError::Timeout`] if `overall_timeout` elapses first.
    pub fn run_to_completion(
        &self,
        spec: JobSpec,
        deadline_ms: Option<u64>,
        overall_timeout: Duration,
    ) -> Result<(String, Json, bool), ClientError> {
        let give_up = Deadline::after(overall_timeout);
        // Submit, backing off on explicit backpressure.
        let (job, cache_hit, mut state) = loop {
            match self.submit(spec.clone(), deadline_ms)? {
                Response::Accepted {
                    job,
                    cache_hit,
                    state,
                } => break (job, cache_hit, state),
                Response::RetryAfter { seconds } => {
                    if give_up.expired() {
                        return Err(ClientError::Timeout("queue stayed full".into()));
                    }
                    // Clamp: the server's suggestion is a politeness floor
                    // for busy fleets; tests use tiny queues.
                    std::thread::sleep(Duration::from_millis((seconds * 1000).min(500)));
                }
                Response::Error { message } => return Err(ClientError::Server(message)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected reply to submit: {other:?}"
                    )))
                }
            }
        };
        // Poll to terminal; the server answers as soon as the job ends.
        while !state.is_terminal() {
            if give_up.expired() {
                return Err(ClientError::Timeout(format!(
                    "job {job} still {}",
                    state.name()
                )));
            }
            let wait =
                Duration::from_millis(give_up.remaining().map_or(MAX_POLL_WAIT_MS, |left| {
                    (left.as_millis() as u64).min(MAX_POLL_WAIT_MS)
                }));
            let asked = Clock::now();
            state = match self.poll_wait(&job, wait)? {
                Response::Status { state, error, .. } => {
                    if state.is_terminal() && state != JobState::Done {
                        return Err(ClientError::JobFailed {
                            job,
                            state,
                            message: error.unwrap_or_default(),
                        });
                    }
                    state
                }
                Response::Error { message } => return Err(ClientError::Server(message)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected reply to poll: {other:?}"
                    )))
                }
            };
            // An unfinished job answered before the wait ran out means the
            // server held no poll for it (it holds a bounded number); fall
            // back to polling on the interval rather than spin.
            if !state.is_terminal() && asked.elapsed() < wait {
                std::thread::sleep(self.poll_interval);
            }
        }
        if state != JobState::Done {
            return Err(ClientError::JobFailed {
                job,
                state,
                message: "terminal without result".into(),
            });
        }
        let body = self.fetch(&job)?;
        Ok((job, body, cache_hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_jittered() {
        let policy = RetryPolicy {
            retries: 3,
            retry_after_cap: 4,
        };
        for seed in [0u64, 1, 0xdead_beef] {
            for attempt in 1..=3 {
                for suggested in [0u64, 1, 2, 60] {
                    let a = policy.backoff(seed, attempt, suggested);
                    let b = policy.backoff(seed, attempt, suggested);
                    assert_eq!(a, b, "same inputs, same backoff");
                    let base = suggested.min(policy.retry_after_cap) * 1000;
                    assert!(a.as_millis() as u64 >= base / 2);
                    assert!(a.as_millis() as u64 <= base);
                }
            }
        }
        // The cap really clamps an adversarially large suggestion.
        let capped = policy.backoff(7, 1, u64::MAX);
        assert!(capped <= Duration::from_secs(4));
        // Different attempts draw different jitter (with these seeds).
        let one = policy.backoff(42, 1, 4);
        let two = policy.backoff(42, 2, 4);
        assert_ne!(one, two, "jitter must vary across attempts");
    }

    #[test]
    fn zero_suggestion_means_no_sleep_and_none_means_no_retry() {
        let policy = RetryPolicy {
            retries: 5,
            retry_after_cap: 30,
        };
        assert_eq!(policy.backoff(1, 1, 0), Duration::from_millis(0));
        assert_eq!(RetryPolicy::none().retries, 0);
    }
}
