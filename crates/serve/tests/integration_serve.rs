//! End-to-end tests: a real `Server` on a loopback ephemeral port, driven
//! through the real `Client` over TCP.
//!
//! Covers the PR acceptance criteria:
//! * a `--scale test` Figure 9 job submitted twice — the second submission
//!   is a cache hit served byte-identically (same JSON envelope body), and
//!   the hit is visible in `stats`;
//! * queue-full backpressure (`retry-after`, not a hang);
//! * deadline-exceeded (expired while queued, and cancellation of a late
//!   running job);
//! * graceful shutdown draining in-flight jobs, an idle server waking its
//!   blocked accept when the shutdown flag is set, and idle connections
//!   closed by the drain;
//! * polls that the server holds until the job ends, for more waiting
//!   clients than there are handler threads and hand-off slots;
//! * the bounded connection path: one request line of at most
//!   `MAX_REQUEST_BYTES`, and a `server busy` answer past the handler pool
//!   and its hand-off queue, which the client retries;
//! * a job with a bypass or `rb-rf-only` override runs exactly the
//!   machines its id names and the submit-time check validates.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use redbin::json::Json;
use redbin::telemetry::Clock;
use redbin::wire::{ExperimentKind, JobSpec, JobState, Response, MAX_POLL_WAIT_MS};
use redbin::workload::Scale;
use redbin_serve::server::{BUSY, HANDOFF_QUEUE, MAX_REQUEST_BYTES, READ_DEADLINE};
use redbin_serve::{Client, ClientError, RetryPolicy, ServeConfig, Server};

/// Binds a server on an ephemeral loopback port and runs it on a
/// background thread; returns a client plus the join handle.
fn start_server(cfg: ServeConfig) -> (Client, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run());
    let client = Client::new(addr.to_string());
    (client, handle)
}

fn shut_down(client: &Client, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    client.shutdown().expect("shutdown accepted");
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn figure9_twice_hits_cache_byte_identically() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let spec = JobSpec::new(ExperimentKind::Figure9, Scale::Test);

    let (job1, body1, hit1) = client
        .run_to_completion(spec.clone(), None, Duration::from_secs(300))
        .expect("first run completes");
    assert!(!hit1, "first submission must be a miss");

    let (job2, body2, hit2) = client
        .run_to_completion(spec, None, Duration::from_secs(60))
        .expect("second run completes");
    assert!(hit2, "second submission must be served from cache");
    assert_eq!(job1, job2, "content-addressed id is stable");
    // Byte-identical: the rendered envelope bodies match exactly.
    assert_eq!(body1.to_pretty(), body2.to_pretty());
    assert_eq!(body1.to_compact(), body2.to_compact());
    // Spot-check it is a real Figure 9 body.
    assert_eq!(body1.get("width").and_then(Json::as_u64), Some(8));
    assert!(body1.get("harmonic-means").is_some());

    // The hit is visible in stats, as is the stall-cause breakdown of the
    // completed job.
    let stats = client.stats().expect("stats");
    let cache = stats.get("cache").expect("cache section");
    assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
    assert!(cache.get("hit-rate").and_then(Json::as_f64).unwrap() > 0.0);
    assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
    let completed = stats
        .get("completed")
        .and_then(Json::as_array)
        .expect("completed log");
    assert_eq!(completed.len(), 1, "one actual execution");
    let entry = &completed[0];
    assert_eq!(
        entry.get("experiment").and_then(Json::as_str),
        Some("figure9")
    );
    assert_eq!(entry.get("state").and_then(Json::as_str), Some("done"));
    let stall = entry.get("stall-causes").expect("per-job stall breakdown");
    assert!(
        stall.get("fetch-starved").and_then(Json::as_u64).is_some(),
        "stall causes carry the PR-1 taxonomy"
    );

    shut_down(&client, handle);
}

#[test]
fn queue_full_answers_retry_after() {
    // One worker, queue of one: a running job plus a queued job saturate
    // the server; the third distinct submission must get backpressure.
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_secs: 1,
        ..Default::default()
    });
    let running = client
        .submit(JobSpec::sleep(3_000), None)
        .expect("first submit");
    assert!(matches!(running, Response::Accepted { .. }));
    // Wait until the first job actually occupies the worker so the second
    // sits in the queue.
    wait_until(&client, |stats| {
        stats.get("workers-busy").and_then(Json::as_u64) == Some(1)
    });
    let queued = client
        .submit(JobSpec::sleep(3_001), None)
        .expect("second submit");
    assert!(matches!(
        queued,
        Response::Accepted {
            state: JobState::Queued,
            ..
        }
    ));

    let rejected = client
        .submit(JobSpec::sleep(3_002), None)
        .expect("third submit gets an answer, not a hang");
    match rejected {
        Response::RetryAfter { seconds } => assert!(seconds >= 1),
        other => panic!("expected retry-after, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs section");
    assert_eq!(jobs.get("rejected").and_then(Json::as_u64), Some(1));

    // Resubmitting an already-queued spec is deduplicated, not rejected.
    let deduped = client
        .submit(JobSpec::sleep(3_001), None)
        .expect("idempotent resubmit");
    assert!(matches!(
        deduped,
        Response::Accepted {
            state: JobState::Queued,
            ..
        }
    ));

    shut_down(&client, handle);
}

#[test]
fn backpressure_retry_succeeds_once_the_queue_drains() {
    // One worker, queue of one, short jobs: the saturated server answers
    // `retry-after`, and a bounded jittered retry lands the submission
    // once the running job completes.
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        retry_after_secs: 1,
        ..Default::default()
    });
    assert!(matches!(
        client.submit(JobSpec::sleep(700), None).expect("first"),
        Response::Accepted { .. }
    ));
    wait_until(&client, |stats| {
        stats.get("workers-busy").and_then(Json::as_u64) == Some(1)
    });
    assert!(matches!(
        client.submit(JobSpec::sleep(701), None).expect("second"),
        Response::Accepted {
            state: JobState::Queued,
            ..
        }
    ));

    // Zero retries: the policy degrades to plain submit and surfaces the
    // backpressure unchanged.
    assert!(matches!(
        client
            .submit_with_retry(JobSpec::sleep(702), None, RetryPolicy::none())
            .expect("answered"),
        Response::RetryAfter { .. }
    ));

    // With a retry budget the same spec gets in: each backoff sleeps
    // 500–1000 ms (cap 1 s), and the 700 ms head job frees the queue.
    let accepted = client
        .submit_with_retry(
            JobSpec::sleep(702),
            None,
            RetryPolicy {
                retries: 20,
                retry_after_cap: 1,
            },
        )
        .expect("retries get an answer");
    assert!(
        matches!(accepted, Response::Accepted { .. }),
        "expected acceptance after the queue drained, got {accepted:?}"
    );

    shut_down(&client, handle);
}

#[test]
fn deadline_expires_queued_and_cancels_running_jobs() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });

    // Occupy the single worker, with a deadline that will cancel it.
    let Response::Accepted {
        job: running_id, ..
    } = client
        .submit(JobSpec::sleep(60_000), Some(400))
        .expect("submit running job")
    else {
        panic!("expected accepted")
    };
    wait_until(&client, |stats| {
        stats.get("workers-busy").and_then(Json::as_u64) == Some(1)
    });

    // A queued job with a tiny deadline expires before any worker frees up.
    let Response::Accepted { job: queued_id, .. } = client
        .submit(JobSpec::sleep(1_000), Some(50))
        .expect("submit queued job")
    else {
        panic!("expected accepted")
    };
    let state = poll_until_terminal(&client, &queued_id, Duration::from_secs(10));
    assert_eq!(
        state,
        JobState::Expired,
        "queued job expired by its deadline"
    );

    // The running sleep job is cooperatively cancelled at its deadline —
    // long before its 60 s nominal duration.
    let state = poll_until_terminal(&client, &running_id, Duration::from_secs(10));
    assert_eq!(
        state,
        JobState::Expired,
        "running job cancelled at deadline"
    );
    // A cancelled (partial) body must not poison the cache.
    match client.fetch(&running_id) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("expired"), "{msg}"),
        other => panic!("cancelled job must have no cached result, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs");
    assert_eq!(jobs.get("expired").and_then(Json::as_u64), Some(2));

    shut_down(&client, handle);
}

#[test]
fn unsound_config_is_rejected_before_queueing() {
    // The §4.2 pathology: an RB-only register file with bypass level 3
    // removed leaves TC-needing operands with no conversion path. The
    // server must answer with a structured rejection at submit time — not
    // queue a job that can only fail later.
    let (client, handle) = start_server(ServeConfig::default());
    let spec = JobSpec::new(ExperimentKind::Figure9, Scale::Test)
        .with_bypass(redbin::sim::BypassLevels::without(&[3]))
        .with_rb_rf_only();
    let id = spec.job_id();

    match client.submit(spec, None).expect("submit gets an answer") {
        Response::Error { message } => {
            assert!(
                message.contains("unsound machine config"),
                "structured rejection names the cause: {message}"
            );
            assert!(message.contains("never obtainable"), "{message}");
        }
        other => panic!("expected a rejection envelope, got {other:?}"),
    }

    // Nothing was queued: the id is unknown, and the rejection is counted
    // separately from queue-full backpressure.
    match client.poll(&id) {
        Ok(Response::Error { message }) => assert!(message.contains("unknown job"), "{message}"),
        other => panic!("rejected job must not exist, got {other:?}"),
    }
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs section");
    assert_eq!(jobs.get("rejected-unsound").and_then(Json::as_u64), Some(1));
    assert_eq!(jobs.get("rejected").and_then(Json::as_u64), Some(0));
    assert_eq!(jobs.get("submitted").and_then(Json::as_u64), Some(0));

    // The same experiment without the pathological overrides is accepted.
    let ok = client
        .submit(JobSpec::new(ExperimentKind::Figure9, Scale::Test), None)
        .expect("sound submit");
    assert!(matches!(ok, Response::Accepted { .. }));

    shut_down(&client, handle);
}

#[test]
fn job_bodies_follow_their_overrides() {
    // A sound override must reach the simulation: the server checks and
    // caches a job as its `machine_configs()`, so the body must be the
    // driver run on exactly those machines, not the plain job's. Figure
    // 14's Ideal machines produce no redundant results, so `rb-rf-only`
    // cannot change that body and is left out.
    use redbin::experiments::{self, ExperimentConfig};
    use redbin::json;
    use redbin::sim::{BypassLevels, MachineConfig};
    use redbin::workload::Suite;
    use redbin_analyze::bypass::validate_job_configs;

    fn driver(kind: ExperimentKind, machines: &[MachineConfig], cfg: &ExperimentConfig) -> Json {
        match kind {
            ExperimentKind::Figure9 => {
                json::ipc_figure(&experiments::figure_ipc_on(machines, Suite::Spec2000, cfg))
            }
            ExperimentKind::Figure13 => json::figure13(&experiments::figure13_on(machines, cfg)),
            ExperimentKind::Figure14 => json::figure14(&experiments::figure14_on(machines, cfg)),
            ExperimentKind::Programs => json::programs(&experiments::programs_on(machines, cfg)),
            other => panic!("no driver for {other:?}"),
        }
    }
    let threads = ExperimentConfig::quick().threads;
    let cancelled = std::sync::atomic::AtomicBool::new(false);
    for kind in [
        ExperimentKind::Figure9,
        ExperimentKind::Figure13,
        ExperimentKind::Figure14,
        ExperimentKind::Programs,
    ] {
        let plain = JobSpec::new(kind, Scale::Test);
        let plain_body = plain.run(threads, &cancelled);
        let mut overridden = vec![plain.clone().with_bypass(BypassLevels::without(&[1]))];
        if kind != ExperimentKind::Figure14 {
            overridden.push(plain.clone().with_rb_rf_only());
        }
        for spec in overridden {
            let machines = spec.machine_configs();
            let label = spec.to_json().to_compact();
            assert!(validate_job_configs(&machines).is_ok(), "{label}: unsound");
            let body = spec.run(threads, &cancelled);
            assert!(body != plain_body, "{label}: body ignores the override");
            let expected = driver(kind, &machines, &spec.experiment_config(threads));
            assert!(
                body == expected,
                "{label}: body is not the driver on its machines"
            );
        }
    }
}

#[test]
fn unsafe_custom_program_is_rejected_before_queueing() {
    // A custom program whose store provably lands outside every declared
    // region must be rejected at submit time with a structured error —
    // driven through the real `redbin-submit` binary, per the PR
    // acceptance criteria.
    let (client, handle) = start_server(ServeConfig::default());
    let dir = std::env::temp_dir().join(format!("redbin-custom-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let submit = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_redbin-submit"))
            .args(["--server", client.addr()])
            .args(args)
            .output()
            .expect("run redbin-submit")
    };

    let bad_path = dir.join("oob.s");
    std::fs::write(
        &bad_path,
        "        .reg r1, 0x2000
                 stq r2, 0(r1)          ; outside the declared region
                 halt
                 .bss
                 .org 0x1000
                 .space 8
",
    )
    .expect("write bad program");
    let out = submit(&["custom", bad_path.to_str().expect("utf-8 path")]);
    assert!(!out.status.success(), "unsafe submission must fail");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("rejected unsafe program"), "{stderr}");
    assert!(stderr.contains("memory VIOLATED"), "{stderr}");

    // The rejection happened before queueing and is counted on its own
    // counter, not as backpressure or a submission.
    let stats = client.stats().expect("stats");
    let jobs = stats.get("jobs").expect("jobs section");
    assert_eq!(
        jobs.get("rejected-unsafe-program").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(jobs.get("submitted").and_then(Json::as_u64), Some(0));
    assert!(client
        .metrics()
        .expect("metrics")
        .contains("jobs-rejected-unsafe-program 1"));

    // A provably safe program sails through the same gate and runs on all
    // four 8-wide machines.
    let good_path = dir.join("ok.s");
    std::fs::write(
        &good_path,
        "        .reg r1, 5
         top:    subq r1, #1, r1
                 bgt r1, top
                 halt
",
    )
    .expect("write good program");
    let good = good_path.to_str().expect("utf-8 path");
    let out = submit(&["custom", good]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(out.status.success(), "safe submission runs: {stdout}");
    assert!(stdout.contains("\"models\""), "{stdout}");
    assert!(stdout.contains("\"Ideal\""), "{stdout}");

    // The machine flags reach a Custom job: a bypass override names other
    // machines, so the job gets an id of its own.
    let job_id = |flags: &[&str]| {
        let out = submit(&[&["custom", good, "--no-wait"], flags].concat());
        let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
        assert!(out.status.success(), "accepted: {stdout}");
        stdout
            .split_whitespace()
            .next()
            .expect("job id")
            .to_string()
    };
    assert_ne!(
        job_id(&[]),
        job_id(&["--bypass", "No-1"]),
        "--bypass must reach the Custom job"
    );

    std::fs::remove_dir_all(&dir).ok();
    shut_down(&client, handle);
}

#[test]
fn metrics_round_trip_carries_job_histograms() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });

    // Before any job: the dump renders, histograms exist and are empty.
    let text = client.metrics().expect("metrics");
    assert!(text.contains("# TYPE job-queue-ms histogram"), "{text}");
    assert!(text.contains("job-service-ms-count 0"), "{text}");
    assert!(text.contains("# TYPE uptime-seconds gauge"), "{text}");

    // Run one job; its queue wait and service time must land in the
    // histograms and the counters must reflect the completion.
    client
        .run_to_completion(JobSpec::sleep(30), None, Duration::from_secs(60))
        .expect("sleep job completes");
    let text = client.metrics().expect("metrics after job");
    assert!(text.contains("job-queue-ms-count 1"), "{text}");
    assert!(text.contains("job-service-ms-count 1"), "{text}");
    assert!(text.contains("jobs-submitted 1"), "{text}");
    assert!(text.contains("jobs-completed 1"), "{text}");

    // The same dump round-trips through the redbin-submit CLI.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_redbin-submit"))
        .args(["--server", client.addr(), "metrics"])
        .output()
        .expect("run redbin-submit");
    assert!(out.status.success(), "redbin-submit metrics failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 dump");
    assert!(stdout.contains("job-service-ms-count 1"), "{stdout}");
    assert!(stdout.contains("# TYPE jobs-completed counter"), "{stdout}");

    shut_down(&client, handle);
}

#[test]
fn shutdown_drains_in_flight_jobs() {
    let (client, handle) = start_server(ServeConfig {
        workers: 2,
        ..Default::default()
    });
    // One running (per worker) + stack one more in the queue.
    for ms in [300, 301, 302] {
        let r = client.submit(JobSpec::sleep(ms), None).expect("submit");
        assert!(matches!(r, Response::Accepted { .. }));
    }
    let draining = client.shutdown().expect("shutdown");
    assert!(draining >= 1, "jobs were still in flight: {draining}");
    // run() only returns once every accepted job drained.
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn protocol_errors_are_answered_not_dropped() {
    let (client, handle) = start_server(ServeConfig::default());
    // An unknown job id is a server-side error envelope.
    match client.poll("ffffffffffffffff") {
        Ok(Response::Error { message }) => assert!(message.contains("unknown job")),
        other => panic!("expected error envelope, got {other:?}"),
    }
    // Malformed / version-mismatched lines come back as error envelopes too.
    let raw = raw_exchange(client.addr(), "{\"v\":1,\"type\":\"nope\"}\n");
    let resp = Response::from_line(&raw).expect("decodable error envelope");
    assert!(matches!(resp, Response::Error { .. }));
    let raw = raw_exchange(client.addr(), "not json at all\n");
    let resp = Response::from_line(&raw).expect("decodable error envelope");
    assert!(matches!(resp, Response::Error { .. }));
    shut_down(&client, handle);
}

#[test]
fn external_shutdown_flag_drains_like_sigterm() {
    // The binary's SIGTERM handler just sets Server::shutdown_flag; drive
    // that path directly.
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    let client = Client::new(addr);
    let r = client.submit(JobSpec::sleep(200), None).expect("submit");
    assert!(matches!(r, Response::Accepted { .. }));
    flag.store(true, std::sync::atomic::Ordering::Relaxed);
    handle.join().expect("server thread").expect("clean exit");
}

#[test]
fn idle_server_drains_once_the_shutdown_flag_is_set() {
    // No traffic at all: the accept loop is blocked in `accept`, and only
    // the server's own wake-up connection can release it.
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    // One answered request: the accept loop is running and back in accept.
    Client::new(addr).stats().expect("stats");
    flag.store(true, std::sync::atomic::Ordering::Relaxed);
    join_within(handle, Duration::from_secs(2)).expect("clean exit");
}

#[test]
fn drain_closes_idle_connections() {
    let cfg = ServeConfig::default();
    // More idle connections than handlers, so some wait in the hand-off
    // queue: neither those nor the ones a handler reads may hold the
    // drain for their read deadline.
    let idle_count = cfg.handlers() + 3;
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let flag = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    let idle: Vec<TcpStream> = (0..idle_count)
        .map(|_| TcpStream::connect(&addr).expect("connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(100));
    flag.store(true, std::sync::atomic::Ordering::Relaxed);
    join_within(handle, Duration::from_secs(1)).expect("clean exit");
    drop(idle);
}

#[test]
fn more_waiting_clients_than_handlers_all_complete() {
    let cfg = ServeConfig {
        workers: 1,
        ..Default::default()
    };
    // Every caller holds a poll while one worker runs the jobs in turn:
    // more waiting callers than handler threads and hand-off slots.
    let callers = cfg.handlers() + HANDOFF_QUEUE + 4;
    let (client, handle) = start_server(cfg);
    std::thread::scope(|scope| {
        let runs: Vec<_> = (0..callers as u64)
            .map(|i| {
                let client = client.clone();
                scope.spawn(move || {
                    client.run_to_completion(JobSpec::sleep(40 + i), None, Duration::from_secs(60))
                })
            })
            .collect();
        for run in runs {
            let (_, body, _) = run.join().expect("caller thread").expect("job completes");
            assert!(body.get("slept-ms").is_some(), "{}", body.to_compact());
        }
    });
    let stats = client.stats().expect("stats");
    let completed = stats
        .get("jobs")
        .and_then(|j| j.get("completed"))
        .and_then(Json::as_u64);
    assert_eq!(completed, Some(callers as u64));
    shut_down(&client, handle);
}

#[test]
fn waiting_poll_answers_when_the_job_ends() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    let t0 = Clock::now();
    let Response::Accepted { job, .. } = client.submit(JobSpec::sleep(200), None).expect("submit")
    else {
        panic!("expected accepted")
    };
    let reply = client
        .poll_wait(&job, Duration::from_millis(MAX_POLL_WAIT_MS))
        .expect("poll");
    let elapsed = t0.elapsed();
    assert!(
        matches!(
            reply,
            Response::Status {
                state: JobState::Done,
                ..
            }
        ),
        "{reply:?}"
    );
    // Answered when the 200 ms job ended, not when the 2 s wait ran out.
    assert!(elapsed >= Duration::from_millis(200), "{elapsed:?}");
    assert!(elapsed < Duration::from_millis(1_200), "{elapsed:?}");
    shut_down(&client, handle);
}

#[test]
fn waiting_poll_shorter_than_the_job_answers_running() {
    let (client, handle) = start_server(ServeConfig {
        workers: 1,
        ..Default::default()
    });
    // A long sleep job that its 600 ms deadline cancels.
    let Response::Accepted { job: running, .. } = client
        .submit(JobSpec::sleep(60_000), Some(600))
        .expect("submit running job")
    else {
        panic!("expected accepted")
    };
    wait_until(&client, |stats| {
        stats.get("workers-busy").and_then(Json::as_u64) == Some(1)
    });
    let t0 = Clock::now();
    let reply = client
        .poll_wait(&running, Duration::from_millis(100))
        .expect("poll");
    assert!(
        matches!(
            reply,
            Response::Status {
                state: JobState::Running,
                ..
            }
        ),
        "{reply:?}"
    );
    assert!(
        t0.elapsed() >= Duration::from_millis(100),
        "the poll was held"
    );

    // A queued job that the reaper expires wakes its waiting poll too.
    let Response::Accepted { job: queued, .. } = client
        .submit(JobSpec::sleep(1_000), Some(100))
        .expect("submit queued job")
    else {
        panic!("expected accepted")
    };
    let t0 = Clock::now();
    let reply = client
        .poll_wait(&queued, Duration::from_millis(MAX_POLL_WAIT_MS))
        .expect("poll");
    assert!(
        matches!(
            reply,
            Response::Status {
                state: JobState::Expired,
                ..
            }
        ),
        "{reply:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(1_200),
        "{:?}",
        t0.elapsed()
    );

    // The cancelled running job wakes its waiting poll as it ends.
    let reply = client
        .poll_wait(&running, Duration::from_millis(MAX_POLL_WAIT_MS))
        .expect("poll");
    assert!(
        matches!(
            reply,
            Response::Status {
                state: JobState::Expired,
                ..
            }
        ),
        "{reply:?}"
    );
    shut_down(&client, handle);
}

#[test]
fn connection_flood_gets_busy_and_the_server_recovers() {
    let cfg = ServeConfig {
        workers: 1,
        ..Default::default()
    };
    let slots = cfg.handlers() + HANDOFF_QUEUE;
    let (client, handle) = start_server(cfg);
    // Idle connections: until its read deadline passes, each pins a
    // handler or a hand-off slot, so at least `extra` of them are answered
    // busy at once. Which ones depends on how fast the handlers take
    // connections off the queue, so every connection is watched.
    let extra = 4;
    let flood: Vec<TcpStream> = (0..slots + extra)
        .map(|_| {
            let stream = TcpStream::connect(client.addr()).expect("connect");
            stream.set_nonblocking(true).expect("nonblocking");
            stream
        })
        .collect();
    let mut replies = vec![Vec::new(); flood.len()];
    let mut busy = 0;
    // Inside the read deadline, so no slot frees up meanwhile.
    let deadline = redbin::telemetry::Deadline::after(READ_DEADLINE - Duration::from_secs(1));
    while busy < extra {
        assert!(!deadline.expired(), "only {busy} connections answered busy");
        for (mut stream, reply) in flood.iter().zip(&mut replies) {
            if reply.ends_with(b"\n") {
                continue;
            }
            let mut chunk = [0u8; 256];
            match stream.read(&mut chunk) {
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("read: {e}"),
            }
            if reply.ends_with(b"\n") {
                let line = String::from_utf8(reply.clone()).expect("utf-8");
                match Response::from_line(&line).expect("an envelope") {
                    Response::Error { message } => {
                        assert!(message.contains("server busy"), "{message}")
                    }
                    other => panic!("expected a busy error, got {other:?}"),
                }
                busy += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // A client request meanwhile waits in the hand-off queue or is refused
    // busy and retried, depending on how many slots the flood took; either
    // way it is answered once closing the flood frees the pool.
    let started = std::sync::Arc::new(std::sync::Barrier::new(2));
    let stats = std::thread::spawn({
        let client = client.clone();
        let started = std::sync::Arc::clone(&started);
        move || {
            started.wait();
            let t0 = Clock::now();
            client.stats().map(|_| t0.elapsed())
        }
    });
    started.wait();
    std::thread::sleep(Duration::from_millis(300));
    drop(flood);
    let waited = stats
        .join()
        .expect("stats thread")
        .expect("busy is retried");
    assert!(
        waited >= Duration::from_millis(250),
        "answered during the flood after {waited:?}"
    );
    shut_down(&client, handle);
}

#[test]
fn client_resends_a_request_refused_busy() {
    // Three busy refusals, then a real answer, then an error that is not
    // busy and must come back as it is.
    let busy = Response::Error {
        message: format!("{BUSY}: scripted"),
    };
    let (client, script) = scripted_server(vec![
        busy.clone(),
        busy.clone(),
        busy,
        Response::Stats {
            body: Json::object(),
        },
        Response::Error {
            message: "unknown job `x`".into(),
        },
    ]);
    client.stats().expect("answered after three busy refusals");
    match client.poll("x") {
        Ok(Response::Error { message }) => assert!(message.contains("unknown job"), "{message}"),
        other => panic!("expected the error unchanged, got {other:?}"),
    }
    let requests = script.join().expect("script");
    assert!(
        requests[..4]
            .iter()
            .all(|(r, _)| r.contains(r#""type":"stats""#)),
        "{requests:?}"
    );
    assert!(requests[4].0.contains(r#""type":"poll""#));
}

#[test]
fn run_to_completion_waits_the_interval_after_an_early_answer() {
    // A server that answers a waiting poll at once without the job having
    // ended (as one past its held-poll cap does) must not be re-polled in
    // a tight loop.
    let job = "0123456789abcdef".to_string();
    let status = |state| Response::Status {
        job: job.clone(),
        state,
        error: None,
    };
    let (client, script) = scripted_server(vec![
        Response::Accepted {
            job: job.clone(),
            cache_hit: false,
            state: JobState::Queued,
        },
        status(JobState::Running),
        status(JobState::Done),
        Response::Result {
            job: job.clone(),
            body: Json::object(),
        },
    ]);
    client
        .run_to_completion(JobSpec::sleep(1), None, Duration::from_secs(30))
        .expect("completes");
    let requests = script.join().expect("script");
    assert!(requests[1].0.contains(r#""wait-ms""#), "{requests:?}");
    let gap = requests[2].1 - requests[1].1;
    assert!(gap >= client.poll_interval, "re-polled after {gap:?}");
}

#[test]
fn oversized_request_line_gets_an_error() {
    let (client, handle) = start_server(ServeConfig::default());
    // One byte over the cap is refused before it is parsed…
    let reply = raw_exchange(
        client.addr(),
        &format!("{}\n", "x".repeat(MAX_REQUEST_BYTES + 1)),
    );
    match Response::from_line(&reply).expect("an envelope") {
        Response::Error { message } => assert!(message.contains("request too large"), "{message}"),
        other => panic!("expected a too-large error, got {other:?}"),
    }
    // …while a line at the cap is read whole and fails only as JSON.
    let reply = raw_exchange(
        client.addr(),
        &format!("{}\n", "x".repeat(MAX_REQUEST_BYTES)),
    );
    match Response::from_line(&reply).expect("an envelope") {
        Response::Error { message } => assert!(message.contains("json parse error"), "{message}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    client.stats().expect("still serving");
    shut_down(&client, handle);
}

// ---- helpers ---------------------------------------------------------------

/// A listener that answers one connection per scripted response, in
/// order; the thread returns each request line with the time it arrived,
/// measured from the script's start.
fn scripted_server(
    answers: Vec<Response>,
) -> (Client, std::thread::JoinHandle<Vec<(String, Duration)>>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let client = Client::new(listener.local_addr().expect("addr").to_string());
    let script = std::thread::spawn(move || {
        let start = Clock::now();
        answers
            .into_iter()
            .map(|answer| {
                let (mut stream, _) = listener.accept().expect("accept");
                let arrived = start.elapsed();
                let mut line = String::new();
                BufReader::new(&stream)
                    .read_line(&mut line)
                    .expect("request");
                writeln!(stream, "{}", answer.to_line()).expect("answer");
                (line, arrived)
            })
            .collect()
    });
    (client, script)
}

/// Joins the server thread, failing the test instead of hanging it if the
/// server does not exit within `limit`.
fn join_within(
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    limit: Duration,
) -> std::io::Result<()> {
    let deadline = redbin::telemetry::Deadline::after(limit);
    while !handle.is_finished() {
        assert!(!deadline.expired(), "server did not exit within {limit:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("server thread")
}

/// Polls `stats` until `pred` holds (10 s cap — generous for CI).
fn wait_until(client: &Client, pred: impl Fn(&Json) -> bool) {
    let deadline = redbin::telemetry::Deadline::after(Duration::from_secs(10));
    loop {
        let stats = client.stats().expect("stats");
        if pred(&stats) {
            return;
        }
        assert!(
            !deadline.expired(),
            "condition not reached; last stats: {}",
            stats.to_pretty()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn poll_until_terminal(client: &Client, job: &str, timeout: Duration) -> JobState {
    let deadline = redbin::telemetry::Deadline::after(timeout);
    loop {
        match client.poll(job).expect("poll") {
            Response::Status { state, .. } if state.is_terminal() => return state,
            Response::Status { .. } => {}
            other => panic!("unexpected poll reply {other:?}"),
        }
        assert!(!deadline.expired(), "job {job} never terminal");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends raw bytes and returns the first response line — for testing the
/// server's handling of requests the typed client cannot produce.
fn raw_exchange(addr: &str, payload: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(payload.as_bytes()).expect("write");
    stream.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read");
    line
}
