//! `redbin-submit` — CLI client for `redbin-served`.
//!
//! ```text
//! redbin-submit --server HOST:PORT submit EXPERIMENT [--scale S] [--datapath D]
//!               [--bypass LEVELS] [--rb-rf-only]
//!               [--deadline-ms N] [--no-wait] [--json PATH]
//! redbin-submit --server HOST:PORT custom FILE.s [--scale S] [--datapath D]
//!               [--bypass LEVELS] [--rb-rf-only]
//!               [--deadline-ms N] [--no-wait] [--json PATH]
//! redbin-submit --server HOST:PORT sleep MILLIS [--deadline-ms N] [--no-wait]
//! redbin-submit --server HOST:PORT poll JOB
//! redbin-submit --server HOST:PORT fetch JOB [--json PATH]
//! redbin-submit --server HOST:PORT batch MANIFEST.json [--json PATH]
//! redbin-submit --server HOST:PORT stats
//! redbin-submit --server HOST:PORT metrics
//! redbin-submit --server HOST:PORT shutdown
//! ```
//!
//! `submit`/`custom`/`sleep` wait for completion and print the result
//! body by default; `--no-wait` prints the accepted job id instead.
//! `custom` submits the given assembly file, with the same machine flags as
//! `submit`; the server runs the `redbin-analyze` program verifier before
//! queueing and rejects anything it cannot prove memory-safe and
//! terminating. A batch
//! manifest is `{"jobs":[{"experiment":"figure9","scale":"test"},…]}`;
//! results are collected into one document keyed by job id.
//!
//! On `retry-after` backpressure a submission retries up to `--retries N`
//! times (default 0: fail immediately), sleeping a jittered backoff
//! derived from the server's suggestion clamped to `--retry-after-cap`
//! seconds (default 30).

use std::process::ExitCode;
use std::time::Duration;

use redbin::json::{self, Json};
use redbin::wire::{ExperimentKind, JobSpec, Response};
use redbin_serve::{Client, RetryPolicy};

fn usage() -> ! {
    eprintln!(
        "usage: redbin-submit --server HOST:PORT \
         (submit EXPERIMENT [--scale test|small|full] [--datapath fast|faithful] \
         [--bypass Full|No-1|No-2|No-3|No-1,2|No-2,3] [--rb-rf-only] \
         [--deadline-ms N] [--no-wait] [--json PATH] \
         [--retries N] [--retry-after-cap SECONDS] \
         | custom FILE.s [--scale test|small|full] [--datapath fast|faithful] \
         [--bypass Full|No-1|No-2|No-3|No-1,2|No-2,3] [--rb-rf-only] \
         [--deadline-ms N] [--no-wait] [--json PATH] \
         | sleep MILLIS [--deadline-ms N] [--no-wait] \
         | poll JOB | fetch JOB [--json PATH] \
         | batch MANIFEST [--json PATH] | stats | metrics | shutdown)"
    );
    std::process::exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("redbin-submit: {msg}");
    std::process::exit(1)
}

struct Opts {
    scale: Option<String>,
    datapath: Option<String>,
    bypass: Option<String>,
    rb_rf_only: bool,
    deadline_ms: Option<u64>,
    no_wait: bool,
    json: Option<std::path::PathBuf>,
    retry: RetryPolicy,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: None,
            datapath: None,
            bypass: None,
            rb_rf_only: false,
            deadline_ms: None,
            no_wait: false,
            json: None,
            retry: RetryPolicy {
                retries: 0,
                retry_after_cap: 30,
            },
        }
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--scale" => o.scale = Some(next("--scale")),
            "--datapath" => o.datapath = Some(next("--datapath")),
            "--bypass" => o.bypass = Some(next("--bypass")),
            "--rb-rf-only" => o.rb_rf_only = true,
            "--deadline-ms" => {
                o.deadline_ms = Some(
                    next("--deadline-ms")
                        .parse()
                        .unwrap_or_else(|_| fail("--deadline-ms needs an integer")),
                )
            }
            "--no-wait" => o.no_wait = true,
            "--json" => o.json = Some(next("--json").into()),
            "--retries" => {
                o.retry.retries = next("--retries")
                    .parse()
                    .unwrap_or_else(|_| fail("--retries needs an integer"))
            }
            "--retry-after-cap" => {
                o.retry.retry_after_cap = next("--retry-after-cap")
                    .parse()
                    .unwrap_or_else(|_| fail("--retry-after-cap needs an integer (seconds)"));
                if o.retry.retry_after_cap == 0 {
                    fail("--retry-after-cap must be at least 1 second");
                }
            }
            other => fail(format!("unknown flag `{other}`")),
        }
    }
    o
}

/// The job spec of `experiment` with the machine flags of `opts`; a
/// `custom` job also carries its assembly `source`.
fn spec_from(experiment: &str, source: Option<String>, opts: &Opts) -> JobSpec {
    let mut spec_json = Json::object();
    spec_json.set("experiment", Json::Str(experiment.to_string()));
    spec_json.set(
        "scale",
        Json::Str(opts.scale.clone().unwrap_or_else(|| "test".into())),
    );
    if let Some(source) = source {
        spec_json.set("source", Json::Str(source));
    }
    if let Some(d) = &opts.datapath {
        spec_json.set("datapath", Json::Str(d.clone()));
    }
    if let Some(b) = &opts.bypass {
        spec_json.set("bypass", Json::Str(b.clone()));
    }
    if opts.rb_rf_only {
        spec_json.set("rb-rf-only", Json::Bool(true));
    }
    JobSpec::from_json(&spec_json).unwrap_or_else(|e| fail(e))
}

fn emit(doc: &Json, path: Option<&std::path::Path>) {
    match path {
        Some(p) => {
            json::write_file(p, doc)
                .unwrap_or_else(|e| fail(format!("writing {}: {e}", p.display())));
            eprintln!("json: wrote {}", p.display());
        }
        None => print!("{}", doc.to_pretty()),
    }
}

fn submit_and_report(client: &Client, spec: JobSpec, opts: &Opts) -> ExitCode {
    if opts.no_wait {
        match client.submit_with_retry(spec, opts.deadline_ms, opts.retry) {
            Ok(Response::Accepted {
                job,
                cache_hit,
                state,
            }) => {
                println!(
                    "{job} {} (cache {})",
                    state.name(),
                    if cache_hit { "hit" } else { "miss" }
                );
                ExitCode::SUCCESS
            }
            Ok(Response::RetryAfter { seconds }) => {
                eprintln!(
                    "queue full after {} attempt(s); retry after {seconds}s",
                    opts.retry.retries + 1
                );
                ExitCode::FAILURE
            }
            Ok(other) => fail(format!("unexpected reply {other:?}")),
            Err(e) => fail(e),
        }
    } else {
        match client.run_to_completion(spec, opts.deadline_ms, Duration::from_secs(3600)) {
            Ok((job, body, cache_hit)) => {
                eprintln!(
                    "job {job} done (cache {})",
                    if cache_hit { "hit" } else { "miss" }
                );
                emit(&body, opts.json.as_deref());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        }
    }
}

fn run_batch(client: &Client, manifest_path: &str, opts: &Opts) -> ExitCode {
    let text = std::fs::read_to_string(manifest_path)
        .unwrap_or_else(|e| fail(format!("reading {manifest_path}: {e}")));
    let manifest = json::parse(&text).unwrap_or_else(|e| fail(format!("{manifest_path}: {e}")));
    let jobs = manifest
        .get("jobs")
        .and_then(Json::as_array)
        .unwrap_or_else(|| {
            fail(format!(
                "{manifest_path}: expected an object with a `jobs` array"
            ))
        });
    let specs: Vec<JobSpec> = jobs
        .iter()
        .map(|j| JobSpec::from_json(j).unwrap_or_else(|e| fail(format!("{manifest_path}: {e}"))))
        .collect();
    let mut out = Json::object();
    let mut results = Json::object();
    let mut hits = 0u64;
    for spec in specs {
        let (job, body, cache_hit) = client
            .run_to_completion(spec.clone(), opts.deadline_ms, Duration::from_secs(3600))
            .unwrap_or_else(|e| fail(e));
        eprintln!(
            "{}: job {job} done (cache {})",
            spec.kind.name(),
            if cache_hit { "hit" } else { "miss" }
        );
        hits += u64::from(cache_hit);
        let mut entry = Json::object();
        entry.set("experiment", Json::Str(spec.kind.name().to_string()));
        entry.set("cache-hit", Json::Bool(cache_hit));
        entry.set("result", body);
        results.set(&job, entry);
    }
    out.set("cache-hits", Json::UInt(hits));
    out.set("results", results);
    emit(&out, opts.json.as_deref());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut server = None;
    let mut rest = Vec::new();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        if a == "--server" {
            server = it.next();
        } else if let Some(v) = a.strip_prefix("--server=") {
            server = Some(v.to_string());
        } else {
            rest.push(a);
        }
    }
    let server =
        server.unwrap_or_else(|| std::env::var("REDBIN_SERVER").unwrap_or_else(|_| usage()));
    let client = Client::new(server);
    let Some(command) = rest.first().cloned() else {
        usage()
    };

    match command.as_str() {
        "submit" => {
            let Some(experiment) = rest.get(1) else {
                usage()
            };
            if ExperimentKind::from_name(experiment).is_err() {
                fail(format!(
                    "unknown experiment `{experiment}`; try one of {}",
                    ExperimentKind::all()
                        .iter()
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join("|")
                ));
            }
            let opts = parse_opts(&rest[2..]);
            submit_and_report(&client, spec_from(experiment, None, &opts), &opts)
        }
        "custom" => {
            let Some(path) = rest.get(1) else { usage() };
            let source =
                std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
            let opts = parse_opts(&rest[2..]);
            submit_and_report(&client, spec_from("custom", Some(source), &opts), &opts)
        }
        "sleep" => {
            let millis: u64 = rest
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| fail("sleep needs MILLIS"));
            let opts = parse_opts(&rest[2..]);
            submit_and_report(&client, JobSpec::sleep(millis), &opts)
        }
        "poll" => {
            let Some(job) = rest.get(1) else { usage() };
            match client.poll(job) {
                Ok(Response::Status { state, error, .. }) => {
                    match error {
                        Some(e) => println!("{} ({e})", state.name()),
                        None => println!("{}", state.name()),
                    }
                    ExitCode::SUCCESS
                }
                Ok(Response::Error { message }) => fail(message),
                Ok(other) => fail(format!("unexpected reply {other:?}")),
                Err(e) => fail(e),
            }
        }
        "fetch" => {
            let Some(job) = rest.get(1) else { usage() };
            let opts = parse_opts(&rest[2..]);
            match client.fetch(job) {
                Ok(body) => {
                    emit(&body, opts.json.as_deref());
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        "batch" => {
            let Some(manifest) = rest.get(1) else { usage() };
            let opts = parse_opts(&rest[2..]);
            run_batch(&client, manifest, &opts)
        }
        "stats" => match client.stats() {
            Ok(body) => {
                print!("{}", body.to_pretty());
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "metrics" => match client.metrics() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        "shutdown" => match client.shutdown() {
            Ok(draining) => {
                println!("server draining {draining} job(s)");
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        _ => usage(),
    }
}
