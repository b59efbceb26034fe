//! `redbin-explore` — design-space exploration over the reproduction's
//! machine configurations.
//!
//! ```text
//! redbin-explore [--grid default|small] [--spec FILE.json]
//!                [--widths 4,8] [--models baseline,rb-limited,rb-full,ideal]
//!                [--bypass Full|No-1|...] [--steering round-robin,dependence-aware]
//!                [--rb-rf-only false,true] [--delay unit,fanout-0.2]
//!                [--suite quick|spec95|spec2000|all] [--scale test|small|full]
//!                [--server HOST:PORT] [--threads N] [--reference]
//!                [--json PATH] [--metrics]
//! ```
//!
//! The grid is the cross product of the axis flags (each a comma list),
//! seeded from `--grid` and/or `--spec` and then overridden per axis.
//! Without `--server` the surviving points simulate in-process; with it
//! they are submitted to a running `redbin-served`, where re-runs of an
//! overlapping grid hit the result cache. The report (pruning summary +
//! Pareto frontier table) goes to stdout; `--json` writes the full
//! machine-readable document.

// As in the library: a bad point or flag is reported, never a panic.
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

use std::process::ExitCode;

use redbin::json::{self, Json};
use redbin_explore::backend::Backend;
use redbin_explore::grid::GridSpec;
use redbin_explore::{explore, report};

fn usage() -> ! {
    eprintln!(
        "usage: redbin-explore [--grid default|small] [--spec FILE.json] \
         [--widths LIST] [--models LIST] [--bypass LIST] [--steering LIST] \
         [--rb-rf-only LIST] [--delay LIST] [--suite NAME] [--scale NAME] \
         [--server HOST:PORT] [--threads N] [--reference] [--json PATH] [--metrics]"
    );
    std::process::exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("redbin-explore: {msg}");
    std::process::exit(1)
}

#[derive(Default)]
struct Opts {
    grid: Option<String>,
    spec: Option<String>,
    widths: Option<String>,
    models: Option<String>,
    bypass: Option<String>,
    steering: Option<String>,
    rb_rf_only: Option<String>,
    delay: Option<String>,
    suite: Option<String>,
    scale: Option<String>,
    server: Option<String>,
    threads: usize,
    reference: bool,
    json: Option<std::path::PathBuf>,
    metrics: bool,
}

fn parse_args(argv: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--grid" => o.grid = Some(next("--grid")),
            "--spec" => o.spec = Some(next("--spec")),
            "--widths" => o.widths = Some(next("--widths")),
            "--models" => o.models = Some(next("--models")),
            "--bypass" => o.bypass = Some(next("--bypass")),
            "--steering" => o.steering = Some(next("--steering")),
            "--rb-rf-only" => o.rb_rf_only = Some(next("--rb-rf-only")),
            "--delay" => o.delay = Some(next("--delay")),
            "--suite" => o.suite = Some(next("--suite")),
            "--scale" => o.scale = Some(next("--scale")),
            "--server" => o.server = Some(next("--server")),
            "--threads" => {
                o.threads = next("--threads")
                    .parse()
                    .unwrap_or_else(|_| fail("--threads needs an integer"))
            }
            "--reference" => o.reference = true,
            "--json" => o.json = Some(next("--json").into()),
            "--metrics" => o.metrics = true,
            "--help" | "-h" => usage(),
            other => fail(format!("unknown flag `{other}`")),
        }
    }
    o
}

/// Builds the grid: `--grid`/`--spec` pick a base, each axis flag then
/// overrides one axis. Overrides are expressed through the same strict
/// JSON decoder as `--spec` files, so every value is validated once, in
/// one place.
fn build_grid(o: &Opts) -> GridSpec {
    let base = match o.grid.as_deref() {
        None | Some("default") => GridSpec::default(),
        Some("small") => GridSpec::golden_small(),
        Some(other) => fail(format!("unknown grid `{other}` (expected default|small)")),
    };
    let mut doc = match &o.spec {
        Some(path) => {
            if o.grid.is_some() {
                fail("--grid and --spec are mutually exclusive");
            }
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("reading {path}: {e}")));
            json::parse(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")))
        }
        None => base.to_json(),
    };
    let list = |raw: &str, f: &dyn Fn(&str) -> Json| -> Json {
        Json::Arr(raw.split(',').map(|s| f(s.trim())).collect())
    };
    if let Some(ws) = &o.widths {
        doc.set(
            "widths",
            list(ws, &|s| {
                Json::UInt(
                    s.parse()
                        .unwrap_or_else(|_| fail(format!("bad width `{s}`"))),
                )
            }),
        );
    }
    let str_axis = [
        ("models", &o.models),
        ("bypass", &o.bypass),
        ("steering", &o.steering),
        ("delay-models", &o.delay),
    ];
    for (key, value) in str_axis {
        if let Some(raw) = value {
            doc.set(key, list(raw, &|s| Json::Str(s.to_string())));
        }
    }
    if let Some(raw) = &o.rb_rf_only {
        doc.set(
            "rb-rf-only",
            list(raw, &|s| match s {
                "true" => Json::Bool(true),
                "false" => Json::Bool(false),
                other => fail(format!("bad --rb-rf-only value `{other}`")),
            }),
        );
    }
    if let Some(s) = &o.suite {
        doc.set("suite", Json::Str(s.clone()));
    }
    if let Some(s) = &o.scale {
        doc.set("scale", Json::Str(s.clone()));
    }
    GridSpec::from_json(&doc).unwrap_or_else(|e| fail(e))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&argv);
    let grid = build_grid(&opts);
    let backend = match &opts.server {
        Some(addr) => {
            if opts.reference {
                fail("--reference only applies to the local backend");
            }
            Backend::Server { addr: addr.clone() }
        }
        None => Backend::Local {
            threads: opts.threads,
            reference: opts.reference,
        },
    };
    eprintln!(
        "exploring {} points ({})",
        grid.size(),
        match &backend {
            Backend::Local { .. } => "local pool".to_string(),
            Backend::Server { addr } => format!("server {addr}"),
        }
    );
    let outcome = explore(&grid, &backend).unwrap_or_else(|e| fail(e));
    print!("{}", report::render_text(&outcome));
    if opts.metrics {
        eprint!("{}", outcome.metrics.render_text());
    }
    if let Some(path) = &opts.json {
        let doc = report::to_json(&outcome);
        json::write_file(path, &doc)
            .unwrap_or_else(|e| fail(format!("writing {}: {e}", path.display())));
        eprintln!("json: wrote {}", path.display());
    }
    ExitCode::SUCCESS
}
