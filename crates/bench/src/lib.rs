//! Shared plumbing for `redbin-repro` and `workload-profile`.
//!
//! Both binaries accept the same flags, parsed strictly — an unknown flag
//! or a bad value exits non-zero instead of being silently ignored:
//!
//! * `--scale test|small|full` (or `REDBIN_SCALE`) — workload size;
//! * `--json PATH` — write the machine-readable result document;
//! * `--server HOST:PORT` (or `REDBIN_SERVER`) — client mode: `redbin-repro
//!   all` submits its experiments to a running `redbin-served` instead of
//!   simulating locally;
//! * `--profile PATH` — `redbin-repro all` only: also write the throughput
//!   profile (wall-clock, sims/sec, instrs/sec per figure) to `PATH`. The
//!   path is required, so no run can overwrite the committed `BENCH_6.json`
//!   baseline by accident;
//! * `--seeds N` / `--start-seed S` — `redbin-repro fuzz` only: run the
//!   torture seeds `S..S+N` through the differential oracle (`redbin-analyze
//!   programs --torture-seeds N --start-seed S` runs the same seeds
//!   through the static safety verifier).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use redbin::cli::parse_u64;
use redbin::prelude::*;
use redbin::telemetry::{Clock, MetricsRegistry};

pub mod repro;

/// The flags shared by the bench binaries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchArgs {
    /// Workload scale (`None` = the paper's `full`).
    pub scale: Option<Scale>,
    /// Where to write the JSON result, if requested.
    pub json: Option<std::path::PathBuf>,
    /// `redbin-served` address for client mode, if requested.
    pub server: Option<String>,
    /// Where to write the throughput profile, if requested.
    pub profile: Option<std::path::PathBuf>,
    /// `redbin-repro fuzz`: how many torture seeds to run.
    pub seeds: Option<u64>,
    /// `redbin-repro fuzz`: the first torture seed of the range.
    pub start_seed: Option<u64>,
}

impl BenchArgs {
    /// The effective scale (CLI > `REDBIN_SCALE` > `full`).
    pub fn effective_scale(&self) -> Scale {
        self.scale.unwrap_or(Scale::Full)
    }
}

/// Strictly parses a bench binary's argument list (without the program
/// name). Unknown flags are errors — a typo like `--sclae` must not
/// silently run the full-size default for hours.
///
/// # Errors
///
/// Returns a usage-style message naming the offending argument.
pub fn parse_cli(args: &[String]) -> Result<BenchArgs, String> {
    let mut out = BenchArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let value = |it: &mut std::slice::Iter<String>| -> Result<String, String> {
            match inline.clone() {
                Some(v) => Ok(v),
                None => it
                    .next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value")),
            }
        };
        match flag {
            "--scale" => out.scale = Some(Scale::from_name(&value(&mut it)?)?),
            "--json" => out.json = Some(std::path::PathBuf::from(value(&mut it)?)),
            "--server" => out.server = Some(value(&mut it)?),
            "--profile" => out.profile = Some(std::path::PathBuf::from(value(&mut it)?)),
            "--seeds" => out.seeds = Some(parse_u64(flag, &value(&mut it)?)?),
            "--start-seed" => out.start_seed = Some(parse_u64(flag, &value(&mut it)?)?),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (expected --scale, --json, --server, \
                     --profile, --seeds or --start-seed)"
                ))
            }
        }
    }
    Ok(out)
}

/// Parses argv + environment, exiting with status 2 and a message on any
/// invalid input (the strict behavior the PR-2 satellite requires).
pub fn cli_args() -> BenchArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    cli_args_from(&argv)
}

/// [`cli_args`] over an explicit argument list (the `redbin-repro`
/// multicommand strips its subcommand first and parses the rest here).
pub fn cli_args_from(argv: &[String]) -> BenchArgs {
    let mut args = match parse_cli(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.scale.is_none() {
        if let Ok(env_scale) = std::env::var("REDBIN_SCALE") {
            match Scale::from_name(&env_scale) {
                Ok(s) => args.scale = Some(s),
                Err(e) => {
                    eprintln!("error: REDBIN_SCALE: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    if args.server.is_none() {
        if let Ok(addr) = std::env::var("REDBIN_SERVER") {
            args.server = Some(addr);
        }
    }
    args
}

/// The workload scale from argv/environment (strict; exits non-zero on
/// unknown scales or unrecognized flags).
pub fn scale_from_args() -> Scale {
    cli_args().effective_scale()
}

/// The experiment configuration for an already-parsed argument set.
pub fn experiment_config_for(args: &BenchArgs) -> ExperimentConfig {
    ExperimentConfig {
        scale: args.effective_scale(),
        ..Default::default()
    }
}

/// If `--json` was given, wraps `body` with run metadata (schema version,
/// experiment name, scale, wall-clock seconds, a `telemetry` section, and
/// simulated-instruction throughput when `instructions` is known) and
/// writes it out.
///
/// # Panics
///
/// Panics if the file cannot be written — a repro run whose results vanish
/// should fail loudly.
pub fn emit_json(
    args: &BenchArgs,
    experiment: &str,
    started: Clock,
    instructions: Option<u64>,
    body: json::Json,
) {
    let Some(path) = args.json.as_deref() else {
        return;
    };
    let elapsed = started.elapsed();
    let secs = elapsed.as_secs_f64();
    let mut doc = json::with_meta(experiment, args.effective_scale(), elapsed, body);
    let mut reg = MetricsRegistry::new();
    reg.set_gauge("wall-seconds", secs);
    if let Some(n) = instructions {
        let rate = n as f64 / secs.max(1e-9);
        doc.set("simulated-instructions", json::Json::UInt(n));
        doc.set("instructions-per-second", json::Json::Num(rate));
        reg.add("simulated-instructions", n);
        reg.set_gauge("instructions-per-second", rate);
    }
    doc.set("telemetry", json::metrics(&reg));
    json::write_file(path, &doc).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("json: wrote {}", path.display());
}

/// Total simulated (retired) instructions behind an IPC figure, summed over
/// every benchmark and machine model — the throughput denominator.
pub fn figure_instructions(fig: &redbin::experiments::IpcFigure) -> u64 {
    fig.rows
        .iter()
        .flat_map(|r| r.stats.iter())
        .map(|s| s.retired)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_known_flags_in_both_spellings() {
        let a = parse_cli(&argv(&["--scale", "test", "--json", "out.json"])).unwrap();
        assert_eq!(a.scale, Some(Scale::Test));
        assert_eq!(a.json.as_deref(), Some(std::path::Path::new("out.json")));
        let b = parse_cli(&argv(&["--scale=small", "--server=127.0.0.1:7878"])).unwrap();
        assert_eq!(b.scale, Some(Scale::Small));
        assert_eq!(b.server.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(parse_cli(&[]).unwrap(), BenchArgs::default());
        assert_eq!(parse_cli(&[]).unwrap().effective_scale(), Scale::Full);
    }

    #[test]
    fn unknown_scales_are_errors_not_full_fallback() {
        // The old behavior warned and silently ran `full`; this is the
        // regression test that it now fails instead.
        let e = parse_cli(&argv(&["--scale", "huge"])).unwrap_err();
        assert!(e.contains("unknown scale"), "{e}");
        assert!(
            Scale::from_name("FULL").is_err(),
            "names are case-sensitive"
        );
        assert!(parse_cli(&argv(&["--scale"])).is_err(), "missing value");
    }

    #[test]
    fn profile_flag_takes_the_output_path() {
        let a = parse_cli(&argv(&["--profile", "fresh.json", "--scale", "test"])).unwrap();
        assert_eq!(
            a.profile.as_deref(),
            Some(std::path::Path::new("fresh.json"))
        );
        assert_eq!(a.scale, Some(Scale::Test));
        let b = parse_cli(&argv(&["--profile=out/p.json"])).unwrap();
        assert_eq!(
            b.profile.as_deref(),
            Some(std::path::Path::new("out/p.json"))
        );
        assert_eq!(parse_cli(&[]).unwrap().profile, None);
        let e = parse_cli(&argv(&["--profile"])).unwrap_err();
        assert!(e.contains("--profile needs a value"), "{e}");
    }

    #[test]
    fn seed_flags_parse_decimal_and_hex() {
        let a = parse_cli(&argv(&["--seeds", "200", "--start-seed", "0x2a"])).unwrap();
        assert_eq!(a.seeds, Some(200));
        assert_eq!(a.start_seed, Some(0x2a));
        let b = parse_cli(&argv(&["--seeds=1"])).unwrap();
        assert_eq!(b.seeds, Some(1));
        assert_eq!(b.start_seed, None);
        assert!(parse_cli(&argv(&["--seeds", "many"])).is_err());
        assert!(parse_cli(&argv(&["--start-seed", "-1"])).is_err());
        assert!(parse_cli(&argv(&["--seeds"])).is_err(), "missing value");
    }

    #[test]
    fn unrecognized_flags_are_rejected() {
        let e = parse_cli(&argv(&["--sclae", "test"])).unwrap_err();
        assert!(e.contains("unknown argument"), "{e}");
        assert!(parse_cli(&argv(&["stray"])).is_err());
        assert!(parse_cli(&argv(&["--json=a", "--frobnicate"])).is_err());
    }
}
