//! `redbin-repro` — the consolidated table/figure reproduction driver.
//!
//! ```text
//! redbin-repro <COMMAND> [--scale test|small|full] [--json PATH]
//!              [--server HOST:PORT] [--profile PATH]
//! ```
//!
//! where `COMMAND` is one of `figure9`–`figure14`, `table1`, `table3`,
//! `delays`, `ablations`, or `all`. See `redbin_bench::repro`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!(
            "usage: redbin-repro <{}> [--scale test|small|full] [--json PATH] \
             [--server HOST:PORT] [--profile PATH]",
            redbin_bench::repro::COMMANDS.join("|")
        );
        std::process::exit(2);
    };
    redbin_bench::repro::run_from_argv(command, rest);
}
