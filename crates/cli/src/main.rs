//! `skydiag`: skyline diagrams on the command line.
//!
//! See [`commands::USAGE`] or run `skydiag help`. Exit codes: 0 on
//! success, 2 on a usage error (bad arguments, a missing or unknown
//! subcommand, mode or kind), 1 on any other failure.

mod args;
mod commands;

use std::process::ExitCode;

use args::Args;
use commands::{
    cmd_ascii, cmd_build, cmd_gen, cmd_load, cmd_mem, cmd_query, cmd_render, cmd_report, cmd_save,
    cmd_serve_bench, cmd_stats, cmd_top, cmd_trace, USAGE,
};

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(subcommand) = raw.next() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let rest: Vec<String> = raw.collect();

    let result = Args::parse(rest)
        .map_err(commands::CliError::Args)
        .and_then(|args| {
            let mut stdout = std::io::stdout().lock();
            match subcommand.as_str() {
                "gen" => cmd_gen(&args, &mut stdout),
                "build" => cmd_build(&args, &mut stdout),
                "query" => cmd_query(&args, &mut stdout),
                "stats" => cmd_stats(&args, &mut stdout),
                "render" => cmd_render(&args, &mut stdout),
                "ascii" => cmd_ascii(&args, &mut stdout),
                "trace" => cmd_trace(&args, &mut stdout),
                "report" => cmd_report(&args, &mut stdout),
                "serve-bench" => cmd_serve_bench(&args, &mut stdout),
                "top" => cmd_top(&args, &mut stdout),
                "mem" => cmd_mem(&args, &mut stdout),
                "save" => cmd_save(&args, &mut stdout),
                "load" => cmd_load(&args, &mut stdout),
                "help" | "--help" | "-h" => {
                    print!("{USAGE}");
                    Ok(())
                }
                other => Err(commands::CliError::Usage(format!(
                    "unknown subcommand {other:?}; run `skydiag help`"
                ))),
            }
        });

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("skydiag: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
