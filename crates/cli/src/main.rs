//! The `tensorlib` command-line tool. See [`tensorlib_cli`] for the
//! commands; `tensorlib --help` (or any bad usage) prints the usage text.

use std::process::ExitCode;

use tensorlib_cli::{parse_invocation, run_invocation_coded, wants_interrupt_latch};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| tensorlib_cli::is_help(a)) {
        println!("{}", tensorlib_cli::usage());
        return ExitCode::SUCCESS;
    }
    let inv = match parse_invocation(&args) {
        Ok(inv) => inv,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Journaled campaigns turn the first Ctrl-C into a drain-and-flush (the
    // partial report is still written, marked interrupted); a second Ctrl-C
    // falls back to the default handler and kills the process.
    if wants_interrupt_latch(&inv.command) {
        tensorlib_cli::interrupt::install();
    }
    match run_invocation_coded(inv) {
        Ok((out, code)) => {
            print!("{out}");
            if code == 0 && tensorlib_cli::interrupt::interrupted() {
                // Conventional "terminated by SIGINT" code, so scripts can
                // tell a drained partial run from a clean completion.
                ExitCode::from(130)
            } else {
                // Command-specific codes: status 2 running / 3 interrupted,
                // watch 3 interrupted, history --check 4 on a flagged
                // regression; 0 otherwise.
                ExitCode::from(code)
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
