//! `dcs` — run any benchmark of the reproduction from the command line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dcs_cli::parse(&args) {
        Ok(dcs_cli::Command::Help) => {
            print!("{}", dcs_cli::HELP);
            ExitCode::SUCCESS
        }
        Ok(dcs_cli::Command::Info) => {
            print!("{}", dcs_cli::info());
            ExitCode::SUCCESS
        }
        Ok(dcs_cli::Command::Run(a)) => {
            print!("{}", dcs_cli::execute_run(&a));
            ExitCode::SUCCESS
        }
        Ok(dcs_cli::Command::Sweep(a)) => {
            print!("{}", dcs_cli::execute_sweep(&a));
            ExitCode::SUCCESS
        }
        Ok(dcs_cli::Command::Check(a)) => {
            let (report, ok) = dcs_cli::execute_check(&a);
            print!("{report}");
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        // A usage error exits 2, apart from `check`'s 1 for a violation.
        Err(e) => {
            eprintln!("error: {e}\n");
            eprint!("{}", dcs_cli::HELP);
            ExitCode::from(2)
        }
    }
}
