//! `ivnt` — command-line front end for the trace-preprocessing pipeline.

#[macro_use]
mod output;
mod args;
mod commands;
mod options;

use args::Args;

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprint!("{}", commands::usage());
        std::process::exit(2);
    }
    let command = raw.remove(0);
    let parsed = match Args::parse_with_switches(raw, commands::SWITCHES) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // `--help` after a command asks for the usage `ivnt --help` prints.
    if parsed.has("help") {
        out!("{}", commands::usage());
        return;
    }
    if let Err(e) = commands::check_flags(&command, &parsed) {
        eprint!("error: {e}\n\n{}", commands::usage());
        std::process::exit(2);
    }
    let result = match command.as_str() {
        "record" => commands::record(&parsed),
        "inspect" => commands::inspect(&parsed),
        "extract" => commands::extract(&parsed),
        "run" => commands::run(&parsed),
        "query" => commands::query(&parsed),
        "store" => commands::store(&parsed),
        "stream" => commands::stream(&parsed),
        "cluster" => commands::cluster(&parsed),
        "dbc" => commands::dbc(&parsed),
        "infer" => commands::infer(&parsed),
        "help" | "--help" | "-h" => {
            out!("{}", commands::usage());
            Ok(())
        }
        other => Err(format!(
            "unknown command {other:?}\n\n{}",
            commands::usage()
        )),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
