//! The flags shared by `run`, `extract` and `cluster run`, parsed
//! once so every command interprets them identically.

use crate::args::Args;

/// Shared per-command options: `--workers N`, `--serial`, `--timing`,
/// `--metrics`, `--json`.
///
/// `--metrics` prints the run's [`ivnt_obs`] snapshot after the normal
/// output — Prometheus text exposition by default, the JSON form when
/// `--json` is also given.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedOptions {
    /// Worker cap for the fan-out executor (`--workers N`).
    pub workers: Option<usize>,
    /// Force the sequential reference path (`--serial`).
    pub serial: bool,
    /// Print the per-stage busy/wall timing table (`--timing`).
    pub timing: bool,
    /// Collect and print an observability snapshot (`--metrics`).
    pub metrics: bool,
    /// Machine-readable JSON output (`--json`).
    pub json: bool,
}

impl SharedOptions {
    /// Parses the shared flags from an already-tokenized command line.
    ///
    /// # Errors
    ///
    /// Returns a message when `--workers` is present but not a count.
    pub fn parse(args: &Args) -> Result<SharedOptions, String> {
        Ok(SharedOptions {
            workers: args.get_parsed::<usize>("workers")?,
            ..SharedOptions::parse_switches(args)
        })
    }

    /// The shared flags minus `--workers`, for `cluster run` where that
    /// flag names worker *addresses* instead of a thread count.
    pub fn parse_switches(args: &Args) -> SharedOptions {
        SharedOptions {
            workers: None,
            serial: args.has("serial"),
            timing: args.has("timing"),
            metrics: args.has("metrics"),
            json: args.has("json"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::SWITCHES;

    fn parse_line(tokens: &[&str]) -> Args {
        Args::parse_with_switches(tokens.iter().map(|s| s.to_string()), SWITCHES).unwrap()
    }

    #[test]
    fn all_shared_flags_parse() {
        let args = parse_line(&[
            "--workers",
            "3",
            "--serial",
            "--timing",
            "--metrics",
            "--json",
        ]);
        let opts = SharedOptions::parse(&args).unwrap();
        assert_eq!(opts.workers, Some(3));
        assert!(opts.serial && opts.timing && opts.metrics && opts.json);
    }

    #[test]
    fn defaults_are_off() {
        let opts = SharedOptions::parse(&parse_line(&["trace.ivns"])).unwrap();
        assert_eq!(opts.workers, None);
        assert!(!opts.serial && !opts.timing && !opts.metrics && !opts.json);
    }

    #[test]
    fn bad_worker_count_is_reported() {
        let args = parse_line(&["--workers", "lots"]);
        assert!(SharedOptions::parse(&args).unwrap_err().contains("workers"));
    }

    #[test]
    fn switch_form_ignores_workers() {
        // `cluster run --workers A,B` must not be parsed as a count.
        let args = parse_line(&["--workers", "10.0.0.1:7,10.0.0.2:7", "--metrics"]);
        let opts = SharedOptions::parse_switches(&args);
        assert_eq!(opts.workers, None);
        assert!(opts.metrics);
    }
}
