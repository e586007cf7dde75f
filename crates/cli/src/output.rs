//! Shared output plumbing: the one stdout writer every command prints
//! through, the one JSON writer every `--json`/`--metrics` surface uses,
//! and the metrics-snapshot printer.
//!
//! Commands build documents through [`JsonWriter`] instead of hand-rolling
//! `outln!("{{")` pyramids, so quoting, escaping, comma placement and
//! indentation behave identically everywhere.

use std::io::Write;
use std::sync::Arc;

/// Writes to stdout — the path all command output takes ([`out!`],
/// [`outln!`]). A reader that closed early (`ivnt … | head`) is a quiet,
/// clean end: the process exits 0 instead of panicking on the next print.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::output::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
macro_rules! outln {
    () => {
        $crate::output::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::output::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Escapes a string for a JSON literal (quotes, backslashes, controls).
pub fn json_str(s: &str) -> String {
    ivnt_obs::snapshot::json_string(s)
}

/// A tiny streaming JSON document builder: objects and arrays with
/// two-space indentation, commas handled automatically. Values are
/// either typed (string/number/bool) or raw pre-rendered JSON
/// ([`JsonWriter::field_raw`]) — the latter is how an
/// [`ivnt_obs::Snapshot`]'s own rendering embeds without re-parsing.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Per-level "has at least one entry" flags; top of stack is the
    /// innermost open object/array.
    levels: Vec<bool>,
}

impl JsonWriter {
    /// A writer with nothing written yet.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    fn indent(&mut self) {
        for _ in 0..self.levels.len() {
            self.out.push_str("  ");
        }
    }

    /// Starts an entry: comma for non-first siblings, newline, indent.
    fn entry(&mut self, key: Option<&str>) {
        if let Some(open) = self.levels.last_mut() {
            if *open {
                self.out.push(',');
            }
            *open = true;
        }
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        self.indent();
        if let Some(key) = key {
            self.out.push_str(&json_str(key));
            self.out.push_str(": ");
        }
    }

    fn close(&mut self, bracket: char) {
        let had_entries = self.levels.pop().unwrap_or(false);
        if had_entries {
            self.out.push('\n');
            self.indent();
        }
        self.out.push(bracket);
    }

    /// Opens an object — the root (no key) or a keyed member.
    pub fn begin_object(&mut self, key: Option<&str>) -> &mut JsonWriter {
        self.entry(key);
        self.out.push('{');
        self.levels.push(false);
        self
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) -> &mut JsonWriter {
        self.close('}');
        self
    }

    /// Opens an array member.
    pub fn begin_array(&mut self, key: Option<&str>) -> &mut JsonWriter {
        self.entry(key);
        self.out.push('[');
        self.levels.push(false);
        self
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) -> &mut JsonWriter {
        self.close(']');
        self
    }

    /// A string member.
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut JsonWriter {
        self.entry(Some(key));
        self.out.push_str(&json_str(v));
        self
    }

    /// An integer member.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut JsonWriter {
        self.entry(Some(key));
        self.out.push_str(&v.to_string());
        self
    }

    /// A float member (non-finite becomes `null`).
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut JsonWriter {
        self.entry(Some(key));
        if v.is_finite() {
            self.out.push_str(&format!("{v}"));
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// A boolean member.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut JsonWriter {
        self.entry(Some(key));
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// A member whose value is already-rendered JSON (e.g.
    /// [`ivnt_obs::Snapshot::to_json`] output).
    pub fn field_raw(&mut self, key: &str, raw: &str) -> &mut JsonWriter {
        self.entry(Some(key));
        self.out.push_str(raw);
        self
    }

    /// The `metrics` member holding a `--metrics` snapshot, if any.
    pub fn field_metrics(&mut self, snapshot: Option<&ivnt_obs::Snapshot>) -> &mut JsonWriter {
        if let Some(s) = snapshot {
            self.field_raw("metrics", &s.to_json());
        }
        self
    }

    /// An unkeyed raw JSON array element.
    pub fn element_raw(&mut self, raw: &str) -> &mut JsonWriter {
        self.entry(None);
        self.out.push_str(raw);
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Prints a `--metrics` snapshot, if any, after a blank line as
/// Prometheus text (the human-readable output; `--json` embeds it through
/// [`JsonWriter::field_metrics`] instead).
pub fn print_metrics(snapshot: Option<&ivnt_obs::Snapshot>) {
    if let Some(s) = snapshot {
        outln!();
        out!("{}", s.to_prometheus());
    }
}

/// Installs a fresh process-wide registry when `install` is set (by
/// `--metrics`, or `--timing` on `run`), returning the registry (to
/// snapshot later) and the uninstall guard that must stay alive for the
/// instrumented region.
pub fn metrics_registry(
    install: bool,
) -> Option<(Arc<ivnt_obs::Registry>, ivnt_obs::InstallGuard)> {
    if !install {
        return None;
    }
    let registry = Arc::new(ivnt_obs::Registry::new());
    let guard = ivnt_obs::install(Arc::clone(&registry));
    Some((registry, guard))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_builds_nested_documents() {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.field_str("path", "a \"b\"");
        w.field_u64("rows", 7);
        w.field_bool("ok", true);
        w.begin_array(Some("chunks"));
        w.element_raw("{\"chunk\": 0}");
        w.element_raw("{\"chunk\": 1}");
        w.end_array();
        w.begin_object(Some("inner"));
        w.field_f64("ratio", 0.5);
        w.end_object();
        w.end_object();
        let doc = w.finish();
        assert_eq!(
            doc,
            "{\n  \"path\": \"a \\\"b\\\"\",\n  \"rows\": 7,\n  \"ok\": true,\n  \
             \"chunks\": [\n    {\"chunk\": 0},\n    {\"chunk\": 1}\n  ],\n  \
             \"inner\": {\n    \"ratio\": 0.5\n  }\n}"
        );
    }

    #[test]
    fn empty_containers_stay_compact() {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.begin_array(Some("chunks"));
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\n  \"chunks\": []\n}");
    }
}
