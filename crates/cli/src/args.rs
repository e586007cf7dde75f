//! Minimal argument parsing: `--key value` flags, valueless `--switch`
//! flags, plus positional operands.

use std::collections::{HashMap, HashSet};

/// Parsed command line: flag map, switch set, and positionals in order.
///
/// A flag may be repeated (`--domain a --domain b`): [`Args::get`] keeps
/// the last-one-wins convention, [`Args::get_all`] returns every value in
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    flags: HashMap<String, Vec<String>>,
    switches: HashSet<String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `--key value` pairs and positionals from raw arguments;
    /// flags named in `switches` take no value — their presence is
    /// queried with [`Args::has`].
    ///
    /// # Errors
    ///
    /// Returns a message when a non-switch `--flag` lacks its value.
    pub fn parse_with_switches<I: IntoIterator<Item = String>>(
        raw: I,
        switches: &[&str],
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                if switches.contains(&key) {
                    args.switches.insert(key.to_string());
                } else {
                    let value = iter
                        .next()
                        .ok_or_else(|| format!("flag --{key} needs a value"))?;
                    args.flags.entry(key.to_string()).or_default().push(value);
                }
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    /// Whether a valueless `--switch` was present.
    pub fn has(&self, key: &str) -> bool {
        self.switches.contains(key)
    }

    /// String flag (the last occurrence when repeated).
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .get(key)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// Every occurrence of a repeatable flag, in command-line order.
    pub fn get_all(&self, key: &str) -> &[String] {
        self.flags.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// String flag with default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// Parsed flag (int, float, ...).
    ///
    /// # Errors
    ///
    /// Returns a message when present but unparsable.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag --{key} has invalid value {v:?}")),
        }
    }

    /// Required positional operand.
    ///
    /// # Errors
    ///
    /// Returns a message naming the operand when missing.
    pub fn positional(&self, index: usize, name: &str) -> Result<&str, String> {
        self.positionals
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| format!("missing operand: <{name}>"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse_with_switches(tokens.iter().map(|s| s.to_string()), &[]).unwrap()
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["--scenario", "syn", "trace.ivns", "--seed", "7"]);
        assert_eq!(a.get("scenario"), Some("syn"));
        assert_eq!(a.get_parsed::<u64>("seed").unwrap(), Some(7));
        assert_eq!(a.positional(0, "trace").unwrap(), "trace.ivns");
        assert_eq!(a.get_or("missing", "x"), "x");
    }

    #[test]
    fn missing_value_rejected() {
        let err = Args::parse_with_switches(vec!["--seed".to_string()], &["json"]).unwrap_err();
        assert!(err.contains("--seed"));
    }

    #[test]
    fn switches_take_no_value() {
        let raw = ["--json", "trace.ivns", "--chunks", "4"];
        let a = Args::parse_with_switches(raw.iter().map(|s| s.to_string()), &["json"]).unwrap();
        assert!(a.has("json"));
        assert!(!a.has("chunks"));
        assert_eq!(a.get_parsed::<usize>("chunks").unwrap(), Some(4));
        assert_eq!(a.positional(0, "trace").unwrap(), "trace.ivns");
        // Without registration the same token would swallow the operand.
        let b = Args::parse_with_switches(raw.iter().map(|s| s.to_string()), &[]).unwrap();
        assert_eq!(b.get("json"), Some("trace.ivns"));
    }

    #[test]
    fn bad_parse_reported() {
        let a = parse(&["--seed", "abc"]);
        assert!(a.get_parsed::<u64>("seed").is_err());
    }

    #[test]
    fn repeated_flags_accumulate() {
        let a = parse(&[
            "--domain", "x=a", "--domain", "y=b", "--seed", "1", "--seed", "2",
        ]);
        assert_eq!(a.get_all("domain"), ["x=a".to_string(), "y=b".to_string()]);
        assert_eq!(a.get("domain"), Some("y=b"), "get keeps last-one-wins");
        assert_eq!(a.get_parsed::<u64>("seed").unwrap(), Some(2));
        assert!(a.get_all("missing").is_empty());
    }

    #[test]
    fn missing_positional_reported() {
        let a = parse(&[]);
        assert!(a.positional(0, "trace").unwrap_err().contains("<trace>"));
    }
}
