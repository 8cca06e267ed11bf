//! Tiny flag parser: `--key value` pairs and boolean `--flag`s.
//!
//! Deliberately dependency-free — the CLI's surface is small and the
//! workspace keeps its dependency set minimal (see DESIGN.md).

use std::collections::BTreeMap;

/// Parsed flags: `--key value` entries plus bare `--switch`es.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

/// Known boolean switches (everything else expects a value).
const SWITCHES: [&str; 6] = [
    "pessimistic",
    "verbose",
    "metrics",
    "cache-stats",
    "stats",
    "outcomes",
];

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut i = 0;
    while i < argv.len() {
        let arg = &argv[i];
        let Some(key) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument '{arg}'"));
        };
        if SWITCHES.contains(&key) {
            out.switches.push(key.to_string());
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("--{key} expects a value"))?;
        if value.starts_with("--") {
            return Err(format!("--{key} expects a value, got '{value}'"));
        }
        out.values.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(out)
}

impl Args {
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(|s| s.as_str())
    }

    pub fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("--{key}: expected an integer, got '{v}' ({e})")),
        }
    }

    /// A `--key` held in a `u32`, such as a worker or VM count: a value
    /// above `u32::MAX` is an argument error, not a wrapped-around count.
    pub fn get_u32(&self, key: &str, default: u32) -> Result<u32, String> {
        let v = self.get_u64(key, u64::from(default))?;
        u32::try_from(v).map_err(|_| format!("--{key} must be <= {}, got {v}", u32::MAX))
    }

    /// A `--key` that must be a positive integer, such as a day or seed
    /// count: zero is an argument error, not an empty run.
    pub fn get_positive(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get_u64(key, default)? {
            0 => Err(format!("--{key} must be >= 1")),
            v => Ok(v),
        }
    }

    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("--{key}: expected a number, got '{v}' ({e})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let a = parse(&argv(&["--days", "30", "--pessimistic", "--seed", "7"])).unwrap();
        assert_eq!(a.get("days"), Some("30"));
        assert_eq!(a.get_u64("seed", 0).unwrap(), 7);
        assert_eq!(a.get_positive("days", 1).unwrap(), 30);
        assert!(a.has("pessimistic"));
        assert!(!a.has("verbose"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&argv(&[])).unwrap();
        assert_eq!(a.get_u64("days", 60).unwrap(), 60);
        assert_eq!(a.get_positive("seeds", 1).unwrap(), 1);
        assert_eq!(a.get_f64("stability", 0.0).unwrap(), 0.0);
        assert_eq!(a.get_or("policy", "proactive"), "proactive");
    }

    #[test]
    fn rejects_missing_value() {
        assert!(parse(&argv(&["--days"])).is_err());
        assert!(parse(&argv(&["--days", "--seed"])).is_err());
    }

    #[test]
    fn rejects_positional() {
        assert!(parse(&argv(&["simulate"])).is_err());
    }

    #[test]
    fn rejects_bad_numbers() {
        let a = parse(&argv(&["--days", "soon"])).unwrap();
        assert!(a.get_u64("days", 1).is_err());
        assert!(a.get_positive("days", 1).is_err());
        let a = parse(&argv(&["--days", "0"])).unwrap();
        assert_eq!(
            a.get_positive("days", 7).unwrap_err(),
            "--days must be >= 1"
        );
        let a = parse(&argv(&["--vms", "4294967295", "--units", "4294967296"])).unwrap();
        assert_eq!(a.get_u32("vms", 1).unwrap(), u32::MAX);
        assert_eq!(
            a.get_u32("units", 8).unwrap_err(),
            "--units must be <= 4294967295, got 4294967296"
        );
    }
}
