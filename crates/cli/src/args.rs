//! Flag parsing against a command's flag table.
//!
//! Each command declares its flags once, as a [`Table`] of [`Flag`]s.
//! The same table parses argv, rejects a flag the command does not take,
//! and renders the command's `--help`. Deliberately dependency-free — the
//! CLI's surface is small and the workspace keeps its dependency set
//! minimal (see DESIGN.md).

use spothost_market::time::SimDuration;
use std::collections::BTreeMap;

/// One flag of a command: `--name VALUE`, or the switch `--name`.
#[derive(Debug)]
pub struct Flag {
    pub name: &'static str,
    /// The value's placeholder in help, such as `D` or `FILE`; `None`
    /// for a switch.
    pub value: Option<&'static str>,
    pub help: &'static str,
}

impl Flag {
    pub const fn value(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(value),
            help,
        }
    }

    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            help,
        }
    }
}

/// A command's flags, in groups, so that a group several commands take
/// is declared once.
pub type Table = &'static [&'static [Flag]];

/// The flags given to one command: each flag's value, `None` for a
/// switch.
#[derive(Debug)]
pub struct Args {
    table: Table,
    given: BTreeMap<&'static str, Option<String>>,
}

fn find(table: Table, name: &str) -> Option<&'static Flag> {
    table
        .iter()
        .flat_map(|group| group.iter())
        .find(|f| f.name == name)
}

/// Parse `argv` against `table`. A flag the table does not declare, a
/// flag given twice and a value flag without its value are errors that
/// name the flag.
pub fn parse(table: Table, argv: &[String]) -> Result<Args, String> {
    let mut given = BTreeMap::new();
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument '{arg}'"));
        };
        let flag = find(table, name).ok_or_else(|| format!("unknown flag --{name}"))?;
        let value = match flag.value.map(|_| argv.next()) {
            None => None,
            Some(Some(v)) if !v.starts_with("--") => Some(v.clone()),
            Some(Some(v)) => return Err(format!("--{name} expects a value, got '{v}'")),
            Some(None) => return Err(format!("--{name} expects a value")),
        };
        if given.insert(flag.name, value).is_some() {
            return Err(format!("--{name} given twice"));
        }
    }
    Ok(Args { table, given })
}

impl Args {
    /// Debug-check that the table declares `--key`, and as a switch
    /// exactly when `switch` is `Some(true)`: a getter that reads a flag
    /// its command does not declare is a bug, which tests catch here.
    fn declared(&self, key: &str, switch: Option<bool>) {
        let flag = find(self.table, key);
        debug_assert!(
            flag.is_some_and(|f| switch.is_none_or(|s| s == f.value.is_none())),
            "--{key} is read but not declared as {switch:?}: {flag:?}"
        );
    }

    /// Whether `--key` was given, as a value flag or a switch.
    pub fn given(&self, key: &str) -> bool {
        self.declared(key, None);
        self.given.contains_key(key)
    }

    /// `--key` beside `--other`, which makes it inapplicable, is an error
    /// naming both: the command would drop one of them without a word.
    pub fn reject_beside(&self, key: &str, other: &str) -> Result<(), String> {
        if self.given(key) && self.given(other) {
            return Err(format!("--{key} cannot be combined with --{other}"));
        }
        Ok(())
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.declared(key, Some(false));
        self.given.get(key)?.as_deref()
    }

    pub fn has(&self, switch: &str) -> bool {
        self.declared(switch, Some(true));
        self.given.contains_key(switch)
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

    /// A `--key` counting `unit`s of simulated time, such as `--days`:
    /// zero, or a count whose milliseconds overflow `u64`, is an argument
    /// error, not an empty or wrapped-around duration.
    pub fn get_duration(
        &self,
        key: &str,
        default: u64,
        unit: SimDuration,
    ) -> Result<SimDuration, String> {
        let n = self.get_positive(key, default)?;
        let max = u64::MAX / unit.as_millis();
        if n > max {
            return Err(format!("--{key} must be <= {max}, got {n}"));
        }
        Ok(SimDuration::millis(n * unit.as_millis()))
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

/// The help of a table: one line per flag, its name and placeholder
/// padded to one column.
pub fn render_help(table: Table) -> String {
    let flags: Vec<(String, &str)> = table
        .iter()
        .flat_map(|group| group.iter())
        .map(|f| match f.value {
            Some(v) => (format!("--{} {v}", f.name), f.help),
            None => (format!("--{}", f.name), f.help),
        })
        .collect();
    let width = flags
        .iter()
        .map(|(usage, _)| usage.len())
        .max()
        .unwrap_or_default();
    flags
        .iter()
        .map(|(usage, help)| format!("  {usage:<width$}  {help}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: Table = &[
        &[
            Flag::value("days", "D", "days"),
            Flag::value("seed", "N", "seed"),
        ],
        &[
            Flag::value("vms", "N", "VM count"),
            Flag::value("units", "U", "units"),
            Flag::switch("pessimistic", "a switch"),
        ],
    ];

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    fn parsed(items: &[&str]) -> Args {
        parse(TABLE, &argv(items)).unwrap()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let a = parsed(&["--days", "30", "--pessimistic", "--seed", "7"]);
        assert_eq!(a.get("days"), Some("30"));
        assert_eq!(a.get_u64("seed", 0).unwrap(), 7);
        assert_eq!(a.get_positive("days", 1).unwrap(), 30);
        assert!(a.has("pessimistic"));
        assert!(a.given("seed") && !a.given("vms"));
    }

    #[test]
    fn defaults_apply() {
        let a = parsed(&[]);
        assert_eq!(a.get_u64("days", 60).unwrap(), 60);
        assert_eq!(a.get_positive("seed", 1).unwrap(), 1);
        assert_eq!(a.get_f64("units", 0.0).unwrap(), 0.0);
        assert_eq!(a.get_or("vms", "8"), "8");
        assert!(!a.has("pessimistic"));
    }

    #[test]
    fn rejects_missing_value() {
        let err = |items: &[&str]| parse(TABLE, &argv(items)).unwrap_err();
        assert_eq!(err(&["--days"]), "--days expects a value");
        assert_eq!(
            err(&["--days", "--seed"]),
            "--days expects a value, got '--seed'"
        );
    }

    #[test]
    fn rejects_undeclared_and_repeated_flags() {
        let err = |items: &[&str]| parse(TABLE, &argv(items)).unwrap_err();
        assert_eq!(err(&["--dayz", "3"]), "unknown flag --dayz");
        assert_eq!(err(&["--verbose"]), "unknown flag --verbose");
        assert_eq!(err(&["--days", "3", "--days", "4"]), "--days given twice");
        assert_eq!(
            err(&["--pessimistic", "--pessimistic"]),
            "--pessimistic given twice"
        );
    }

    #[test]
    fn rejects_positional() {
        let err = |items: &[&str]| parse(TABLE, &argv(items)).unwrap_err();
        assert_eq!(
            err(&["simulate"]),
            "unexpected positional argument 'simulate'"
        );
        // A switch takes no value: what follows it is a positional.
        assert_eq!(
            err(&["--pessimistic", "yes"]),
            "unexpected positional argument 'yes'"
        );
    }

    #[test]
    fn rejects_a_flag_beside_one_that_makes_it_inapplicable() {
        let a = parsed(&["--days", "3", "--seed", "1"]);
        assert_eq!(
            a.reject_beside("days", "seed").unwrap_err(),
            "--days cannot be combined with --seed"
        );
        assert!(a.reject_beside("days", "vms").is_ok());
        assert!(a.reject_beside("vms", "days").is_ok());
    }

    #[test]
    fn rejects_bad_numbers() {
        let a = parsed(&["--days", "soon"]);
        assert!(a.get_u64("days", 1).is_err());
        assert!(a.get_positive("days", 1).is_err());
        let a = parsed(&["--days", "0"]);
        assert_eq!(
            a.get_positive("days", 7).unwrap_err(),
            "--days must be >= 1"
        );
        let day = SimDuration::days(1);
        let a = parsed(&["--days", "213503982334", "--seed", "213503982335"]);
        assert_eq!(
            a.get_duration("days", 1, day).unwrap().as_millis(),
            213503982334 * 86_400_000
        );
        assert_eq!(
            a.get_duration("seed", 1, day).unwrap_err(),
            "--seed must be <= 213503982334, got 213503982335"
        );
        let a = parsed(&["--days", "0", "--seed", "18446744073709551616"]);
        assert_eq!(
            a.get_duration("days", 7, day).unwrap_err(),
            "--days must be >= 1"
        );
        assert!(a.get_duration("seed", 1, day).is_err());
        assert_eq!(
            parsed(&[]).get_duration("days", 7, day).unwrap(),
            SimDuration::days(7)
        );
        let a = parsed(&["--vms", "4294967295", "--units", "4294967296"]);
        assert_eq!(a.get_u32("vms", 1).unwrap(), u32::MAX);
        assert_eq!(
            a.get_u32("units", 8).unwrap_err(),
            "--units must be <= 4294967295, got 4294967296"
        );
    }

    #[test]
    #[should_panic(expected = "--verbose is read but not declared")]
    #[cfg(debug_assertions)]
    fn reading_an_undeclared_flag_is_a_bug() {
        parsed(&[]).has("verbose");
    }

    #[test]
    fn help_lists_every_flag_in_one_column() {
        assert_eq!(
            render_help(TABLE),
            "  --days D       days\n  --seed N       seed\n  --vms N        VM count\n  \
             --units U      units\n  --pessimistic  a switch\n"
        );
    }
}
