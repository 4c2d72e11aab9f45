//! Shared command-line argument handling for every `r2d3` subcommand.
//!
//! Each subcommand declares its interface once — flags, switches,
//! positionals, defaults — and gets uniform behavior for free: the same
//! `--flag value` grammar, the same error wording (`unknown flag`,
//! `--x needs a value`, `invalid value for --x`), and a generated
//! `--help` page. Flags shared across subcommands (`--substrate`,
//! `--seed`, `--out`, `--epochs`, `--metrics-out`, `--trace-out`) come
//! from the helper constructors below so their spelling and help text
//! cannot drift between commands.

use std::fmt::Write as _;
use std::str::FromStr;

/// A `--name VALUE` flag (or a bare `--name` switch when `value` is None).
struct FlagSpec {
    name: &'static str,
    /// Placeholder in help output; `None` marks a value-less switch.
    value: Option<&'static str>,
    help: &'static str,
}

/// A required positional argument.
struct PosSpec {
    name: &'static str,
    help: &'static str,
}

/// Declarative description of one subcommand's arguments.
pub struct Command {
    name: &'static str,
    about: &'static str,
    flags: Vec<FlagSpec>,
    positionals: Vec<PosSpec>,
    /// Extra positionals allowed beyond the declared ones.
    trailing: bool,
}

impl Command {
    /// Starts a command description.
    pub fn new(name: &'static str, about: &'static str) -> Self {
        Command { name, about, flags: Vec::new(), positionals: Vec::new(), trailing: false }
    }

    /// Adds a `--name VALUE` flag.
    pub fn flag(mut self, name: &'static str, value: &'static str, help: &'static str) -> Self {
        self.flags.push(FlagSpec { name, value: Some(value), help });
        self
    }

    /// Adds a bare `--name` switch.
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.flags.push(FlagSpec { name, value: None, help });
        self
    }

    /// Adds a required positional argument.
    pub fn positional(mut self, name: &'static str, help: &'static str) -> Self {
        self.positionals.push(PosSpec { name, help });
        self
    }

    /// Allows extra positionals beyond the declared ones (a variadic
    /// tail, e.g. `r2d3 campaign merge <shard>...`).
    pub fn trailing(mut self) -> Self {
        self.trailing = true;
        self
    }

    // -- shared flags (one spelling, one help text, every command) ------

    /// `--substrate behavioral|netlist[|both]`.
    pub fn substrate_flag(self, allow_both: bool) -> Self {
        if allow_both {
            self.flag("substrate", "NAME", "execution substrate: behavioral|netlist|both")
        } else {
            self.flag("substrate", "NAME", "execution substrate: behavioral|netlist")
        }
    }

    /// `--seed N` (deterministic RNG / workload seed; decimal or `0x` hex).
    pub fn seed_flag(self) -> Self {
        self.flag("seed", "N", "deterministic seed (decimal or 0x hex)")
    }

    /// `--out FILE` (primary report destination; stdout when omitted).
    pub fn out_flag(self, what: &'static str) -> Self {
        let _ = what;
        self.flag("out", "FILE", "write the report here instead of stdout")
    }

    /// `--epochs N` (engine epochs to drive).
    pub fn epochs_flag(self) -> Self {
        self.flag("epochs", "N", "engine epochs to run")
    }

    /// `--metrics-out FILE` (serialized metrics snapshot).
    pub fn metrics_out_flag(self) -> Self {
        self.flag("metrics-out", "FILE", "write a JSON metrics snapshot here")
    }

    /// `--trace-out FILE` (Chrome trace-event file, Perfetto-loadable).
    pub fn trace_out_flag(self) -> Self {
        self.flag("trace-out", "FILE", "write a Chrome trace (load in Perfetto) here")
    }

    /// Generated `--help` page.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "r2d3 {} — {}", self.name, self.about);
        let _ = write!(out, "\nUSAGE:\n  r2d3 {}", self.name);
        for p in &self.positionals {
            let _ = write!(out, " <{}>", p.name);
        }
        if self.trailing {
            let _ = write!(out, "...");
        }
        if !self.flags.is_empty() {
            let _ = write!(out, " [OPTIONS]");
        }
        out.push('\n');
        if !self.positionals.is_empty() {
            out.push_str("\nARGS:\n");
            for p in &self.positionals {
                let _ = writeln!(out, "  <{}>  {}", p.name, p.help);
            }
        }
        out.push_str("\nOPTIONS:\n");
        let mut rows: Vec<(String, &str)> = self
            .flags
            .iter()
            .map(|f| {
                let lhs = match f.value {
                    Some(v) => format!("--{} <{}>", f.name, v),
                    None => format!("--{}", f.name),
                };
                (lhs, f.help)
            })
            .collect();
        rows.push(("--help".to_string(), "print this help"));
        let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (lhs, help) in rows {
            let _ = writeln!(out, "  {lhs:<width$}  {help}");
        }
        out
    }

    /// Parses `args`; `Ok(None)` means `--help` was handled (usage
    /// printed, the caller should exit successfully).
    pub fn parse<'a>(&self, args: &'a [String]) -> Result<Option<Parsed<'a>>, String> {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.usage());
            return Ok(None);
        }
        let mut parsed = Parsed {
            command: self.name,
            values: Vec::new(),
            switches: Vec::new(),
            positionals: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let spec = self.flags.iter().find(|f| f.name == name).ok_or_else(|| {
                    format!("unknown flag --{name} (see `r2d3 {} --help`)", self.name)
                })?;
                match spec.value {
                    Some(_) => {
                        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                        parsed.values.push((spec.name, value));
                    }
                    None => parsed.switches.push(spec.name),
                }
            } else {
                parsed.positionals.push(arg.as_str());
            }
        }
        if parsed.positionals.len() < self.positionals.len() {
            let missing = &self.positionals[parsed.positionals.len()];
            return Err(format!(
                "missing <{}> argument ({}); see `r2d3 {} --help`",
                missing.name, missing.help, self.name
            ));
        }
        if !self.trailing && parsed.positionals.len() > self.positionals.len() {
            return Err(format!(
                "unexpected argument `{}` (see `r2d3 {} --help`)",
                parsed.positionals[self.positionals.len()],
                self.name
            ));
        }
        Ok(Some(parsed))
    }
}

/// Parsed arguments for one invocation; values borrow from the input.
#[derive(Debug)]
pub struct Parsed<'a> {
    command: &'static str,
    values: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
    positionals: Vec<&'a str>,
}

impl<'a> Parsed<'a> {
    /// Raw value of a `--flag VALUE`, last occurrence winning.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Whether a switch was present.
    pub fn has(&self, name: &str) -> bool {
        self.switches.contains(&name)
    }

    /// The `idx`-th positional argument (declared ones are guaranteed).
    pub fn positional(&self, idx: usize) -> &'a str {
        self.positionals[idx]
    }

    /// All positional arguments, declared and trailing.
    pub fn positionals(&self) -> &[&'a str] {
        &self.positionals
    }

    /// Parses `--name`'s value, or returns `default` when absent. Errors
    /// carry the flag name and the offending token.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.parse_or(name, default, |v| v.parse().ok())
    }

    /// `--seed`'s value through [`parse_seed`], or `default` when absent.
    pub fn seed_or(&self, default: u64) -> Result<u64, String> {
        self.parse_or("seed", default, parse_seed)
    }

    fn parse_or<T>(
        &self,
        name: &str,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => parse(v).ok_or_else(|| {
                format!("invalid value for --{name}: `{v}` (r2d3 {})", self.command)
            }),
        }
    }
}

/// Parses a seed token: decimal (`51770`) or `0x`-prefixed hex
/// (`0xCA3A`), the form every report and replay hint prints seeds in.
#[must_use]
pub fn parse_seed(token: &str) -> Option<u64> {
    match token.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => token.parse().ok(),
    }
}

/// Which substrates a command should drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateChoice {
    /// Instruction-level `System3d`.
    Behavioral,
    /// Gate-level `NetlistSubstrate`.
    Netlist,
    /// Both, in report order (campaign only).
    Both,
}

/// Parses a `--substrate` token with uniform error wording.
pub fn parse_substrate(
    token: Option<&str>,
    default: SubstrateChoice,
    allow_both: bool,
) -> Result<SubstrateChoice, String> {
    match token {
        None => Ok(default),
        Some("behavioral") => Ok(SubstrateChoice::Behavioral),
        Some("netlist") => Ok(SubstrateChoice::Netlist),
        Some("both") if allow_both => Ok(SubstrateChoice::Both),
        Some(other) => {
            let options = if allow_both { "behavioral|netlist|both" } else { "behavioral|netlist" };
            Err(format!("unknown substrate `{other}` ({options})"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    fn cmd() -> Command {
        Command::new("demo", "test command")
            .positional("file", "input file")
            .flag("pipes", "N", "pipeline count")
            .switch("smoke", "small sweep")
            .substrate_flag(true)
            .seed_flag()
    }

    #[test]
    fn flags_switches_and_positionals_separate() {
        let a = args(&["file.s", "--pipes", "4", "--smoke", "--seed", "9"]);
        let p = cmd().parse(&a).unwrap().unwrap();
        assert_eq!(p.positional(0), "file.s");
        assert_eq!(p.get_or("pipes", 0usize).unwrap(), 4);
        assert_eq!(p.get_or("seed", 0u64).unwrap(), 9);
        assert!(p.has("smoke"));
        assert!(!p.has("podem"));
    }

    #[test]
    fn unknown_flag_and_missing_value_are_errors() {
        assert!(cmd().parse(&args(&["f", "--bogus", "1"])).unwrap_err().contains("--bogus"));
        assert!(cmd().parse(&args(&["f", "--pipes"])).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn missing_positional_names_the_argument() {
        let err = cmd().parse(&args(&["--pipes", "4"])).unwrap_err();
        assert!(err.contains("<file>"), "{err}");
    }

    #[test]
    fn invalid_value_names_the_flag_and_token() {
        let a = args(&["f", "--pipes", "zebra"]);
        let p = cmd().parse(&a).unwrap().unwrap();
        let err = p.get_or("pipes", 0usize).unwrap_err();
        assert!(err.contains("--pipes") && err.contains("zebra"), "{err}");
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_seed("51770"), Some(0xCA3A));
        assert_eq!(parse_seed("0xCA3A"), Some(51770));
        assert_eq!(parse_seed("0xca3a"), Some(51770));
        assert_eq!(parse_seed("0xffffffffffffffff"), Some(u64::MAX));
        for bad in ["", "0x", "-1", "+0x1", "0x-1", "ca3a", "0xg", "0x1_0", "18446744073709551616"]
        {
            assert_eq!(parse_seed(bad), None, "{bad:?} must be rejected");
        }
        let a = args(&["f", "--seed", "0xBADD"]);
        assert_eq!(cmd().parse(&a).unwrap().unwrap().seed_or(1).unwrap(), 0xBADD);
        let a = args(&["f"]);
        assert_eq!(cmd().parse(&a).unwrap().unwrap().seed_or(7).unwrap(), 7);
        let a = args(&["f", "--seed", "0xZZ"]);
        let err = cmd().parse(&a).unwrap().unwrap().seed_or(7).unwrap_err();
        assert!(err.contains("--seed") && err.contains("0xZZ"), "{err}");
    }

    #[test]
    fn defaults_apply_when_flags_absent() {
        let a = args(&["f"]);
        let p = cmd().parse(&a).unwrap().unwrap();
        assert_eq!(p.get_or("pipes", 7usize).unwrap(), 7);
        assert_eq!(p.get("substrate"), None);
    }

    #[test]
    fn substrate_tokens_parse_uniformly() {
        use SubstrateChoice::*;
        assert_eq!(parse_substrate(None, Behavioral, false).unwrap(), Behavioral);
        assert_eq!(parse_substrate(Some("netlist"), Behavioral, false).unwrap(), Netlist);
        assert_eq!(parse_substrate(Some("both"), Behavioral, true).unwrap(), Both);
        assert!(parse_substrate(Some("both"), Behavioral, false).is_err());
        assert!(parse_substrate(Some("quantum"), Behavioral, true)
            .unwrap_err()
            .contains("behavioral|netlist|both"));
    }

    #[test]
    fn usage_lists_every_flag_and_positional() {
        let text = cmd().usage();
        for needle in
            ["<file>", "--pipes <N>", "--smoke", "--substrate <NAME>", "--seed <N>", "--help"]
        {
            assert!(text.contains(needle), "usage missing {needle}:\n{text}");
        }
    }

    #[test]
    fn help_short_circuits_parsing() {
        assert!(cmd().parse(&args(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn trailing_accepts_extra_positionals() {
        let variadic = Command::new("demo", "test").positional("file", "input").trailing();
        let a = args(&["a", "b", "c"]);
        let p = variadic.parse(&a).unwrap().unwrap();
        assert_eq!(p.positionals(), &["a", "b", "c"]);
        // Without trailing, the same input is rejected.
        let strict = Command::new("demo", "test").positional("file", "input");
        assert!(strict.parse(&a).unwrap_err().contains("unexpected argument"));
    }
}
