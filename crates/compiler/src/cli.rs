//! Command-line glue shared by the `xdpc` and `xdpd` binaries: flag
//! lookup and the options that feed [`CompileOptions`](crate::CompileOptions),
//! parsed once so both tools accept exactly the same spellings. `tool` is
//! the binary's name, for the `xdpc:` / `xdpd:` diagnostic prefix; a bad
//! value is a usage error (one line on stderr, exit code 2).

use crate::Backend;
use std::process::ExitCode;

/// Is the bare flag `name` present?
pub fn flag(rest: &[String], name: &str) -> bool {
    rest.iter().any(|a| a == name)
}

/// The argument following `name`, if both are present.
pub fn opt_val<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

/// The numeric option `name`: `default` when absent, a usage error when
/// its value is missing or does not parse as a `T`.
pub fn num<T: std::str::FromStr>(
    tool: &str,
    rest: &[String],
    name: &str,
    default: T,
) -> Result<T, ExitCode> {
    if !flag(rest, name) {
        return Ok(default);
    }
    let v = opt_val(rest, name).unwrap_or("");
    v.parse().map_err(|_| {
        eprintln!("{tool}: bad {name} `{v}`");
        ExitCode::from(2)
    })
}

/// A positive byte count with an optional binary k/m/g suffix;
/// surrounding whitespace is ignored.
pub fn parse_bytes(v: &str) -> Option<u64> {
    let v = v.trim();
    let (num, mult) = match v.char_indices().last()? {
        (i, 'k') | (i, 'K') => (&v[..i], 1u64 << 10),
        (i, 'm') | (i, 'M') => (&v[..i], 1 << 20),
        (i, 'g') | (i, 'G') => (&v[..i], 1 << 30),
        _ => (v, 1),
    };
    let n: u64 = num.parse().ok()?;
    n.checked_mul(mult).filter(|b| *b > 0)
}

/// `--mem-budget BYTES`: per-processor live-buffer budget for
/// redistribution planning (default unbounded).
pub fn parse_mem_budget(tool: &str, rest: &[String]) -> Result<Option<u64>, ExitCode> {
    let Some(v) = opt_val(rest, "--mem-budget") else {
        return Ok(None);
    };
    parse_bytes(v).map(Some).ok_or_else(|| {
        eprintln!("{tool}: bad --mem-budget `{v}` (positive bytes, optionally with k/m/g suffix)");
        ExitCode::from(2)
    })
}

/// `--backend interp|vm` (default interp).
pub fn parse_backend(tool: &str, rest: &[String]) -> Result<Backend, ExitCode> {
    match opt_val(rest, "--backend") {
        None => Ok(Backend::default()),
        Some(name) => Backend::parse(name).ok_or_else(|| {
            eprintln!("{tool}: bad --backend `{name}` (use interp or vm)");
            ExitCode::from(2)
        }),
    }
}
