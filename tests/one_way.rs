//! The "one way to do each thing" rules of DESIGN §2.19 and §2.20, as a
//! source scan: the deleted thread-per-processor machine stays deleted,
//! Figure 1's movement events are built only by `xdp_core::Recorder`, its
//! transfer rules are written only in `xdp_core::transfer`, and integer
//! division has one definition.

use std::path::{Path, PathBuf};

/// Every `.rs` file of the workspace's own code (not `vendor/`, build
/// output, or `benchmark/`, which a code PR may not edit).
fn sources() -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        walk(&root.join(top), &mut out);
    }
    out
}

/// Is `path` under a `tests/` or `benches/` directory?
fn in_tests(path: &Path) -> bool {
    path.components()
        .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches")
}

/// The non-test, non-comment code of a source file.
fn code_of(path: &Path) -> String {
    let text = std::fs::read_to_string(path).unwrap();
    // Unit-test modules close every source file that has one.
    let code = text.split("#[cfg(test)]").next().unwrap();
    code.lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn the_thread_per_processor_machine_stays_deleted() {
    // Spelled in two halves so this file passes its own scan.
    let names = [["Thread", "Exec"].concat(), ["Thread", "Config"].concat()];
    for path in sources() {
        if path.ends_with("crates/core/src/lib.rs") {
            continue; // the two aliases benchmark/src/prims.rs still names
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for name in &names {
            assert!(!text.contains(name), "{}: names {name}", path.display());
        }
    }
}

#[test]
fn movement_events_are_built_only_by_the_recorder() {
    let kinds = [
        "SendInit",
        "RecvPost",
        "RecvComplete",
        "WireTransit",
        "SectionState",
    ];
    for path in sources() {
        if in_tests(&path) || path.ends_with("crates/core/src/recorder.rs") {
            continue;
        }
        let code = code_of(&path);
        for kind in kinds {
            for ctor in ["span", "instant"] {
                let literal = format!("{ctor}(TraceKind::{kind}");
                assert!(
                    !code.contains(&literal),
                    "{}: builds a {kind} event outside the recorder",
                    path.display()
                );
            }
        }
    }
}

/// Does `code` build (rather than match on) the struct variant that
/// `head` (`"Path::Variant {"`) opens? A pattern has a rest (`..`) or is
/// followed by `=>`, `|`, `=` or a guard.
fn constructs(code: &str, head: &str) -> bool {
    code.match_indices(head).any(|(at, _)| {
        let body = &code[at + head.len()..];
        let close = body.find('}').expect("variant braces close");
        let after = body[close + 1..].trim_start();
        let pattern =
            body[..close].contains("..") || ["=", "|", "if "].iter().any(|p| after.starts_with(p));
        !pattern
    })
}

#[test]
fn transfer_rules_and_integer_division_are_written_once() {
    let send = "Action::Send {";
    assert!(constructs("Ok(Action::Send { msg, dest })", send));
    assert!(!constructs("Action::Send { msg, dest } => {", send));
    assert!(!constructs("matches!(a, Action::Send { .. })", send));
    for path in sources() {
        // The rules' one home; the symbol table that defines the calls;
        // and the Figure 1 conformance suite, which drives the symbol
        // table's protocol directly, below any processor.
        if in_tests(&path)
            || path.ends_with("crates/core/src/transfer.rs")
            || path.ends_with("crates/runtime/src/symtab.rs")
            || path.ends_with("crates/bench/src/conformance.rs")
        {
            continue;
        }
        let code = code_of(&path);
        for head in ["Action::Send {", "Action::PostRecv {"] {
            assert!(
                !constructs(&code, head),
                "{}: builds `{head} .. }}` outside xdp_core::transfer",
                path.display()
            );
        }
        for call in [
            ".begin_value_recv(",
            ".begin_ownership_recv(",
            ".remove_ownership(",
        ] {
            assert!(
                !code.contains(call),
                "{}: calls `{call}` outside xdp_core::transfer",
                path.display()
            );
        }
        // `IntBinOp::apply` is the arithmetic table; the pretty-printer
        // only spells the operator.
        let table = path.ends_with("crates/ir/src/expr.rs");
        let printer = path.ends_with("crates/ir/src/pretty.rs");
        assert!(
            table || printer || !code.contains("IntBinOp::Div =>"),
            "{}: a second integer-division arm",
            path.display()
        );
    }
}
