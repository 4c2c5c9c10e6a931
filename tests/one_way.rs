//! The "one way to do each thing" rules of DESIGN §2.19, as a source scan:
//! the deleted thread-per-processor machine stays deleted, and Figure 1's
//! movement events are built only by `xdp_core::Recorder`.

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
        let in_tests = path
            .components()
            .any(|c| c.as_os_str() == "tests" || c.as_os_str() == "benches");
        if in_tests || path.ends_with("crates/core/src/recorder.rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        // Unit-test modules close every source file that has one.
        let code = text.split("#[cfg(test)]").next().unwrap();
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
