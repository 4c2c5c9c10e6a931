//! The "one way to do each thing" rules of DESIGN §2.19–§2.21, as a
//! source scan: the deleted thread-per-processor machine stays deleted,
//! Figure 1's movement events are built only by `xdp_core::Recorder`, its
//! transfer rules are written only in `xdp_core::transfer`, integer
//! division has one definition and the compiler one evaluator, which
//! decides ownership on sets (§2.1, §2.5), `benchmark/` is the only performance
//! record, every binary the Makefile and CI invoke exists, (§2.22) the
//! serve layer compiles in one function and `run_traced` renders the
//! statement table at one place per pass boundary, (§2.23)
//! `xdp-collectives` never moves a message, (§2.24) the command line
//! is declared and read in `xdp_compiler::cli` alone, which every
//! documented invocation parses against, and (§2.25) a machine has one
//! description and one builder, with every name `benchmark/` imports
//! still exported, (§2.9) a request is fully traced only for the
//! flight recorder that reads the timeline, and (§2.1) the IR is walked in
//! `xdp_ir::walk` alone.

use std::path::{Path, PathBuf};
use xdp_compiler::cli::{self, Args};

/// Every file of the checkout outside build output, `.git` and
/// `benchmark/` (which a code PR may not edit).
fn checkout_files() -> Vec<PathBuf> {
    const SKIPPED: [&str; 4] = [".git", "target", "benchmark", ".bench_build"];
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable dir") {
            let path = entry.expect("dir entry").path();
            if !path.is_dir() {
                out.push(path);
            } else if !SKIPPED.iter().any(|d| path.ends_with(d)) {
                walk(&path, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(Path::new(env!("CARGO_MANIFEST_DIR")), &mut out);
    out
}

/// Every `.rs` file of the workspace's own code (not `vendor/`).
fn sources() -> Vec<PathBuf> {
    let vendor = Path::new(env!("CARGO_MANIFEST_DIR")).join("vendor");
    checkout_files()
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "rs") && !p.starts_with(&vendor))
        .collect()
}

/// Is `path` under a `tests/` directory?
fn in_tests(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "tests")
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

/// Assert that no workspace source outside `benchmark/`, and none of the
/// README, the tutorial, the Makefile and the CI workflow, says one of
/// `names` — except `pub type` lines of `crates/core/src/lib.rs`, the
/// alias block `benchmark/` alone imports through.
fn assert_named_only_by_the_alias_block(names: &[String]) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let docs = [
        "README.md",
        "docs/TUTORIAL.md",
        "Makefile",
        ".github/workflows/ci.yml",
    ];
    for path in sources().into_iter().chain(docs.map(|d| root.join(d))) {
        let aliases = path.ends_with("crates/core/src/lib.rs");
        let text = std::fs::read_to_string(&path).unwrap();
        for (n, line) in text.lines().enumerate() {
            if aliases && line.starts_with("pub type ") {
                continue;
            }
            for name in names {
                let at = format!("{}:{}", path.display(), n + 1);
                assert!(!line.contains(name.as_str()), "{at}: names {name}");
            }
        }
    }
}

#[test]
fn the_thread_per_processor_machine_stays_deleted() {
    // Spelled in two halves so this file passes its own scan.
    assert_named_only_by_the_alias_block(&[
        ["Thread", "Exec"].concat(),
        ["Thread", "Config"].concat(),
    ]);
}

#[test]
fn a_machine_has_one_description_and_one_builder() {
    // The three config types folded into `MachineConfig`, the reference
    // executor's own report, and the VM's second pair of constructors.
    assert_named_only_by_the_alias_block(&[
        ["Sim", "Config"].concat(),
        ["Async", "Config"].concat(),
        ["Lockstep", "Config"].concat(),
        ["Lockstep", "Report"].concat(),
        ["Vm", "Exec"].concat(),
    ]);
    // What is left describes a machine alone.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let core = root.join("crates/core/src");
    let reference = root.join("crates/verify/src/lockstep.rs");
    for path in sources() {
        if !path.starts_with(&core) && path != reference {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        for (at, _) in text.match_indices("struct ") {
            let name = &text[at + "struct ".len()..];
            let name = &name[..name.find(|c: char| !c.is_alphanumeric()).unwrap()];
            assert!(
                !name.ends_with("Config") || name == "MachineConfig",
                "{}: a second machine description, `{name}`",
                path.display()
            );
        }
    }
    // Matching on the backend or the machine kind to construct a machine
    // is `xdp_verify::machine`'s job and nobody else's.
    let arms = ["Backend::Vm =>", "Kind::Tasks =>", "Machine::Tasks =>"];
    let ctors = [
        "SimExec::new(",
        "SimExec::from_procs(",
        "AsyncExec::new(",
        "AsyncExec::from_procs(",
    ];
    let mut builders = Vec::new();
    for path in sources() {
        let text = std::fs::read_to_string(&path).unwrap();
        // (This file spells both lists.)
        if !arms.iter().any(|arm| text.contains(arm)) || path.ends_with("tests/one_way.rs") {
            continue;
        }
        if path.ends_with("crates/verify/src/diff.rs") {
            for arm in arms {
                for (at, _) in text.match_indices(arm) {
                    builders.push(enclosing_fn(&text, at).to_string());
                }
            }
            continue;
        }
        for ctor in ctors {
            assert!(
                !text.contains(ctor),
                "{}: matches on the backend or machine kind and calls `{ctor}..)`; \
                 build through xdp_verify::machine",
                path.display()
            );
        }
    }
    builders.dedup();
    assert_eq!(
        builders,
        ["machine"],
        "the matrix is spelled in one function"
    );
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
        // only spells the operator, and the triplet algebra takes
        // remainders by strides, which are positive by construction. No
        // other source has an integer `Div =>` / `Mod =>` arm, however the
        // enum is imported, or divides with the checked or Euclidean
        // methods the table is built from.
        let table = path.ends_with("crates/ir/src/expr.rs");
        let printer = path.ends_with("crates/ir/src/pretty.rs");
        let triplets = path.ends_with("crates/ir/src/triplet.rs");
        for arm in ["Div =>", "Mod =>"] {
            for (at, _) in code.match_indices(arm) {
                assert!(
                    table || printer || code[..at].ends_with("ElemBinOp::"),
                    "{}: a second integer-division arm",
                    path.display()
                );
            }
        }
        for method in ["rem_euclid", "checked_div"] {
            assert!(
                table || triplets || !code.contains(method),
                "{}: `{method}` outside IntBinOp::apply",
                path.display()
            );
        }
    }
}

#[test]
fn the_compiler_decides_ownership_on_sets_with_one_evaluator() {
    // DESIGN §2.1/§2.5: the passes and the analysis they share ask every
    // ownership question of `OwnerMap` and friends. No iteration cap, no
    // enumerator, and no walk over a section's or a loop's members is left
    // in their non-test code — the point walk is the test oracle only.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let passes = root.join("crates/compiler/src/passes");
    let analysis = root.join("crates/ir/src/analysis.rs");
    let mut evaluators = Vec::new();
    for path in sources() {
        if !path.starts_with(&passes) && path != analysis {
            continue;
        }
        let code = code_of(&path);
        for name in [["MAX_", "ENUM"].concat(), ["loop_", "values"].concat()] {
            assert!(!code.contains(&name), "{}: names {name}", path.display());
        }
        for line in code.lines().filter(|l| l.contains(".iter()")) {
            let walked = line[..line.find(".iter()").unwrap()].trim_end_matches(')');
            let walked = walked.rsplit(|c: char| c != '_' && !c.is_alphanumeric());
            let walked = walked.into_iter().next().unwrap_or_default();
            let members = [
                "sec", "osec", "tsec", "section", "window", "values", "rect", "piece",
            ];
            assert!(
                !members.contains(&walked),
                "{}: walks the members of `{walked}`: {line}",
                path.display()
            );
        }
        // One function turns an `IntExpr::Bin` into a number, through the
        // one arithmetic table.
        for (at, _) in code.match_indices("IntExpr::Bin(op") {
            let body = &code[at..];
            let body = &body[..body.find("\n        }").unwrap_or(body.len())];
            if body.contains("=>") {
                evaluators.push((
                    enclosing_fn(&code, at).to_string(),
                    body.contains(".apply("),
                ));
            }
        }
    }
    assert_eq!(evaluators, [("affine_in".to_string(), true)]);
}

#[test]
fn the_ir_is_walked_in_one_place() {
    // DESIGN §2.1: `xdp_ir::walk` alone knows the children of a node. The
    // recursive cases of the expression types are the tell: outside the IR
    // crate and the three consumers of a node's meaning (parser, run-time
    // evaluator, bytecode compiler), no non-test source has a match arm on
    // one. Building one is fine.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let exempt = [
        "crates/ir/src",
        "crates/lang/src/parser.rs",
        "crates/core/src/env.rs",
        "crates/vm/src/compile.rs",
    ]
    .map(|p| root.join(p));
    let recursive = [
        "IntExpr::Bin(",
        "IntExpr::Neg(",
        "ElemExpr::Bin(",
        "ElemExpr::Neg(",
    ];
    for path in sources() {
        if in_tests(&path) || exempt.iter().any(|e| path.starts_with(e)) {
            continue;
        }
        let code = code_of(&path);
        for head in recursive {
            for (at, _) in code.match_indices(head) {
                // The pattern's closing parenthesis, then what follows it.
                let mut depth = 0;
                let close = code[at..].find(|c| {
                    depth += (c == '(') as i32 - (c == ')') as i32;
                    c == ')' && depth == 0
                });
                let after = code[at + close.expect("balanced") + 1..].trim_start();
                let before = code[..at].trim_end();
                let arm =
                    after.starts_with("=>") || after.starts_with('|') || before.ends_with('|');
                assert!(
                    !arm,
                    "{}, fn {}: a match arm on {head}..): walk the IR with xdp_ir::walk",
                    path.display(),
                    enclosing_fn(&code, at)
                );
            }
        }
    }
    // The second statement substitution, the second IR and the two knobs
    // nobody set stay deleted (spelled in halves: this file is scanned too).
    let gone = ["fn subst", "_stmt"].concat();
    for path in sources() {
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains(&gone), "{}: defines {gone}", path.display());
    }
    assert_named_only_by_the_alias_block(&[
        ["Seq", "Program"].concat(),
        ["Seq", "Stmt"].concat(),
        ["Frontend", "Options"].concat(),
        ["Calib", "ration"].concat(),
    ]);
}

/// The name of the function whose body holds byte `at` of `code`.
fn enclosing_fn(code: &str, at: usize) -> &str {
    let name = &code[code[..at].rfind("fn ").expect("inside a function") + 3..];
    &name[..name.find(['(', '<']).expect("a parameter list")]
}

#[test]
fn the_serve_layer_compiles_and_run_traced_renders_in_one_place() {
    let mut compile_sites = Vec::new();
    for path in sources() {
        if !path.to_string_lossy().contains("crates/serve/src") {
            continue;
        }
        let code = code_of(&path);
        // A call of anything named `compile`, by any path;
        // `get_or_compile(` and `fold_compile(` are other words.
        for (at, _) in code.match_indices("compile(") {
            if code[..at].ends_with(|c: char| c == '_' || c.is_alphanumeric()) {
                continue;
            }
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            compile_sites.push((file, enclosing_fn(&code, at).to_string()));
        }
    }
    assert_eq!(
        compile_sites,
        [("cache.rs".to_string(), "build".to_string())],
        "the flight's `CachedProgram::build` is the serve layer's only call into the compiler"
    );

    let passes = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/compiler/src/passes/mod.rs");
    let code = code_of(&passes);
    let renders: Vec<&str> = code
        .match_indices("stmt_table(")
        .map(|(at, _)| enclosing_fn(&code, at))
        .collect();
    assert!(
        (1..=2).contains(&renders.len()) && renders.iter().all(|f| *f == "run_traced"),
        "passes/mod.rs renders the statement table in {renders:?}; want the up-front render \
         and the per-pass `after`, both in run_traced"
    );
}

#[test]
fn a_request_is_fully_traced_only_for_a_flight_recorder() {
    // A fingerprint reads the movement record (`TraceConfig::movement()`);
    // whoever asks the serve layer for more must be a reader of it.
    let mut full = Vec::new();
    for path in sources() {
        if !path.to_string_lossy().contains("crates/serve/src") {
            continue;
        }
        let code = code_of(&path);
        for (at, _) in code.match_indices("TraceConfig::full()") {
            let file = path.file_name().unwrap().to_string_lossy().into_owned();
            let guarded = code[..at]
                .trim_end()
                .ends_with("if self.flight.is_some() {");
            full.push((file, enclosing_fn(&code, at).to_string(), guarded));
        }
    }
    assert!(
        full.len() <= 1 && full.iter().all(|(.., guarded)| *guarded),
        "crates/serve/src asks for TraceConfig::full() at {full:?}; want at most one site, \
         directly behind `if self.flight.is_some()`"
    );
}

#[test]
fn the_collectives_crate_never_moves_a_message() {
    // It builds, prices and lowers schedules; a schedule's data moves only
    // as the Figure 1 statements `lower_redistribute_for_pid` emits, on
    // the machine that runs every other statement.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/collectives/src");
    let names = ["SimNet", "ThreadNet", "Msg", "Tag::", "trait Net"];
    for path in sources().iter().filter(|p| p.starts_with(&src)) {
        let text = std::fs::read_to_string(path).unwrap();
        for name in names {
            assert!(!text.contains(name), "{}: names {name}", path.display());
        }
    }
}

#[test]
fn benchmark_is_the_only_performance_record() {
    // Spelled in halves so this file passes its own scan. The vendored
    // micro-benchmark crate is a proper noun in prose and a dependency
    // name in manifests; the English common noun is not its name.
    let everywhere = [
        ["BENCH_", "serve.json"].concat(),
        ["bench_", "check"].concat(),
        ["bench_", "output.txt"].concat(),
        ["trajectory", "::"].concat(),
        ["Crit", "erion"].concat(),
        ["crit", "erion::"].concat(),
    ];
    let in_manifests = ["crit", "erion"].concat();
    // The history files, and the DESIGN section that records the deletion.
    let history = ["CHANGES.md", "ROADMAP.md", "ISSUE.md"];
    for path in checkout_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if history.contains(&name.as_str()) {
            continue;
        }
        let mut text = String::from_utf8_lossy(&std::fs::read(&path).unwrap()).into_owned();
        if name == "DESIGN.md" {
            let at = text.find("### 2.21").expect("DESIGN has a section 2.21");
            let len = text[at..].find("\n## ").expect("a section follows 2.21");
            text.replace_range(at..at + len, "");
        }
        let manifest = name == "Cargo.toml" || name == "Cargo.lock";
        for needle in everywhere.iter().chain(manifest.then_some(&in_manifests)) {
            assert!(
                !text.contains(needle.as_str()),
                "{}: names `{needle}`, a second performance record (DESIGN 2.21)",
                path.display()
            );
        }
    }
}

/// The `(crate, name)` pairs `text` reaches into the workspace for:
/// `xdp_c::path::Name`, `xdp_c::module::function` and every item of a
/// `use xdp_c::{..}` group. A path is followed through its modules to the
/// first type, trait or function; what hangs off a type (`::new`, a
/// variant) is that type's own business.
fn imported_names(text: &str) -> Vec<(String, String)> {
    let ident = |s: &str| -> usize {
        s.find(|c: char| c != '_' && !c.is_alphanumeric())
            .unwrap_or(s.len())
    };
    let mut out = Vec::new();
    for (at, _) in text.match_indices("xdp_") {
        if text[..at].ends_with(|c: char| c == '_' || c.is_alphanumeric()) {
            continue;
        }
        let krate = &text[at..at + ident(&text[at..])];
        let mut rest = &text[at + krate.len()..];
        while let Some(path) = rest.strip_prefix("::") {
            if let Some(group) = path.strip_prefix('{') {
                let group = &group[..group.find('}').expect("a use group closes")];
                assert!(!group.contains('{'), "nested use group: teach this scan");
                for item in group.split(',').map(str::trim) {
                    let name = &item[..ident(item)];
                    if !name.is_empty() && name != "self" {
                        out.push((krate.to_string(), name.to_string()));
                    }
                }
                break;
            }
            let name = &path[..ident(path)];
            out.push((krate.to_string(), name.to_string()));
            if name.starts_with(|c: char| c.is_uppercase()) {
                break;
            }
            rest = &path[name.len()..];
        }
    }
    out
}

#[test]
fn every_name_the_benchmark_imports_is_still_exported() {
    // `cargo test` at the root never compiles `benchmark/` (its own
    // workspace), so a renamed export would surface only when the pipeline
    // builds it. Read-only on `benchmark/`.
    assert_eq!(
        imported_names("use xdp_core::{\n  Action, sim as s, self};\nxdp_vm::VmProgram::compile(p); xdp_ir::pretty::program(q)"),
        [
            ("xdp_core", "Action"),
            ("xdp_core", "sim"),
            ("xdp_vm", "VmProgram"),
            ("xdp_ir", "pretty"),
            ("xdp_ir", "program"),
        ]
        .map(|(c, n)| (c.to_string(), n.to_string()))
    );
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    // Every name a crate's sources make public: items, and whatever a
    // `pub use` statement mentions.
    let exports = |krate: &str| -> Vec<String> {
        let dir = root.join("crates").join(&krate["xdp_".len()..]).join("src");
        assert!(
            dir.is_dir(),
            "benchmark/ imports {krate}: no {}",
            dir.display()
        );
        let mut names = Vec::new();
        for path in sources().iter().filter(|p| p.starts_with(&dir)) {
            let code = code_of(path);
            for (at, _) in code.match_indices("pub ") {
                let decl = &code[at + 4..];
                let words: Vec<&str> = if decl.starts_with("use ") {
                    let stmt = &decl[..decl.find(';').expect("a use statement ends")];
                    stmt.split(|c: char| c != '_' && !c.is_alphanumeric())
                        .collect()
                } else {
                    let kinds = [
                        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
                    ];
                    let mut words = decl.split(|c: char| c != '_' && !c.is_alphanumeric());
                    match words.next() {
                        Some(kind) if kinds.contains(&kind) => words.take(1).collect(),
                        _ => Vec::new(),
                    }
                };
                names.extend(words.into_iter().map(str::to_string));
            }
        }
        names
    };
    let mut exported = std::collections::BTreeMap::new();
    let mut checked = 0;
    for dir in ["benchmark/src", "benchmark/tests"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("benchmark/ is in the checkout") {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|x| x != "rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let code: Vec<&str> = text
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .collect();
            for (krate, name) in imported_names(&code.join("\n")) {
                let names = exported
                    .entry(krate.clone())
                    .or_insert_with(|| exports(&krate));
                assert!(
                    names.contains(&name),
                    "{}: imports {krate}::{name}, which crates/{}/src no longer exports",
                    path.display(),
                    &krate["xdp_".len()..]
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 80, "the scan found only {checked} imported names");
}

/// Parse `argv` as the binary `bin` would, if it is one of the four whose
/// options the table declares.
fn parses(bin: &str, argv: &[String]) -> Option<bool> {
    let parsed = match bin {
        "xdpc" => cli::XDPC.parse(argv),
        "xdpd" => cli::XDPD.parse(argv),
        "e14_metrics" => Args::parse("e14_metrics", &cli::E14_METRICS, argv),
        "e17_membound" => Args::parse("e17_membound", &cli::E17_MEMBOUND, argv),
        _ => return None,
    };
    Some(parsed.is_ok())
}

#[test]
fn every_binary_the_makefile_and_ci_invoke_exists() {
    // ...and every command line they, the README, the tutorial and the
    // verify skill give one of the table's four binaries parses against it.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut checked, mut parsed) = (0, 0);
    for file in [
        "Makefile",
        ".github/workflows/ci.yml",
        "README.md",
        "docs/TUTORIAL.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        // One command per element: continuation lines joined, `;` split.
        let text = std::fs::read_to_string(root.join(file))
            .unwrap()
            .replace("\\\n", " ");
        let mut loop_words: Vec<String> = Vec::new();
        for command in text.split(['\n', ';']) {
            let words: Vec<&str> = command.split_whitespace().collect();
            if let Some(at) = words
                .iter()
                .position(|w| w.trim_start_matches('@') == "for")
            {
                // `for b in w1 w2 ...`: the names a later `$$b` stands for.
                let names = words.get(at + 3..).unwrap_or_default();
                loop_words = names.iter().map(|w| w.to_string()).collect();
            }
            let after = |flag: &str| {
                let at = words.iter().position(|w| *w == flag)?;
                words.get(at + 1).copied()
            };
            // The binary's own words: after `--bin NAME --`, or after a
            // path to a built `xdpc`/`xdpd`; up to a comment, pipe or
            // redirection, quotes dropped.
            let direct = words.iter().position(|w| w.contains("/release/xdp"));
            let invoked = match (direct, after("--bin")) {
                (Some(at), _) => Some((words[at].rsplit('/').next().unwrap(), at + 1)),
                (None, Some(bin)) if words.contains(&"cargo") => {
                    let dashes = words.iter().position(|w| *w == "--");
                    Some((bin, dashes.map_or(words.len(), |at| at + 1)))
                }
                _ => None,
            };
            if let Some((bin, from)) = invoked {
                let argv: Vec<String> = words[from..]
                    .iter()
                    .take_while(|w| !w.starts_with(['#', '|', '>']))
                    .map(|w| w.replace('"', ""))
                    .collect();
                if let Some(ok) = parses(bin, &argv) {
                    assert!(ok, "{file}: `{bin} {}` is refused", argv.join(" "));
                    parsed += 1;
                }
            }
            if !words.contains(&"cargo") {
                continue;
            }
            // `-p xdp-foo` is `crates/foo`; no `-p` is the root package.
            let package = match after("-p") {
                Some(p) => root
                    .join("crates")
                    .join(p.strip_prefix("xdp-").unwrap_or(p)),
                None => root.to_path_buf(),
            };
            for (flag, dir) in [("--bin", "src/bin"), ("--example", "examples")] {
                let Some(name) = after(flag) else { continue };
                let names = match name.strip_prefix("$$") {
                    Some(_) => loop_words.clone(),
                    None => vec![name.to_string()],
                };
                assert!(!names.is_empty(), "{file}: `{command}` names no target");
                for name in names {
                    let source = package.join(dir).join(format!("{name}.rs"));
                    assert!(
                        source.exists(),
                        "{file}: `{flag} {name}` has no {}",
                        source.display()
                    );
                    checked += 1;
                }
            }
        }
    }
    // `make compile-scale` (no compile-time cliff, DESIGN §2.1) is a shell
    // recipe around `xdpc opt`, parsed above like any other; CI runs it.
    let read = |file: &str| std::fs::read_to_string(root.join(file)).unwrap();
    assert!(read("Makefile").contains("\ncompile-scale:\n"));
    assert!(read(".github/workflows/ci.yml").contains("run: make compile-scale\n"));
    // `make layer-rows W=<workload>` (the profile that names the layer,
    // ROADMAP aim 1) filters the benchmark's traced smoke run; it gates
    // nothing, and the verify skill says how to read it.
    assert!(read("Makefile").contains("\nlayer-rows:\n"));
    assert!(read(".claude/skills/verify/SKILL.md").contains("make layer-rows W="));
    // `make src-lines` (non-test source lines per crate, the count a
    // simplification is held to) is plain shell; the skill names it.
    assert!(read("Makefile").contains("\nsrc-lines:\n"));
    assert!(read(".claude/skills/verify/SKILL.md").contains("make src-lines"));
    assert!(checked > 30, "the scan found only {checked} invocations");
    assert!(parsed > 50, "the scan parsed only {parsed} command lines");
}

#[test]
fn the_command_line_is_declared_and_read_in_one_place() {
    let table = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/compiler/src/cli.rs");
    // An option's spelling is a `"--word"` literal. Outside the table no
    // non-test source holds one, or walks an argv by hand; `examples/`
    // take positional numbers and no options.
    let spellings = |code: &str| -> Vec<String> {
        let literals = code.match_indices("\"--").filter_map(|(at, _)| {
            let rest = &code[at + 1..];
            let literal = &rest[..rest.find('"')?];
            let word = &literal[2..];
            let spelled = word.starts_with(|c: char| c.is_ascii_lowercase())
                && word.chars().all(|c| c == '-' || c.is_ascii_lowercase());
            spelled.then(|| literal.to_string())
        });
        literals.collect()
    };
    for path in sources() {
        if in_tests(&path)
            || path == table
            || path.components().any(|c| c.as_os_str() == "examples")
        {
            continue;
        }
        let code = code_of(&path);
        assert_eq!(spellings(&code), [""; 0], "{}", path.display());
        for by_hand in [".position(|a| a ==", "args.get(", "argv.get(", "argv["] {
            assert!(
                !code.contains(by_hand),
                "{}: reads the command line with `{by_hand}`",
                path.display()
            );
        }
    }
    // Inside it each spelling is declared once, and some command takes it.
    let mut declared = spellings(&code_of(&table));
    declared.retain(|s| s != "--help");
    declared.sort_unstable();
    let tools = [cli::XDPC.commands, cli::XDPD.commands];
    let rows = tools.into_iter().flatten();
    let rows = rows.chain([&cli::E14_METRICS, &cli::E17_MEMBOUND]);
    let mut taken: Vec<&str> = rows.flat_map(|c| c.options()).map(|o| o.name).collect();
    taken.sort_unstable();
    taken.dedup();
    assert_eq!(declared, taken);
}
