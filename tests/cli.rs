//! End-to-end tests of the `xdpc` command-line driver and the `xdpd`
//! serving daemon against the sample programs in `xdp-programs/`.

use std::process::Command;
use xdp_compiler::cli;

/// Run one of the two binaries; stdout, stderr and the raw exit code (a
/// usage error is 2, a failure 1).
fn spawn(exe: &str, args: &[&str]) -> (String, String, i32) {
    let out = Command::new(exe)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("spawn the binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("exit code"),
    )
}

fn xdpc_code(args: &[&str]) -> (String, String, i32) {
    spawn(env!("CARGO_BIN_EXE_xdpc"), args)
}

fn xdpd_code(args: &[&str]) -> (String, String, i32) {
    spawn(env!("CARGO_BIN_EXE_xdpd"), args)
}

fn xdpc(args: &[&str]) -> (String, String, bool) {
    let (stdout, stderr, code) = xdpc_code(args);
    (stdout, stderr, code == 0)
}

#[test]
fn check_parses_and_prints() {
    let (stdout, _, ok) = xdpc(&["check", "xdp-programs/simple.xdp"]);
    assert!(ok);
    assert!(stdout.contains("T[mypid] <- B[i]"), "{stdout}");
    assert!(stdout.contains("await(T[mypid]) : {"), "{stdout}");
}

#[test]
fn run_simple_reports_traffic() {
    let (stdout, _, ok) = xdpc(&["run", "xdp-programs/simple.xdp"]);
    assert!(ok);
    assert!(stdout.contains("messages 16"), "{stdout}");
    assert!(stdout.contains("procs 4"), "{stdout}");
}

#[test]
fn run_migration_gathers_new_owners() {
    let (stdout, _, ok) = xdpc(&["run", "xdp-programs/migration.xdp", "--gather", "A"]);
    assert!(ok);
    // A[1] follows B (cyclic): owner p0, value 1 + 1 = 2.
    assert!(stdout.contains("A[1] =       2.0000   (p0)"), "{stdout}");
    assert!(stdout.contains("A[2] =       4.0000   (p1)"), "{stdout}");
}

#[test]
fn opt_reduces_messages_when_rerun() {
    let (optimized, stderr, ok) = xdpc(&["opt", "xdp-programs/simple.xdp"]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("vectorize-messages: changed"), "{stderr}");
    // The optimized text is itself valid input: write and run it.
    let dir = std::env::temp_dir().join("xdpc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("opt.xdp");
    std::fs::write(&path, &optimized).unwrap();
    let (stdout, stderr2, ok2) = xdpc(&["run", path.to_str().unwrap()]);
    assert!(ok2, "{stderr2}");
    // 12 section messages instead of 16 element messages.
    assert!(stdout.contains("messages 12"), "{stdout}");
}

#[test]
fn run_fft_listing() {
    let (stdout, _, ok) = xdpc(&["run", "xdp-programs/fft3d.xdp"]);
    assert!(ok);
    assert!(stdout.contains("messages 16"), "{stdout}");
}

#[test]
fn errors_are_reported() {
    let dir = std::env::temp_dir().join("xdpc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.xdp");
    std::fs::write(&bad, "real A[1:4] distribute (WAT) onto 2\n").unwrap();
    let (_, stderr, ok) = xdpc(&["check", bad.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("unknown distribution"), "{stderr}");
}

#[test]
fn lower_translates_sequential_source() {
    let (stdout, _, ok) = xdpc(&["lower", "xdp-programs/seq_sum.xdp"]);
    assert!(ok);
    assert!(stdout.contains("iown(B[i]) : {"), "{stdout}");
    assert!(stdout.contains("_T0[mypid] <- B[i]"), "{stdout}");
    // Lowered output is valid input for `opt` and `run`.
    let dir = std::env::temp_dir().join("xdpc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lowered.xdp");
    std::fs::write(&path, &stdout).unwrap();
    let (out2, _, ok2) = xdpc(&["run", path.to_str().unwrap()]);
    assert!(ok2);
    assert!(out2.contains("messages 16"), "{out2}");
}

#[test]
fn lower_rejects_xdp_constructs() {
    let (_, stderr, ok) = xdpc(&["lower", "xdp-programs/migration.xdp"]);
    assert!(!ok);
    assert!(stderr.contains("not a sequential statement"), "{stderr}");
}

#[test]
fn plan_prints_strategy_table_and_schedule() {
    let (stdout, stderr, ok) = xdpc(&["plan", "xdp-programs/remap.xdp"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("== redistribution plans =="), "{stdout}");
    assert!(stdout.contains("staged-bruck"), "{stdout}");
    assert!(stdout.contains("<-"), "{stdout}");
    assert!(stdout.contains("schedule: 8 procs"), "{stdout}");
}

#[test]
fn place_reports_advisory_for_hand_migrated_fft() {
    // The paper's §4 listing migrates ownership by hand (`-=>`/`<=-`):
    // the search reports a placement but must not rewrite the program.
    let (stdout, stderr, ok) = xdpc(&["place", "xdp-programs/fft3d.xdp"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("anchor A group [A] on 4 procs"), "{stdout}");
    assert!(stdout.contains("== placement choices =="), "{stdout}");
    assert!(stdout.contains("placement is advisory"), "{stdout}");
    // So are SPMD programs whose text pins the arrays — `mypid` guards,
    // bounds taken outside a loop header, explicit sends and receives:
    // the note names the array, the clause and the statement, and the
    // input still runs.
    for (file, array, clause) in [
        ("jacobi2d", "U", "names mypid"),
        ("pipeline", "DST", "names mypid"),
        ("fft3d", "A", "moved by an ownership transfer"),
    ] {
        let (stdout, stderr, ok) = xdpc(&["place", &format!("xdp-programs/{file}.xdp")]);
        assert!(ok, "{file}: {stderr}");
        let note = stdout
            .lines()
            .find(|l| l.starts_with("placement is advisory: "));
        let note = note.unwrap_or_else(|| panic!("{file}: {stdout}"));
        assert!(note.contains(&format!(": {array} ")), "{file}: {note}");
        assert!(
            note.contains(clause) && note.contains("in statement "),
            "{file}: {note}"
        );
    }
}

#[test]
fn place_follows_the_compile_path() {
    // A sequential source is placed before it is lowered, as a placed
    // compile does: the search reads the source, both programs run, and
    // `--emit` prints the placed sequential source.
    for file in ["seq_sum", "nested-shadowed-do-loop"] {
        let dir = if file == "seq_sum" {
            "xdp-programs"
        } else {
            "crates/verify/corpus"
        };
        let (stdout, stderr, ok) = xdpc(&["place", &format!("{dir}/{file}.xdp")]);
        assert!(ok, "{file}: {stderr}");
        assert!(
            stdout.contains("simulated input program"),
            "{file}: {stdout}"
        );
    }
    let (stdout, _, _) = xdpc(&["place", "xdp-programs/seq_sum.xdp", "--emit"]);
    assert!(stdout.contains("simulated placed program"), "{stdout}");
    assert!(
        stdout.contains("A[i] = (A[i] + B[i])"),
        "the sequential source: {stdout}"
    );
}

#[test]
fn place_rewrites_two_phase_sweep_and_emits_valid_input() {
    let (stdout, stderr, ok) = xdpc(&["place", "xdp-programs/twophase.xdp", "--emit"]);
    assert!(ok, "{stderr}");
    // Both phases chosen and the transpose re-derived at the boundary.
    assert!(stdout.contains("simulated placed program"), "{stdout}");
    assert!(
        stdout.contains("redistribute A (BLOCK,*) onto 4"),
        "{stdout}"
    );
    // The emitted program (after the report) is itself valid xdpc input.
    let emitted = &stdout[stdout.find("real A").expect("emitted program")..];
    let dir = std::env::temp_dir().join("xdpc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("placed.xdp");
    std::fs::write(&path, emitted).unwrap();
    let (out2, err2, ok2) = xdpc(&["run", path.to_str().unwrap()]);
    assert!(ok2, "{err2}");
    assert!(out2.contains("procs 4"), "{out2}");
}

#[test]
fn place_fails_when_no_placement_is_legal() {
    let (_, stderr, ok) = xdpc(&["place", "xdp-programs/remap.xdp"]);
    assert!(!ok);
    assert!(stderr.contains("no compute"), "{stderr}");
}

#[test]
fn tune_picks_a_middle_segment_shape() {
    let (stdout, stderr, ok) = xdpc(&[
        "tune",
        "xdp-programs/pipeline.xdp",
        "--array",
        "DST",
        "--segments",
        "1,16,64,256",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("<- best"), "{stdout}");
    // Neither extreme wins: the serialized whole-half segment and the
    // scan-heavy unit segment both lose to a middle shape.
    for line in stdout.lines() {
        if line.contains("<- best") {
            let seg = line.split_whitespace().next().unwrap();
            assert!(seg == "16" || seg == "64", "unexpected best: {line}");
        }
    }
}

#[test]
fn integer_division_by_zero_is_a_runtime_error_not_a_panic() {
    // A constant zero divisor (which the compile-time folders meet first)
    // and one only known at run time.
    let dir = std::env::temp_dir().join("xdpc_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (file, bound) in [("divzero_const.xdp", "8/0"), ("divzero_var.xdp", "8 % k")] {
        let path = dir.join(file);
        let source = format!(
            "real A[1:8] distribute (BLOCK) onto 2\n\nk = 0\ndo i = 1, {bound}\n  \
             iown(A[i]) : {{ A[i] = A[i] + 1.0 }}\nenddo\n"
        );
        std::fs::write(&path, source).unwrap();
        let path = path.to_str().unwrap();
        for flags in [
            &[][..],
            &["--backend", "vm"],
            &["--optimize"],
            &["--optimize", "--backend", "vm"],
        ] {
            let (_, stderr, code) = xdpc_code(&[&["run", path], flags].concat());
            assert_eq!(code, 1, "{bound} {flags:?}: {stderr}");
            assert_eq!(
                stderr, "xdpc: runtime error: division by zero\n",
                "{bound} {flags:?}"
            );
        }
        // Nothing runs under `opt`: the passes decline to fold the
        // division and the program comes back out.
        let (stdout, stderr, code) = xdpc_code(&["opt", path]);
        assert_eq!(code, 0, "{bound}: {stderr}");
        assert!(stdout.contains("do i = 1,"), "{bound}: {stdout}");
    }
    // A zero divisor inside a *subscript*, where the per-processor
    // evaluators of `fuse-loops` and `sink-await` used to divide for
    // themselves: every registered pass prints a program that still
    // holds the division, and each of the two prints its own back
    // unchanged, saying why.
    let fuse = "real A[1:8] distribute (BLOCK) onto 2\n\n\
                do i = 1, 8\n  iown(A[i]) : { A[i] = A[i] + 1.0 }\nenddo\n\
                do i = 1, 8\n  iown(A[i]) : { A[i] = A[i] + A[i / 0] }\nenddo\n";
    let sink = "complex A[1:4,1:4,1:4] distribute (*,BLOCK,*) onto 4\n\n\
                await(A[*,mypid+1,*]) : {\n  do i = 1, 4\n    \
                fft1d(A[i / 0,mypid+1,*])\n  enddo\n}\n";
    for (file, source, divider) in [
        ("divzero_fuse.xdp", fuse, "fuse-loops"),
        ("divzero_sink.xdp", sink, "sink-await"),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, source).unwrap();
        let path = path.to_str().unwrap();
        let printed_back = xdpc_code(&["check", path]).0;
        for pass in xdp_compiler::passes::registry() {
            let (stdout, stderr, code) = xdpc_code(&["opt", path, "--passes", pass.name()]);
            assert_eq!(code, 0, "{file} under {}: {stderr}", pass.name());
            assert!(stdout.contains("(i / 0)"), "{file} under {}", pass.name());
            if pass.name() == divider {
                assert_eq!(stdout, printed_back, "{file}");
                assert!(stderr.contains(": declined "), "{file}: {stderr}");
            }
        }
    }
}

/// A kernel handed the wrong sections is a runtime error naming the
/// kernel on both backends, exit 1, as an unknown kernel is; never a panic.
#[test]
fn a_kernel_call_with_the_wrong_sections_is_a_runtime_error() {
    let dir = std::env::temp_dir().join("xdpc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let mine = "A[mylb(A[*],1):myub(A[*],1)]";
    for (file, call, says) in [
        (
            "kernel_fft1d_real.xdp",
            format!("fft1d({mine})"),
            "p0: kernel `fft1d` needs a complex section, given a real one",
        ),
        (
            "kernel_copy_one.xdp",
            format!("copy({mine})"),
            "p0: kernel `copy` takes (dst, src), given 1 section",
        ),
        (
            "kernel_scale_none.xdp",
            "scale(2)".to_string(),
            "p0: kernel `scale` takes (X, k), given 0 sections",
        ),
        (
            "kernel_unknown.xdp",
            format!("nosuch({mine})"),
            "unknown kernel `nosuch`",
        ),
    ] {
        let path = dir.join(file);
        let source = format!("real A[1:8] distribute (BLOCK) onto 2\n{call}\n");
        std::fs::write(&path, source).unwrap();
        let path = path.to_str().unwrap();
        for backend in ["interp", "vm"] {
            let (_, stderr, code) = xdpc_code(&["run", path, "--backend", backend]);
            assert_eq!(code, 1, "{call} on {backend}: {stderr}");
            assert_eq!(
                stderr,
                format!("xdpc: runtime error: {says}\n"),
                "{call} on {backend}"
            );
        }
    }
}

#[test]
fn no_arguments_prints_usage_naming_every_command() {
    let (_, stderr, code) = xdpc_code(&[]);
    assert_eq!(code, 2);
    assert!(stderr.starts_with("usage: xdpc <"), "{stderr}");
    for cmd in [
        "check", "lower", "opt", "run", "trace", "tune", "plan", "place", "fuzz",
    ] {
        assert!(
            stderr.lines().any(|l| l.trim_start().starts_with(cmd)),
            "usage missing `{cmd}`:\n{stderr}"
        );
    }
}

#[test]
fn unknown_command_and_missing_file_are_usage_errors() {
    let (_, stderr, code) = xdpc_code(&["frobnicate", "x.xdp"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    // File-taking command without a file: usage, not a crash.
    let (_, stderr, code) = xdpc_code(&["run"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_file_is_one_diagnostic_and_exit_2_everywhere() {
    // Every file-taking subcommand reports a missing or unreadable
    // program file with the same diagnostic and usage-class exit code 2.
    for cmd in [
        "check", "lower", "opt", "run", "trace", "tune", "plan", "place",
    ] {
        let (_, stderr, code) = xdpc_code(&[cmd, "xdp-programs/does-not-exist.xdp"]);
        assert_eq!(code, 2, "{cmd}: {stderr}");
        assert!(
            stderr.contains("xdpc: error: cannot read xdp-programs/does-not-exist.xdp"),
            "{cmd}: {stderr}"
        );
    }
    // Unreadable (a directory, not a file) gets the same treatment.
    let (_, stderr, code) = xdpc_code(&["run", "xdp-programs"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(
        stderr.contains("xdpc: error: cannot read xdp-programs"),
        "{stderr}"
    );
}

#[test]
fn bad_fault_specs_exit_2_everywhere() {
    for cmd in ["run", "trace"] {
        let (_, stderr, code) =
            xdpc_code(&[cmd, "xdp-programs/simple.xdp", "--faults", "drop=banana"]);
        assert_eq!(code, 2, "{cmd}: {stderr}");
        assert!(stderr.contains("bad --faults spec"), "{cmd}: {stderr}");
    }
    // `fuzz` takes no file but the same spec syntax.
    let (_, stderr, code) = xdpc_code(&["fuzz", "--count", "1", "--faults", "nope=1"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("bad --faults spec"), "{stderr}");
    // Hostile values are refused by name, not run: an infinite delay
    // panicked every task-machine worker, and three million retries of a
    // dropped message ran past a minute.
    for spec in ["delayp=1,delay=inf", "rto=inf", "drop=1,retries=3000000"] {
        let (_, stderr, code) = xdpc_code(&["run", "xdp-programs/simple.xdp", "--faults", spec]);
        assert_eq!(code, 2, "{spec}: {stderr}");
        assert!(stderr.contains("bad --faults spec"), "{spec}: {stderr}");
    }
}

#[test]
fn a_topology_is_parsed_whole_and_checked_against_the_machine() {
    // `4x0` used to divide by zero (exit 101), `2xbananax4` was read as
    // `2x4`, and meshes too small for the 8-processor program were priced
    // for pids with no coordinates.
    let remap = "xdp-programs/remap.xdp";
    for cmd in ["plan", "place"] {
        for (bad, why) in [
            ("4x0", "mesh 4x0 addresses 0 processors"),
            ("0x4", "mesh 0x4 addresses 0 processors"),
            ("1x1", "pids 1..7 would fall off the interconnect"),
            ("2xbananax4", "`2xbananax4` is not uniform, linear, or RxC"),
            ("donut", "`donut` is not uniform, linear, or RxC"),
        ] {
            let (_, stderr, code) = xdpc_code(&[cmd, remap, "--topo", bad]);
            assert_eq!(code, 2, "{cmd} --topo {bad}: {stderr}");
            assert!(stderr.starts_with("xdpc: bad --topo: "), "{stderr}");
            assert!(stderr.contains(why), "{cmd} --topo {bad}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{stderr}");
        }
    }
    // Eight processors fit a 3x3 mesh with a slot to spare, as they fit
    // 2x4 exactly: `Topology::validate` refuses only what falls off.
    let price = |topo: &str| {
        let (stdout, stderr, code) = xdpc_code(&["plan", remap, "--topo", topo]);
        assert_eq!(code, 0, "--topo {topo}: {stderr}");
        stdout
    };
    let [uniform, linear, exact, spare] = ["uniform", "linear", "2x4", "3x3"].map(price);
    assert!(
        uniform != linear && linear != exact && exact != spare,
        "distance is priced"
    );
    let (default, _, _) = xdpc_code(&["plan", remap]);
    assert_eq!(default, uniform);
}

#[test]
fn bad_mem_budget_is_one_line_and_exit_2_everywhere() {
    // Malformed and zero budgets are usage errors on every subcommand
    // that takes the flag: exactly one diagnostic line, exit code 2.
    for (cmd, file) in [
        ("plan", Some("xdp-programs/membound.xdp")),
        ("place", Some("xdp-programs/twophase.xdp")),
        ("run", Some("xdp-programs/simple.xdp")),
        ("fuzz", None),
    ] {
        for bad in ["banana", "0", "12q", "-5"] {
            let mut args = vec![cmd];
            args.extend(file);
            args.extend(["--mem-budget", bad]);
            let (_, stderr, code) = xdpc_code(&args);
            assert_eq!(code, 2, "{cmd} --mem-budget {bad}: {stderr}");
            assert_eq!(
                stderr.lines().count(),
                1,
                "{cmd} --mem-budget {bad}: {stderr}"
            );
            assert!(
                stderr.contains(&format!("bad --mem-budget `{bad}`")),
                "{cmd}: {stderr}"
            );
        }
    }
}

#[test]
fn a_machine_of_zero_processors_is_a_compile_error() {
    // `--procs 0` used to print a report for an empty machine; through
    // `xdpd` it panicked a pool worker (exit 101).
    for cmd in ["run", "trace"] {
        for backend in ["interp", "vm"] {
            let args = [cmd, "xdp-programs/simple.xdp", "--procs", "0"];
            let (stdout, stderr, code) = xdpc_code(&[&args[..], &["--backend", backend]].concat());
            assert_eq!(code, 1, "{cmd} {backend}: {stderr}");
            assert_eq!(
                stderr, "xdpc: machine size must be at least 1\n",
                "{cmd} {backend}"
            );
            assert_eq!(
                stdout, "",
                "{cmd} {backend}: no report for a machine that never ran"
            );
        }
    }
}

#[test]
fn a_machine_larger_than_an_arrays_grid_is_a_compile_error() {
    // `pipeline.xdp` declares its arrays `onto 2`: on three processors the
    // symbol table of p2 asked for p2's part of them and panicked (exit
    // 101). It runs on one or two.
    for procs in ["1", "2"] {
        let args = ["run", "xdp-programs/pipeline.xdp", "--procs", procs];
        let (_, stderr, code) = xdpc_code(&args);
        assert_eq!(code, 0, "--procs {procs}: {stderr}");
    }
    for cmd in ["run", "trace"] {
        let args = [cmd, "xdp-programs/pipeline.xdp", "--procs", "3"];
        let (stdout, stderr, code) = xdpc_code(&args);
        assert_eq!(code, 1, "{cmd}: {stderr}");
        let grid = "xdpc: a machine of 3 processors is larger than SRC's grid (onto 2)\n";
        assert_eq!(stderr, grid, "{cmd}");
        assert_eq!(stdout, "", "{cmd}: no report for a machine that never ran");
    }
    let (_, stderr, code) = xdpd_code(&["run", "xdp-programs/pipeline.xdp", "--procs", "3"]);
    assert_eq!(code, 1, "xdpd: {stderr}");
    assert!(
        stderr.contains("larger than SRC's grid (onto 2)"),
        "{stderr}"
    );
}

#[test]
fn a_program_nested_too_deep_is_a_parse_error_not_a_stack_overflow() {
    // 20 000 nested parentheses overflowed the parser's stack, and a flat
    // chain of 200 000 additions, which the parser builds without
    // recursing, overflowed the walks after it: both aborted (exit 134).
    // The parser bounds the depth of the tree it builds.
    let decl = "real A[1:4] distribute (BLOCK) onto 4\n";
    let parens = format!(
        "{decl}A[1] = {}1.0{}\n",
        "(".repeat(20_000),
        ")".repeat(20_000)
    );
    let chain = format!("{decl}A[1] = 1.0{}\n", " + 1.0".repeat(199_999));
    let said = "parse error at line 2: nested deeper than 256 levels";
    let dir = std::env::temp_dir().join("xdpc_test");
    std::fs::create_dir_all(&dir).unwrap();
    for (file, source, cmd) in [
        ("deep_parens.xdp", &parens, "check"),
        ("deep_chain.xdp", &chain, "run"),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, source).unwrap();
        let path = path.to_str().unwrap();
        let (stdout, stderr, code) = xdpc_code(&[cmd, path]);
        assert_eq!(
            (code, stdout.as_str()),
            (1, ""),
            "xdpc {cmd} {file}: {stderr}"
        );
        assert_eq!(
            stderr,
            format!("xdpc: {path}: {said}\n"),
            "xdpc {cmd} {file}"
        );
        let (_, stderr, code) = xdpd_code(&["run", path]);
        assert_eq!(code, 1, "xdpd run {file}: {stderr}");
        assert_eq!(stderr, format!("xdpd: error: compile: parse: {said}\n"));
    }
    // In a pool, each is a compile error, and the workers that answered
    // them go on to serve the next request.
    let simple = std::fs::read_to_string("xdp-programs/simple.xdp").unwrap();
    let specs = [parens, chain, simple].map(xdp_serve::RequestSpec::new);
    let results = xdp_serve::ServePool::new(2, 8).run_batch(&specs);
    for result in &results[..2] {
        match result {
            Err(xdp_serve::ServeError::Compile(e)) => assert!(e.to_string().ends_with(said), "{e}"),
            other => panic!("want a compile error, got {other:?}"),
        }
    }
    assert!(results[2].is_ok(), "{:?}", results[2]);
}

#[test]
fn a_malformed_numeric_flag_is_one_line_and_exit_2() {
    // These used to fall back to the default silently and exit 0.
    let simple = "xdp-programs/simple.xdp";
    let twophase = "xdp-programs/twophase.xdp";
    for (cmd, name, bad) in [
        (&["run", simple][..], "--procs", "abc"),
        (&["run", simple], "--procs", "-1"),
        (&["run", simple], "--alpha", "fast"),
        (&["plan", "xdp-programs/remap.xdp"], "--beta", "x"),
        (&["place", twophase], "--procs", "4.5"),
        (&["place", twophase], "--alpha", "two"),
        (&["trace", simple], "--top", "ten"),
        (&["fuzz"], "--seed", "x"),
    ] {
        let args = [cmd, &[name, bad]].concat();
        let (_, stderr, code) = xdpc_code(&args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert_eq!(stderr, format!("xdpc: bad {name} `{bad}`\n"), "{args:?}");
    }
    // `xdpd` reads its numeric options through the same `Args`.
    for (cmd, name, bad) in [
        (&["run", simple][..], "--workers", "-1"),
        (&["run", simple], "--repeat", "x"),
        (&["bench"], "--requests", "many"),
        (&["bench"], "--slow-ms", "soon"),
        (&["list"], "--gen", "1.5"),
    ] {
        let args = [cmd, &[name, bad]].concat();
        let (_, stderr, code) = xdpd_code(&args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert_eq!(stderr, format!("xdpd: bad {name} `{bad}`\n"), "{args:?}");
    }
}

#[test]
fn mem_budget_spelling_is_shared_by_both_binaries() {
    // `xdpc` and `xdpd` resolve `--mem-budget` in one function, so a padded
    // value (which `xdpc` trimmed and `xdpd` used to reject) is the same
    // budget to either binary, end to end...
    let membound = "xdp-programs/membound.xdp";
    let (stdout, stderr, code) = xdpc_code(&["plan", membound, "--mem-budget", " 64k"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("peak_B"), "{stdout}");
    let budgeted = ["run", membound, "--repeat", "1", "--mem-budget"];
    let (padded, stderr, code) = xdpd_code(&[&budgeted[..], &[" 5k"]].concat());
    assert_eq!(code, 0, "{stderr}");
    let (plain, ..) = xdpd_code(&[&budgeted[..], &["5120"]].concat());
    let (unbounded, ..) = xdpd_code(&["run", membound, "--repeat", "1"]);
    // (virtual time and messages are the row's last two columns)
    let served = |out: &str| {
        let row = out.lines().nth(2).expect("one request row");
        let cols: Vec<&str> = row.split_whitespace().collect();
        cols[cols.len() - 2..].join(" ")
    };
    assert_eq!(served(&padded), served(&plain));
    assert_ne!(
        served(&padded),
        served(&unbounded),
        "the budget is planned under"
    );
    // ...and a malformed one is the same refusal under either name.
    for (tool, run) in tools() {
        let tool = tool.name;
        let (_, stderr, code) = run(&["run", membound, "--mem-budget", "12q"]);
        assert_eq!(code, 2, "{tool}: {stderr}");
        let why = "(positive bytes, optionally with k/m/g suffix)";
        assert_eq!(stderr, format!("{tool}: bad --mem-budget `12q` {why}\n"));
    }
}

#[test]
fn plan_infeasible_budget_exits_nonzero_naming_smallest_feasible() {
    // A 1-byte budget fits no decomposition of membound.xdp's transpose:
    // `plan` must fail (an analysis failure, not a usage error) and name
    // the smallest budget that would have worked.
    let (_, stderr, code) = xdpc_code(&["plan", "xdp-programs/membound.xdp", "--mem-budget", "1"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(
        stderr.contains("fits mem budget 1 B") && stderr.contains("smallest feasible budget:"),
        "{stderr}"
    );
    // The named budget really is feasible: planning at a generous budget
    // succeeds and shows the per-candidate peak column.
    let (stdout, stderr, code) =
        xdpc_code(&["plan", "xdp-programs/membound.xdp", "--mem-budget", "64k"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("peak_B"), "{stdout}");
    assert!(stdout.contains("frontier"), "{stdout}");
}

#[test]
fn run_with_faults_delivers_exactly_once() {
    let (stdout, stderr, code) = xdpc_code(&[
        "run",
        "xdp-programs/simple.xdp",
        "--faults",
        "drop=0.2,dup=0.2,seed=5",
    ]);
    assert_eq!(code, 0, "{stderr}");
    // Same message count as the lossless run: dedup + retry hide faults.
    assert!(stdout.contains("messages 16"), "{stdout}");
    assert!(stdout.contains("faults:"), "{stdout}");
}

#[test]
fn trace_writes_chrome_json_and_critical_path() {
    let dir = std::env::temp_dir().join("xdpc_test");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("cli_trace.json");
    let (stdout, stderr, code) = xdpc_code(&[
        "trace",
        "xdp-programs/simple.xdp",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("virtual time"), "{stdout}");
    let json = std::fs::read_to_string(&out).unwrap();
    assert!(json.trim_start().starts_with('{'), "{json}");
}

#[test]
fn a_default_is_declared_in_its_row_and_read_from_it() {
    // `--help` renders the row's default, and the handler takes the same
    // value when the option is absent.
    let (help, stderr, code) = xdpc_code(&["trace", "--help"]);
    assert_eq!(code, 0, "{stderr}");
    let row = "\n  --out PATH         Chrome trace-event JSON output (default trace.json)\n";
    assert!(help.contains(row), "{help}");
    let dir = std::env::temp_dir().join("xdpc_default_out");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let program = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("xdp-programs/simple.xdp");
    let out = Command::new(env!("CARGO_BIN_EXE_xdpc"))
        .args(["trace", program.to_str().unwrap()])
        .current_dir(&dir)
        .output()
        .expect("spawn xdpc");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("wrote trace.json"), "{stdout}");
    let json = std::fs::read_to_string(dir.join(cli::OUT.default)).unwrap();
    assert!(json.trim_start().starts_with('{'), "{json}");
}

#[test]
fn fuzz_smoke_passes_and_reports_oracles() {
    let (stdout, stderr, code) = xdpc_code(&["fuzz", "--count", "5", "--seed", "7"]);
    assert_eq!(code, 0, "{stdout}{stderr}");
    assert!(stdout.contains("ok: 5 programs"), "{stdout}");
    assert!(stdout.contains("sim+lockstep+vm+async"), "{stdout}");
    assert!(stdout.contains("per-pass equivalence"), "{stdout}");
}

#[test]
fn fuzz_sim_only_skips_async_and_chaos() {
    let (stdout, _, code) = xdpc_code(&["fuzz", "--count", "3", "--seed", "1", "--sim-only"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("sim+lockstep"), "{stdout}");
    assert!(!stdout.contains("async"), "{stdout}");
    assert!(!stdout.contains("chaos"), "{stdout}");
}

#[test]
fn fuzz_rejects_bad_options() {
    let (_, stderr, code) = xdpc_code(&["fuzz", "--count", "three"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("bad --count"), "{stderr}");
    let (_, stderr, code) = xdpc_code(&["fuzz", "--procs", "1"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--procs >= 2"), "{stderr}");
}

#[test]
fn trace_plans_under_the_mem_budget_like_run() {
    // `trace` used to drop `--mem-budget` between the compile and the
    // machine and trace the unbudgeted plan (133 messages).
    let budgeted = ["xdp-programs/membound.xdp", "--mem-budget", "5000"];
    let out = std::env::temp_dir().join("xdpc_test/membound_trace.json");
    std::fs::create_dir_all(out.parent().unwrap()).unwrap();
    let (run, stderr, code) = xdpc_code(&[&["run"], &budgeted[..]].concat());
    assert_eq!(code, 0, "{stderr}");
    assert!(run.contains("messages 280"), "{run}");
    let out_flag = ["--out", out.to_str().unwrap()];
    let (trace, stderr, code) = xdpc_code(&[&["trace"], &budgeted[..], &out_flag].concat());
    assert_eq!(code, 0, "{stderr}");
    assert!(trace.contains("messages 280"), "{trace}");
}

#[test]
fn place_simulates_on_the_topology_it_scores() {
    // The search priced candidates over `--topo` and then ran both
    // programs on a uniform net.
    let simulated = |topo: &str| {
        let (stdout, stderr, code) =
            xdpc_code(&["place", "xdp-programs/twophase.xdp", "--topo", topo]);
        assert_eq!(code, 0, "--topo {topo}: {stderr}");
        let lines = stdout.lines().filter(|l| l.starts_with("simulated "));
        lines.map(str::to_string).collect::<Vec<_>>()
    };
    let (uniform, linear) = (simulated("uniform"), simulated("linear"));
    assert_eq!(uniform.len(), 2, "input and placed program: {uniform:?}");
    assert!(
        uniform[0] != linear[0] && uniform[1] != linear[1],
        "distance is simulated: {uniform:?} vs {linear:?}"
    );
}

#[test]
fn opt_finds_every_registered_pass_by_name() {
    // The tenth pass was missing from a hand-kept name list.
    let migration = "xdp-programs/migration.xdp";
    let (_, stderr, code) = xdpc_code(&["opt", migration, "--passes", "lower-redistribute"]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("pass lower-redistribute:"), "{stderr}");
    let (_, stderr, code) = xdpc_code(&["opt", migration, "--passes", "fuse-loops,bogus"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.starts_with("xdpc: unknown pass `bogus` (registered: "));
    for pass in xdp_compiler::passes::registry() {
        assert!(stderr.contains(pass.name()), "{}: {stderr}", pass.name());
    }
}

#[test]
fn xdpd_takes_its_operand_wherever_it_stands() {
    // `run --repeat 2 FILE` used to fail with `cannot read 2`.
    let simple = "xdp-programs/simple.xdp";
    for args in [
        ["run", "--repeat", "2", simple],
        ["run", simple, "--repeat", "2"],
    ] {
        let (stdout, stderr, code) = xdpd_code(&args);
        assert_eq!(code, 0, "{args:?}: {stderr}");
        assert!(stdout.contains("/ 2 lookups"), "{args:?}: {stdout}");
    }
    let (_, stderr, code) = xdpd_code(&["run", "xdp-programs/does-not-exist.xdp"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.starts_with("xdpd: error: cannot read "), "{stderr}");
}

/// One of the binaries, run: stdout, stderr, exit code.
type Runner = fn(&[&str]) -> (String, String, i32);

/// Both tools with their binaries.
fn tools() -> [(&'static cli::Tool, Runner); 2] {
    [(&cli::XDPC, xdpc_code), (&cli::XDPD, xdpd_code)]
}

#[test]
fn xdpd_without_a_command_is_a_usage_error_like_xdpc() {
    for (tool, run) in tools() {
        for args in [&[][..], &["frobnicate"]] {
            let (stdout, stderr, code) = run(args);
            assert_eq!((code, stdout.as_str()), (2, ""), "{} {args:?}", tool.name);
            for command in tool.commands {
                let named = |l: &str| l.trim_start().starts_with(command.name);
                assert!(stderr.lines().any(named), "{}: {stderr}", command.name);
            }
        }
        let (stdout, stderr, code) = run(&["--help"]);
        assert_eq!((code, stderr.as_str()), (0, ""), "{}", tool.name);
        assert_eq!(stdout, tool.usage());
    }
}

#[test]
fn every_command_refuses_what_its_table_row_does_not_declare() {
    // Four malformed command lines per command of both tools, each refused
    // before the handler runs: exit 2 and exactly one stderr line naming
    // the offending word. `--help` lists exactly what the row declares.
    let file = "xdp-programs/simple.xdp";
    for (tool, run) in tools() {
        for command in tool.commands {
            let mut base = vec![command.name];
            if !command.operand.is_empty() {
                base.push(file);
            }
            let refused = |extra: &[&str], word: &str| {
                let args = [&base[..], extra].concat();
                let (stdout, stderr, code) = run(&args);
                let what = format!("{} {args:?}", tool.name);
                assert_eq!((code, stdout.as_str()), (2, ""), "{what}: {stderr}");
                assert_eq!(stderr.lines().count(), 1, "{what}: {stderr}");
                let prefix = format!("{}: ", tool.name);
                assert!(stderr.starts_with(&prefix), "{what}: {stderr}");
                assert!(stderr.contains(&format!("`{word}`")), "{what}: {stderr}");
            };
            refused(&["--optimise"], "--optimise");
            refused(&["stray.xdp"], "stray.xdp");
            for opt in command.options() {
                if opt.metavar.is_empty() {
                    refused(&[opt.name, opt.name], opt.name);
                } else {
                    refused(&[opt.name], opt.name);
                    refused(&[opt.name, "--explain"], opt.name);
                }
            }

            let (stdout, stderr, code) = run(&[command.name, "--help"]);
            assert_eq!((code, stderr.as_str()), (0, ""), "{} --help", command.name);
            let listed = stdout.lines().filter(|l| l.starts_with("  --")).count();
            assert_eq!(listed, command.options().count(), "{stdout}");
            for opt in command.options() {
                let entry = format!("\n  {} {}", opt.name, opt.metavar);
                assert!(stdout.contains(entry.trim_end()), "{}: {stdout}", opt.name);
            }
        }
    }
    // A command that reads a file needs one.
    let (_, stderr, code) = xdpd_code(&["run"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.starts_with("xdpd: missing FILE; usage: xdpd run FILE"));
    // `--gather` without its value used to be ignored.
    let (_, stderr, code) = xdpc_code(&["run", file, "--gather"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.starts_with("xdpc: `--gather` needs a value (NAME)"));
    // An empty candidate list is refused, not swept (it was the library
    // tuner's `empty_candidates_is_an_error`).
    let pipeline = "xdp-programs/pipeline.xdp";
    let (stdout, stderr, code) = xdpc_code(&["tune", pipeline, "--array", "DST", "--segments", ""]);
    assert_eq!((code, stdout.as_str()), (2, ""), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("xdpc: bad segment spec ``"), "{stderr}");
}
