//! The command's verdict, end to end: a clean run exits 0 with
//! `"correct": true`; the same run against a golden file with one digest
//! flipped exits nonzero and counts failed operations.

use std::process::Command;

fn smoke(extra: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_xdp-benchmark"))
        .args([
            "run",
            "--workload",
            "exec-compute",
            "--seed",
            "5",
            "--smoke",
        ])
        .args(extra)
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code(), last)
}

#[test]
fn a_flipped_golden_digest_fails_the_run() {
    let (code, last) = smoke(&[]);
    let result = serde_json::from_str(&last).expect("last line is the result object");
    assert_eq!(code, Some(0), "{last}");
    assert_eq!(result.get("correct").and_then(|v| v.as_bool()), Some(true));
    assert_eq!(result.get("failed").and_then(|v| v.as_u64()), Some(0));

    let golden = include_str!("../golden.json");
    let honest = "\"elemloop-64\": \"";
    let at = golden.find(honest).expect("golden has elemloop-64") + honest.len();
    let flipped_digit = if &golden[at..at + 1] == "0" { "1" } else { "0" };
    let tampered = format!("{}{}{}", &golden[..at], flipped_digit, &golden[at + 1..]);
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tampered-golden.json");
    std::fs::write(&path, tampered).expect("temp dir is writable");

    let (code, last) = smoke(&["--golden", path.to_str().expect("UTF-8 path")]);
    let result = serde_json::from_str(&last).expect("last line is the result object");
    assert_eq!(code, Some(1), "{last}");
    assert_eq!(result.get("correct").and_then(|v| v.as_bool()), Some(false));
    let failed = result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
    let attempted = result
        .get("attempted")
        .and_then(|v| v.as_u64())
        .unwrap_or(0);
    // A third of the mix's requests are for the tampered program.
    assert!(
        failed > 0 && failed * 2 < attempted,
        "{failed} of {attempted}"
    );
}
