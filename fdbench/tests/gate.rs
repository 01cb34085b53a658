//! The correctness gate must trip: a run told to expect a wrong exact-FD
//! digest reports failed operations, a non-zero error rate, and exits
//! non-zero.

use std::process::Command;

#[test]
fn wrong_expected_digest_fails_the_run() {
    let out = Command::new(env!("CARGO_BIN_EXE_fdbench"))
        .args([
            "--workload",
            "sparse-chain",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--expect-digest",
            "0123456789abcdef",
        ])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "a wrong digest must fail the command:\n{stdout}"
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": false,"), "{last}");
    let failed: u64 = last
        .split("\"failed\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .expect("a failed count");
    assert!(failed > 0, "{last}");
    let error_rate = stdout
        .lines()
        .find_map(|l| l.split("error_rate ").nth(1))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("an error_rate line");
    assert!(error_rate > 0.0, "{stdout}");
}
