//! Golden answers: the paper harnesses must print exactly the committed
//! tables. Those that serve Problem 3 through `run_batch` (`table2`,
//! `table3`, `table4`, `robustness`, `sensitivity`) pin how the pipeline
//! serves it; `table1`, `fig1`, `fig2`, `fig3` and `fig7_maxlen` pin the
//! population, the noise metric, the referee and the noise-avoidance
//! walks. Only timing fields are masked — the `cpu(s)` column and any
//! "in X s" phrase — so every count, slack and penalty is pinned, and a
//! change that moves any answer fails here instead of in a hand
//! comparison.
//!
//! To re-record after an intended answer change, run each harness and
//! write its masked stdout over `tests/fixtures/<harness>.txt`.

use std::process::Command;

/// Replaces the run's timing fields with `*`: the last column of every
/// row under a header ending in `cpu(s)`, and the number in "in X s".
fn mask_timing(out: &str) -> String {
    let mut masked = String::with_capacity(out.len());
    let mut cpu_column = false;
    for line in out.lines() {
        let mut line = line.to_string();
        if line.trim_end().ends_with("cpu(s)") {
            cpu_column = true;
        } else if line.trim().is_empty() {
            cpu_column = false;
        } else if cpu_column {
            if let Some(at) = line.trim_end().rfind(' ') {
                line.truncate(at + 1);
                line.push('*');
            }
        }
        masked.push_str(&mask_in_seconds(&line));
        masked.push('\n');
    }
    masked
}

/// "in 0.25 s" → "in * s", wherever it appears in `line`.
fn mask_in_seconds(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("in ") {
        let (head, tail) = rest.split_at(at + 3);
        out.push_str(head);
        let number = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        if number > 0 && tail[number..].starts_with(" s") {
            out.push('*');
            rest = &tail[number..];
        } else {
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

fn assert_golden(bin: &str, exe: &str, fixture: &str) {
    let run = Command::new(exe).output().expect("harness starts");
    assert!(
        run.status.success(),
        "{bin} exited with {:?}: {}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    let actual = mask_timing(&String::from_utf8(run.stdout).expect("utf-8 stdout"));
    if actual != fixture {
        let diff: Vec<String> = fixture
            .lines()
            .zip(actual.lines())
            .enumerate()
            .filter(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| format!("line {}:\n  expected {e}\n  actual   {a}", i + 1))
            .collect();
        panic!(
            "{bin} output differs from tests/fixtures/{bin}.txt \
             ({} vs {} lines):\n{}\n--- actual (masked) ---\n{actual}",
            fixture.lines().count(),
            actual.lines().count(),
            diff.join("\n")
        );
    }
}

#[test]
fn masking_hides_only_timing_fields() {
    let out =
        "T\nalgorithm  total   cpu(s)\nBuffOpt      621     0.03\n\nnote 3 in 0.25 s, 2 in a row\n";
    assert_eq!(
        mask_timing(out),
        "T\nalgorithm  total   cpu(s)\nBuffOpt      621     *\n\nnote 3 in * s, 2 in a row\n"
    );
}

#[test]
fn table1_answers_are_golden() {
    assert_golden(
        "table1",
        env!("CARGO_BIN_EXE_table1"),
        include_str!("fixtures/table1.txt"),
    );
}

#[test]
fn table2_answers_are_golden() {
    assert_golden(
        "table2",
        env!("CARGO_BIN_EXE_table2"),
        include_str!("fixtures/table2.txt"),
    );
}

#[test]
fn fig1_answers_are_golden() {
    assert_golden(
        "fig1",
        env!("CARGO_BIN_EXE_fig1"),
        include_str!("fixtures/fig1.txt"),
    );
}

#[test]
fn fig2_answers_are_golden() {
    assert_golden(
        "fig2",
        env!("CARGO_BIN_EXE_fig2"),
        include_str!("fixtures/fig2.txt"),
    );
}

#[test]
fn fig3_answers_are_golden() {
    assert_golden(
        "fig3",
        env!("CARGO_BIN_EXE_fig3"),
        include_str!("fixtures/fig3.txt"),
    );
}

#[test]
fn fig7_maxlen_answers_are_golden() {
    assert_golden(
        "fig7_maxlen",
        env!("CARGO_BIN_EXE_fig7_maxlen"),
        include_str!("fixtures/fig7_maxlen.txt"),
    );
}

#[test]
fn table3_answers_are_golden() {
    assert_golden(
        "table3",
        env!("CARGO_BIN_EXE_table3"),
        include_str!("fixtures/table3.txt"),
    );
}

#[test]
fn table4_answers_are_golden() {
    assert_golden(
        "table4",
        env!("CARGO_BIN_EXE_table4"),
        include_str!("fixtures/table4.txt"),
    );
}

#[test]
fn robustness_answers_are_golden() {
    assert_golden(
        "robustness",
        env!("CARGO_BIN_EXE_robustness"),
        include_str!("fixtures/robustness.txt"),
    );
}

#[test]
fn sensitivity_answers_are_golden() {
    assert_golden(
        "sensitivity",
        env!("CARGO_BIN_EXE_sensitivity"),
        include_str!("fixtures/sensitivity.txt"),
    );
}
