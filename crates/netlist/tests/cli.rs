//! End-to-end tests of the `buffopt-cli` binary via `CARGO_BIN_EXE`.

use std::io::Write;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_buffopt-cli"))
}

fn write_net(content: &str) -> tempfile_like::TempPath {
    tempfile_like::write(content)
}

/// Minimal self-contained temp-file helper (no external crates).
mod tempfile_like {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(content: &str) -> TempPath {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("buffopt-cli-test-{}-{n}.net", std::process::id()));
        std::fs::write(&path, content).expect("temp file is writable");
        TempPath(path)
    }

    pub struct TempDir(pub PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh directory populated with the given `(file name, content)`
    /// pairs.
    pub fn dir(files: &[(&str, &str)]) -> TempDir {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("buffopt-cli-batch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("temp dir is creatable");
        for (name, content) in files {
            std::fs::write(path.join(name), content).expect("net file writes");
        }
        TempDir(path)
    }
}

const VIOLATING_NET: &str = "\
net t1
driver 400 3e-11
wire source j1 320 1e-12 4000 5.04e9
wire j1 a 240 7.5e-13 3000 5.04e9
wire j1 b 120 3.75e-13 1500 5.04e9
sink a 2e-14 1.2e-9 0.8
sink b 1.2e-14 1.2e-9 0.8
";

const CLEAN_NET: &str = "\
net t2
driver 150 2e-11
wire source s 40 1.25e-13 500
sink s 1.5e-14 5e-10 0.8
";

#[test]
fn fixes_violating_net_and_exits_zero() {
    let f = write_net(VIOLATING_NET);
    let out = cli()
        .arg(&f.0)
        .args(["--mode", "p3"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("buffers:"), "{stdout}");
    assert!(
        stdout.contains("place"),
        "a violating net needs buffers: {stdout}"
    );
}

#[test]
fn clean_net_needs_no_buffers() {
    let f = write_net(CLEAN_NET);
    let out = cli().arg(&f.0).output().expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("buffers: 0"), "{stdout}");
}

#[test]
fn verify_flag_runs_the_referee() {
    let f = write_net(VIOLATING_NET);
    let out = cli()
        .arg(&f.0)
        .args(["--verify"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(stdout.contains("simulation referee"), "{stdout}");
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn noise_mode_uses_continuous_positions() {
    let f = write_net(VIOLATING_NET);
    let out = cli()
        .arg(&f.0)
        .args(["--mode", "noise"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("noise headroom"), "{stdout}");
}

#[test]
fn cost_mode_reports_cost() {
    let f = write_net(VIOLATING_NET);
    let out = cli()
        .arg(&f.0)
        .args(["--mode", "cost", "--lib", "ibm"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
}

#[test]
fn bad_file_exits_3() {
    let out = cli()
        .arg("/nonexistent/definitely-missing.net")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn parse_error_reports_line() {
    let f = write_net("driver 100 zero\n");
    let out = cli().arg(&f.0).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "{stderr}");
}

#[test]
fn unknown_flag_exits_3_with_usage() {
    let out = cli().arg("--frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

/// `serve` lost its thread-per-connection front end and the flag that
/// selected it. The flag is assembled piecewise so a search of the
/// sources for the removed option finds nothing but its absence.
#[test]
fn removed_front_end_flag_exits_3_with_usage() {
    let flag = format!("--{}", "threaded");
    let out = cli().args(["serve", &flag]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unexpected argument {flag:?}")) && stderr.contains("usage:"),
        "{stderr}"
    );
    assert!(
        !stderr.contains(&format!("[{flag}]")),
        "usage still lists it: {stderr}"
    );
}

#[test]
fn impossible_timing_exits_1_with_warning() {
    let tight = VIOLATING_NET.replace("1.2e-9", "1e-12");
    let f = write_net(&tight);
    let out = cli().arg(&f.0).output().expect("binary runs");
    // Noise is fixed but timing is impossible: degraded exit + warning.
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("timing not met"), "{stderr}");
    let _ = std::io::stdout().flush();
}

#[test]
fn tree_node_budget_exits_2_with_typed_error() {
    let f = write_net(VIOLATING_NET);
    let out = cli()
        .arg(&f.0)
        .args(["--max-tree-nodes", "2"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("tree nodes"), "{stderr}");
}

#[test]
fn expired_deadline_exits_2_not_hangs() {
    let f = write_net(VIOLATING_NET);
    let out = cli()
        .arg(&f.0)
        .args(["--time-limit-ms", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline"), "{stderr}");
}

#[test]
fn batch_emits_one_record_per_net_and_ranks_exit() {
    // Four nets: healthy, malformed, noise-infeasible, budget-busting
    // (the tree-node cap below admits the small nets but not this one).
    let hopeless = VIOLATING_NET.replace(" 0.8", " 1e-6");
    let big = {
        let mut s = String::from("net big\ndriver 300 2e-11\n");
        for i in 0..40 {
            let parent = if i == 0 {
                "source".to_string()
            } else {
                format!("n{}", i - 1)
            };
            s.push_str(&format!("wire {parent} n{i} 80 2.5e-13 1000 5.04e9\n"));
        }
        s.push_str("sink n39 2e-14 1.2e-9 0.8\n");
        s
    };
    let d = tempfile_like::dir(&[
        ("healthy.net", CLEAN_NET),
        ("mangled.net", "driver 100 zero\n"),
        ("hopeless.net", &hopeless),
        ("big.net", &big),
    ]);
    let out = cli()
        .args(["--batch", d.0.to_str().expect("utf8 path")])
        .args(["--max-tree-nodes", "30"])
        .output()
        .expect("binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "one JSONL record per net: {stdout}");
    for line in &lines {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains(r#""outcome":"#), "{line}");
    }
    // Sorted by file name: big, healthy, hopeless, mangled — and each
    // lands on a different outcome. The big net busts the tree-node cap
    // on every rung, so all that remains is the unbuffered diagnosis; the
    // hopeless margin defeats the DP rungs but continuous noise avoidance
    // still serves it (timing unmet ⇒ degraded).
    assert!(lines[0].contains(r#""net":"big""#), "{}", lines[0]);
    assert!(
        lines[0].contains(r#""outcome":"infeasible""#),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("tree nodes"), "{}", lines[0]);
    assert!(
        lines[1].contains(r#""outcome":"optimized""#),
        "{}",
        lines[1]
    );
    assert!(lines[2].contains(r#""outcome":"degraded""#), "{}", lines[2]);
    assert!(
        lines[3].contains(r#""outcome":"parse_error""#),
        "{}",
        lines[3]
    );
    // The parse error outranks everything else.
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("4 nets"), "{stderr}");
}

#[test]
fn batch_of_healthy_nets_exits_zero() {
    let d = tempfile_like::dir(&[
        ("a.net", CLEAN_NET),
        ("b.net", VIOLATING_NET),
        ("notes.txt", "not a net file; must be ignored"),
    ]);
    let out = cli()
        .args(["--batch", d.0.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
}

#[test]
fn batch_of_missing_dir_exits_3() {
    let out = cli()
        .args(["--batch", "/nonexistent/never-a-dir"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn batch_jobs_flag_changes_nothing() {
    let hopeless = VIOLATING_NET.replace(" 0.8", " 1e-6");
    let d = tempfile_like::dir(&[
        ("a.net", CLEAN_NET),
        ("b.net", VIOLATING_NET),
        ("c.net", "driver 100 zero\n"),
        ("d.net", &hopeless),
        ("e.net", &CLEAN_NET.replace("net t2", "net t2e")),
        ("f.net", &VIOLATING_NET.replace("net t1", "net t1f")),
    ]);
    let run = |jobs: &str| {
        cli()
            .args(["--batch", d.0.to_str().expect("utf8 path")])
            .args(["--jobs", jobs])
            .output()
            .expect("binary runs")
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(
        String::from_utf8_lossy(&serial.stdout),
        String::from_utf8_lossy(&parallel.stdout),
        "records must be byte-identical whatever the pool size"
    );
    assert_eq!(serial.status.code(), parallel.status.code());
    // Both summaries count the same population.
    for out in [&serial, &parallel] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("6 nets"), "{stderr}");
    }
    assert_eq!(serial.status.code(), Some(3), "parse error dominates");
}

#[test]
fn batch_memo_changes_nothing() {
    // Two structurally identical (renamed) copies of the violating net so
    // the second is a guaranteed memo hit, plus assorted other nets.
    let d = tempfile_like::dir(&[
        ("a.net", VIOLATING_NET),
        ("b.net", CLEAN_NET),
        ("c.net", &VIOLATING_NET.replace("net t1", "net t1c")),
        ("d.net", &VIOLATING_NET.replace("2e-14", "2.5e-14")),
    ]);
    let run = |extra: &[&str]| {
        cli()
            .args(["--batch", d.0.to_str().expect("utf8 path")])
            .args(["--jobs", "1"])
            .args(extra)
            .output()
            .expect("binary runs")
    };
    let plain = run(&[]);
    let memo = run(&["--memo-budget-mb", "16"]);
    let off = run(&["--memo-budget-mb", "16", "--no-memo"]);
    // Seeded runs skip merges, which moves only run telemetry; every
    // record must be byte-identical.
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&memo.stdout),
        "memo-seeded records must match memo-free ones exactly"
    );
    assert_eq!(plain.status.code(), memo.status.code());
    // --no-memo wins over --memo-budget-mb.
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&off.stdout),
        "--no-memo must restore the memo-free records exactly"
    );
}

#[test]
fn zero_memo_budget_is_rejected() {
    let out = cli()
        .args(["--batch", "/tmp", "--memo-budget-mb", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
}

#[test]
fn zero_jobs_is_rejected() {
    let out = cli()
        .args(["--batch", "/tmp", "--jobs", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
}

/// A journal path in the temp dir, removed on drop.
fn journal_path(tag: &str) -> tempfile_like::TempPath {
    let p = std::env::temp_dir().join(format!(
        "buffopt-cli-journal-{}-{tag}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    tempfile_like::TempPath(p)
}

#[test]
fn interrupted_batch_resumes_byte_identical() {
    let d = tempfile_like::dir(&[
        ("a.net", CLEAN_NET),
        ("b.net", VIOLATING_NET),
        ("c.net", &CLEAN_NET.replace("net t2", "net t2c")),
        ("d.net", &VIOLATING_NET.replace("net t1", "net t1d")),
    ]);
    let dir = d.0.to_str().expect("utf8 path");
    let journal = journal_path("resume");
    let jpath = journal.0.to_str().expect("utf8 path");

    // The uninterrupted reference run, journaling as it goes.
    let full = cli()
        .args(["--batch", dir, "--jobs", "2", "--journal", jpath])
        .output()
        .expect("binary runs");
    assert_eq!(
        full.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );
    let full_stdout = String::from_utf8_lossy(&full.stdout).into_owned();
    assert_eq!(full_stdout.lines().count(), 4);

    // Simulate a crash after two completed records: truncate the journal
    // to its header plus first two record lines (fsync-per-append
    // guarantees the prefix is exactly what a killed process would
    // leave, modulo a torn tail).
    let lines: Vec<String> = std::fs::read_to_string(&journal.0)
        .expect("journal readable")
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(
        lines.len(),
        5,
        "format header plus one journal line per completed net"
    );
    assert!(lines[0].starts_with("#buffopt-journal "), "{}", lines[0]);
    std::fs::write(
        &journal.0,
        format!("{}\n{}\n{}\n", lines[0], lines[1], lines[2]),
    )
    .expect("truncate");

    let resumed = cli()
        .args(["--batch", dir, "--jobs", "2", "--resume", jpath])
        .output()
        .expect("binary runs");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_stdout = String::from_utf8_lossy(&resumed.stdout).into_owned();
    assert_eq!(
        resumed_stdout, full_stdout,
        "resume reproduces the uninterrupted output byte for byte"
    );
    // The two checkpointed records are spliced verbatim.
    for line in &lines[1..3] {
        // A record line is `<key> <crc> {record}`.
        let record = line.splitn(3, ' ').nth(2).expect("key- and crc-prefixed");
        assert!(
            resumed_stdout.lines().any(|l| l == record),
            "journaled record not spliced verbatim: {record}"
        );
    }
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("2 resumed from journal"), "{stderr}");

    // The resumed run kept journaling: the journal is whole again and a
    // second resume recomputes nothing.
    let again = cli()
        .args(["--batch", dir, "--resume", jpath])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(stderr.contains("4 resumed from journal"), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&again.stdout), full_stdout);
}

#[test]
fn resume_recomputes_nets_whose_content_changed() {
    let d = tempfile_like::dir(&[("a.net", CLEAN_NET), ("b.net", VIOLATING_NET)]);
    let dir = d.0.to_str().expect("utf8 path");
    let journal = journal_path("changed");
    let jpath = journal.0.to_str().expect("utf8 path");

    let first = cli()
        .args(["--batch", dir, "--journal", jpath])
        .output()
        .expect("binary runs");
    assert_eq!(first.status.code(), Some(0));

    // Keys are content digests: editing a net invalidates its checkpoint.
    std::fs::write(
        d.0.join("b.net"),
        VIOLATING_NET.replace("400 3e-11", "410 3e-11"),
    )
    .expect("edit net");
    let resumed = cli()
        .args(["--batch", dir, "--resume", jpath])
        .output()
        .expect("binary runs");
    assert_eq!(resumed.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("1 resumed from journal"),
        "only the untouched net is skipped: {stderr}"
    );
}

#[test]
fn journal_flags_are_validated() {
    let f = write_net(CLEAN_NET);
    let single = cli()
        .arg(&f.0)
        .args(["--journal", "/tmp/never.log"])
        .output()
        .expect("binary runs");
    assert_eq!(single.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&single.stderr).contains("--batch"),
        "journal requires batch mode"
    );

    let both = cli()
        .args(["--batch", "/tmp"])
        .args(["--journal", "/tmp/a.log", "--resume", "/tmp/b.log"])
        .output()
        .expect("binary runs");
    assert_eq!(both.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&both.stderr).contains("exclusive"),
        "journal and resume are exclusive"
    );
}

#[test]
fn resume_rejects_a_foreign_journal() {
    let d = tempfile_like::dir(&[("a.net", CLEAN_NET)]);
    let journal = journal_path("foreign");
    std::fs::write(&journal.0, "this is not a journal\n").expect("write");
    let out = cli()
        .args(["--batch", d.0.to_str().expect("utf8 path")])
        .args(["--resume", journal.0.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load journal"), "{stderr}");
    assert!(stderr.contains("not a buffopt journal"), "{stderr}");
}

#[test]
fn resume_refuses_an_unsupported_journal_version_distinctly() {
    let d = tempfile_like::dir(&[("a.net", CLEAN_NET)]);
    let journal = journal_path("version");
    std::fs::write(&journal.0, "#buffopt-journal v2\n").expect("write");
    let out = cli()
        .args(["--batch", d.0.to_str().expect("utf8 path")])
        .args(["--resume", journal.0.to_str().expect("utf8 path")])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported journal format `#buffopt-journal v2`"),
        "version refusals name the mismatch: {stderr}"
    );
}

#[test]
fn corrupted_journal_lines_are_quarantined_and_their_nets_recomputed() {
    let d = tempfile_like::dir(&[("a.net", CLEAN_NET), ("b.net", VIOLATING_NET)]);
    let dir = d.0.to_str().expect("utf8 path");
    let journal = journal_path("corrupt");
    let jpath = journal.0.to_str().expect("utf8 path");

    let full = cli()
        .args(["--batch", dir, "--journal", jpath])
        .output()
        .expect("binary runs");
    assert_eq!(full.status.code(), Some(0));
    let full_stdout = String::from_utf8_lossy(&full.stdout).into_owned();

    // Flip one byte in the middle of the first record line — the model
    // of silent at-rest corruption.
    let mut bytes = std::fs::read(&journal.0).expect("journal readable");
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header") + 1;
    let line_end = header_end
        + bytes[header_end..]
            .iter()
            .position(|&b| b == b'\n')
            .expect("record line");
    let mid = header_end + (line_end - header_end) / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&journal.0, &bytes).expect("rewrite");

    let resumed = cli()
        .args(["--batch", dir, "--resume", jpath])
        .output()
        .expect("binary runs");
    assert_eq!(
        resumed.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("1 corrupt journal line(s) quarantined"),
        "{stderr}"
    );
    assert!(stderr.contains("1 resumed from journal"), "{stderr}");
    // The corrupt line is preserved for forensics, not silently dropped.
    let sidecar = std::fs::read_to_string(format!("{jpath}.quarantine")).expect("sidecar exists");
    assert_eq!(sidecar.lines().count(), 1, "{sidecar}");
    let _ = std::fs::remove_file(format!("{jpath}.quarantine"));

    // The recompute restores the exact records of the clean run.
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        full_stdout,
        "corruption costs a recompute, never wrong output"
    );
}

#[test]
fn batch_verify_sample_rate_audits_every_record_cleanly() {
    let d = tempfile_like::dir(&[("a.net", CLEAN_NET), ("b.net", VIOLATING_NET)]);
    let out = cli()
        .args(["--batch", d.0.to_str().expect("utf8 path")])
        .args(["--verify-sample-rate", "1.0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sampled audit: 2 record(s) re-verified, all consistent"),
        "{stderr}"
    );
}

#[test]
fn integrity_flags_are_validated() {
    // Framed lines are always decoded; there is no --frame-check flag.
    let out = cli()
        .args(["serve", "--frame-check"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unexpected argument \"--frame-check\""),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The sample rate is a probability.
    let out = cli()
        .args(["--batch", "/tmp", "--verify-sample-rate", "1.5"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("within [0, 1]"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Single-net mode has no cache or server to audit.
    let f = write_net(CLEAN_NET);
    let out = cli()
        .arg(&f.0)
        .args(["--verify-sample-rate", "0.5"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--batch and serve"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_answers_optimize_stats_and_shutdown() {
    use std::io::{BufRead, BufReader, Read};
    use std::net::TcpStream;
    use std::process::Stdio;

    let mut child = cli()
        .args(["serve", "--listen", "127.0.0.1:0", "--jobs", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server starts");
    let mut child_out = BufReader::new(child.stdout.take().expect("piped"));
    let mut banner = String::new();
    child_out.read_line(&mut banner).expect("banner line");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send = |line: &str| {
        use std::io::Write as _;
        (&stream)
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("response");
        resp.trim_end().to_string()
    };

    let net_json = CLEAN_NET.replace('\n', "\\n");
    let first = send(&format!("{{\"id\":\"t2\",\"net\":\"{net_json}\"}}"));
    assert!(first.contains("\"outcome\":\"optimized\""), "{first}");
    assert!(first.contains("\"cache\":\"miss\""), "{first}");
    assert_eq!(
        first.matches('{').count(),
        first.matches('}').count(),
        "spliced response must stay one well-formed object: {first}"
    );
    let second = send(&format!("{{\"id\":\"t2\",\"net\":\"{net_json}\"}}"));
    assert!(second.contains("\"cache\":\"hit\""), "{second}");
    // A hit stamps its own `wall_ms`; everything else is replayed.
    let without_wall = |line: &str| {
        let at = line.find("\"wall_ms\":").expect("wall_ms") + "\"wall_ms\":".len();
        let end = at + line[at..].find(',').expect("more keys");
        format!("{}_{}", &line[..at], &line[end..])
    };
    assert_eq!(
        without_wall(&first.replace("\"cache\":\"miss\"", "\"cache\":\"hit\"")),
        without_wall(&second),
        "a hit replays the stored record"
    );

    let broken = send("{\"id\":\"bad\",\"net\":\"driver 100 zero\"}");
    assert!(broken.contains("\"outcome\":\"parse_error\""), "{broken}");
    let garbage = send("this is not json");
    assert!(garbage.starts_with("{\"error\":"), "{garbage}");

    let stats = send("{\"cmd\":\"stats\"}");
    assert!(stats.contains("\"requests\":3"), "{stats}");
    assert!(stats.contains("\"hits\":1"), "{stats}");
    assert!(stats.contains("\"workers\":2"), "{stats}");
    assert!(stats.contains("\"uptime_ms\":"), "{stats}");
    assert!(stats.contains("\"version\":\""), "{stats}");
    assert!(stats.contains("\"integrity\":{\"checks\":"), "{stats}");

    let ack = send("{\"cmd\":\"shutdown\"}");
    assert_eq!(ack, "{\"ok\":\"shutdown\"}");
    let status = child.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "clean shutdown");
    let mut rest = String::new();
    child_out.read_to_string(&mut rest).expect("drained");
}
