//! End-to-end checks of the `scn` command line: exit status and the
//! shape of what it prints on success and on error.

use std::process::{Command, Output};

fn scn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scn"))
        .args(args)
        .output()
        .expect("scn starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn removed_sharding_flags_fail_with_one_readable_line() {
    for args in [
        &["--shards", "4", "x.scn"][..],
        &["--step", "sharded", "x.scn"],
        &["--assert-occupancy", "0.5", "x.scn"],
        &["serve", "--shards", "2"],
    ] {
        let out = scn(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr(&out);
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(
            err.starts_with("error: ") && err.contains("sharded stepping, which was removed"),
            "{args:?}: {err}"
        );
        assert!(
            !err.contains("\\n") && !err.contains("\\\""),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn bad_backend_prints_the_usage_on_real_lines() {
    let out = scn(&["--backend", "foo", "x.scn"]);
    assert!(!out.status.success());
    let err = stderr(&out);
    let mut lines = err.lines();
    assert_eq!(lines.next(), Some("error: bad --backend \"foo\""), "{err}");
    assert!(
        lines.next().is_some_and(|l| l.starts_with("usage: scn ")),
        "{err}"
    );
    assert!(!err.contains("Some("), "{err}");
}

#[test]
fn corpus_scenario_runs_on_all_backends_in_both_step_modes() {
    let file = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/scenarios/set_top.scn"
    );
    let out = scn(&["--backend", "all", "--step", "both", file]);
    assert!(out.status.success(), "{}", stderr(&out));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    for backend in ["noc", "bridged", "bus"] {
        assert!(
            stdout
                .lines()
                .any(|l| l.contains(backend) && l.contains("dense=horizon")),
            "no {backend} dense=horizon row:\n{stdout}"
        );
    }
}
