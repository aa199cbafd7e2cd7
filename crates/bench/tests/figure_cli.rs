//! The figure binaries' shared command line rejects bad input with a
//! usage message naming the flag, instead of printing a table of NaN
//! throughputs or panicking on an index; `regent-prof` rejects its own
//! with one usage line and exit status 2, never a panic.

use std::process::{Command, Output};

fn fig6(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig6_stencil"))
        .args(args)
        .output()
        .expect("cannot run fig6_stencil")
}

/// `args` must fail, naming `flag` on stderr and printing no table.
fn rejected(args: &[&str], flag: &str) {
    let out = fig6(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited {}", out.status);
    assert!(
        stderr.contains(flag) && !stderr.contains("index out of bounds"),
        "{args:?}: stderr does not name {flag}:\n{stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("NaN"),
        "{args:?} printed NaN"
    );
}

#[test]
fn zero_steps_is_rejected() {
    rejected(&["--max-nodes", "4", "--steps", "0"], "--steps");
}

#[test]
fn a_flag_without_its_value_is_rejected() {
    rejected(&["--max-nodes", "4", "--steps"], "--steps");
    rejected(&["--steps", "2", "--max-nodes"], "--max-nodes");
}

/// The simulator is fault-free: a script still passing the deleted
/// fault flags fails and names the flag.
#[test]
fn deleted_fault_flags_are_rejected() {
    rejected(&["--max-nodes", "4", "--faults", "42,0.01"], "--faults");
    rejected(&["--max-nodes", "4", "--corrupt", "11,0.05"], "--corrupt");
}

/// `regent-prof` run on `args` must exit with status 2 and one line of
/// stderr that names `flag` and the usage, and print nothing else.
fn prof_rejected(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_regent_prof"))
        .args(args)
        .output()
        .expect("cannot run regent_prof");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.contains(flag) && stderr.contains("usage: regent-prof --trace"),
        "{args:?}: stderr does not name {flag}:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn regent_prof_rejects_a_bad_command_line() {
    prof_rejected(&["--live", "127.0.0.1:9187"], "--live");
    prof_rejected(&["--trace"], "--trace");
    prof_rejected(&["--trace", "run.trace.json", "--flame"], "--flame");
    prof_rejected(&["--trace", "--flame", "out.folded"], "--trace");
    prof_rejected(&["--flame", "out.folded"], "--trace");
    prof_rejected(&[], "--trace");
}
