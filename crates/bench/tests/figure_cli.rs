//! The figure binaries' shared command line rejects bad input with a
//! usage message naming the flag, instead of printing a table of NaN
//! throughputs or panicking on an index.

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
