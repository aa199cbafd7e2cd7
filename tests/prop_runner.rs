//! The property runner of `tests/support/prop.rs` against a property
//! that is false above a known threshold: the runner must fail it, name
//! the failing seed, shrink the input to the threshold, and reproduce
//! the same failure from that seed listed as a regression.

#[path = "support/prop.rs"]
mod prop;

use prop::{Gen, FULL};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The property fails for every value from here up.
const THRESHOLD: u64 = 100;

fn draw(g: &mut Gen) -> u64 {
    g.range(0..1000)
}

fn below_threshold(x: &u64) {
    assert!(*x < THRESHOLD, "{x} is not below {THRESHOLD}");
}

/// Runs `check` on the threshold property and returns its panic text.
fn failure(cases: u64, regressions: &[u64]) -> String {
    let run = || prop::check("threshold", cases, regressions, draw, below_threshold);
    let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the property is false");
    prop::message(payload)
}

/// The hex number that follows `key` in `text`.
fn hex_after(text: &str, key: &str) -> u64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("no {key:?} in {text}"))
        + key.len();
    let digits: String = text[at..]
        .trim_start_matches("0x")
        .chars()
        .take_while(char::is_ascii_hexdigit)
        .collect();
    u64::from_str_radix(&digits, 16).expect("hex seed")
}

/// The decimal number that follows `key` in `text`.
fn dec_after(text: &str, key: &str) -> u64 {
    let at = text
        .find(key)
        .unwrap_or_else(|| panic!("no {key:?} in {text}"))
        + key.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("decimal")
}

#[test]
fn a_false_property_fails_shrunk_to_its_threshold_and_replays() {
    let msg = failure(64, &[]);
    let seed = hex_after(&msg, "seed ");
    let size = dec_after(&msg, "at size ");

    // The failing seed's full-size draw is above the threshold, and the
    // reported input is the threshold itself: the smallest failing size
    // draws exactly 100, one size smaller draws less.
    assert!(draw(&mut Gen::new(seed, FULL)) >= THRESHOLD, "{msg}");
    assert!(msg.contains(&format!("input: {THRESHOLD}\n")), "{msg}");
    assert!(msg.contains(&format!("{THRESHOLD} is not below")), "{msg}");
    assert!((1..=FULL).contains(&size), "{msg}");
    assert_eq!(draw(&mut Gen::new(seed, size)), THRESHOLD);
    assert!(draw(&mut Gen::new(seed, size - 1)) < THRESHOLD);
    assert!(msg.contains(&format!("listing {seed:#018x} in REGRESSIONS")));

    // The seed listed as a regression reproduces the failure with no
    // case drawn.
    assert_eq!(failure(0, &[seed]), msg);

    // A true property passes every case, the regression seed included.
    prop::check(
        "threshold",
        64,
        &[seed],
        |g| g.range(0..THRESHOLD),
        below_threshold,
    );
}
