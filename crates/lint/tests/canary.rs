//! One canary per root `clippy.toml` entry. A misspelled path there is
//! only a config warning and bans nothing; here it leaves its canary's
//! `#[expect]` unmet, and `warnings = deny` turns
//! `unfulfilled_lint_expectations` into a failed `cargo clippy
//! --all-targets`. Only clippy sets `cfg(clippy)`: `cargo build` and
//! `cargo test` never compile this file. A method canary that also
//! names a disallowed type expects both lints.

#![cfg(clippy)]

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn instant() {
    let _: Option<std::time::Instant> = None;
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn system_time() {
    let _: Option<std::time::SystemTime> = None;
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn hash_map() {
    let _: Option<std::collections::HashMap<u8, u8>> = None;
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn hash_set() {
    let _: Option<std::collections::HashSet<u8>> = None;
}

#[test]
#[expect(clippy::disallowed_types, reason = "canary")]
fn random_state() {
    let _: Option<std::collections::hash_map::RandomState> = None;
}

#[test]
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "canary"
)]
fn instant_now() {
    let _ = std::time::Instant::now();
}

#[test]
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "canary"
)]
fn system_time_now() {
    let _ = std::time::SystemTime::now();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "canary")]
fn thread_spawn() {
    let _ = std::thread::spawn(|| ());
}

#[test]
#[expect(clippy::disallowed_methods, reason = "canary")]
fn builder_spawn() {
    let _ = std::thread::Builder::new().spawn(|| ());
}

/// Two canaries: a hit meets only its innermost expectation, so the
/// outer one is `std::thread::scope`'s and the inner one
/// `Builder::spawn_scoped`'s (which needs the scope).
#[test]
#[expect(clippy::disallowed_methods, reason = "canary")]
fn thread_scope() {
    std::thread::scope(|s| {
        #[expect(clippy::disallowed_methods, reason = "canary")]
        let _ = std::thread::Builder::new().spawn_scoped(s, || ());
    });
}

#[test]
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "canary"
)]
fn random_state_new() {
    let _ = std::collections::hash_map::RandomState::new();
}
