//! The golden-snapshot check shared by the integration tests that pin a
//! JSON document under `tests/golden/`.
//!
//! Regenerate a golden after an intentional change by running its test
//! with `REDBIN_REGEN_GOLDEN=1`, then review `git diff tests/golden/`.

use std::path::PathBuf;

/// `tests/golden/`, from the manifest directory of any `crates/*` package.
pub fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

/// First line where two documents differ, with context for the failure
/// message.
fn first_diff(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: expected `{la}`, got `{lb}`", i + 1);
        }
    }
    format!(
        "lengths differ: expected {} lines, got {}",
        a.lines().count(),
        b.lines().count()
    )
}

/// Panics unless `text`, the golden `name`, parses as JSON: a golden that
/// does not parse no longer pins a document any consumer could read.
fn assert_parses(name: &str, text: &str) {
    if let Err(e) = redbin::json::parse(text) {
        panic!("golden {name} is not valid JSON: {e}");
    }
}

/// Compares `rendered` byte for byte with the committed golden `name`,
/// after checking that the golden parses. Under `REDBIN_REGEN_GOLDEN` it
/// checks that `rendered` parses and writes it as the new golden instead.
pub fn check_golden(name: &str, rendered: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("REDBIN_REGEN_GOLDEN").is_some() {
        assert_parses(name, rendered);
        std::fs::create_dir_all(golden_dir()).expect("golden dir");
        std::fs::write(&path, rendered).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with REDBIN_REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_parses(name, &expected);
    assert!(
        expected == rendered,
        "golden mismatch for {name}: {}\n\
         If the change is intentional, regenerate with REDBIN_REGEN_GOLDEN=1 \
         and review `git diff tests/golden/`.",
        first_diff(&expected, rendered)
    );
}
