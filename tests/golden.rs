//! Cross-build behaviour pin: the checked-in golden signatures
//! (`results/golden-signatures.json`) must verify against this build —
//! the same check as `ofar-bench golden --verify`. A PR that
//! changes simulated behaviour re-emits the table and says why; a PR
//! that claims behaviour identity must not touch it.

use std::path::Path;

#[test]
fn checked_in_golden_signatures_verify() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/golden-signatures.json");
    ofar::golden::verify(&path).unwrap_or_else(|e| panic!("{e}"));
}
