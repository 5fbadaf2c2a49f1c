//! The chaoscheck quick matrix as an integration test: every fault ×
//! scenario cell must end in a typed error or a recovery — never a panic
//! or a hang. This is the same sweep `scripts/verify.sh` runs via the
//! `chaoscheck --quick` binary; running it here too keeps the contract
//! under plain `cargo test`.
//!
//! One test function on purpose: faultkit plans and `SKETCH_MEM_BUDGET`
//! are process-global, and this integration-test binary is the only code
//! in its process — the harness must not share it with other arming tests.

use bench::chaos::{self, ChaosConfig, Outcome};

#[test]
fn quick_matrix_never_panics_or_hangs() {
    // Counters on: `recovered` cells are classified off the recovery
    // counter deltas (sap.retries / sap.fallback_svd).
    obskit::set_enabled(true);
    obskit::reset();

    let cfg = ChaosConfig::quick();
    let cells = chaos::run_matrix(&cfg, true);
    assert!(!cells.is_empty());

    for c in &cells {
        assert!(
            !matches!(c.outcome, Outcome::Panicked | Outcome::Hung),
            "{} x {} -> {}: {}",
            c.scenario,
            c.fault,
            c.outcome.label(),
            c.detail
        );
        // The baseline column: with no fault armed every scenario succeeds
        // without engaging any recovery machinery.
        if c.fault == "none" {
            assert_eq!(
                c.outcome,
                Outcome::CleanOk,
                "{} unfaulted should be clean: {}",
                c.scenario,
                c.detail
            );
        }
        // Structural corruption is never recoverable — the validator must
        // reject it with a typed error before any kernel touches it.
        if c.fault.starts_with("corrupt_") {
            assert_eq!(
                c.outcome,
                Outcome::TypedError,
                "{} x {} should be rejected by validation: {}",
                c.scenario,
                c.fault,
                c.detail
            );
        }
        // An output one byte over the memory budget is refused up front,
        // and SAP does not retry it.
        if c.fault == "tight_budget" {
            assert_eq!(
                c.outcome,
                Outcome::TypedError,
                "{} over budget should be refused: {}",
                c.scenario,
                c.detail
            );
        }
    }
}
