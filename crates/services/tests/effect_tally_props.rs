//! `Ledger::exactly_once_violations` answers from one tally of the effect
//! log; the per-key counters `applied_count` / `committed_count` /
//! `dangling_tentative_count` each scan the log. Over random logs the
//! audit must read exactly what composing the three counters reads.

use proptest::prelude::*;

use xability_core::{ActionName, Value};
use xability_services::{EffectKind, Ledger};
use xability_sim::SimTime;

const KINDS: [EffectKind; 4] = [
    EffectKind::Applied,
    EffectKind::Tentative,
    EffectKind::Reverted,
    EffectKind::Committed,
];

fn actions() -> [ActionName; 3] {
    [
        ActionName::idempotent("put"),
        ActionName::undoable("reserve"),
        ActionName::undoable("transfer"),
    ]
}

fn key(k: u32) -> Value {
    Value::from(format!("req-{k}"))
}

/// The audit as the per-key counters spell it.
fn composed(ledger: &Ledger, requests: &[(ActionName, Value)]) -> Vec<String> {
    let mut out = Vec::new();
    for (action, key) in requests {
        if action.is_idempotent() {
            let n = ledger.applied_count(action, key);
            if n != 1 {
                out.push(format!(
                    "idempotent request ({action}, {key}) applied its effect {n} times (want 1)"
                ));
            }
        } else {
            let n = ledger.committed_count(action, key);
            if n != 1 {
                out.push(format!(
                    "undoable request ({action}, {key}) committed {n} times (want 1)"
                ));
            }
            let dangling = ledger.dangling_tentative_count(action, key);
            if dangling != 0 {
                out.push(format!(
                    "undoable request ({action}, {key}) left {dangling} dangling tentative effect(s)"
                ));
            }
        }
    }
    out.extend(ledger.violations().iter().cloned());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Effects are drawn over 3 actions × 3 keys × 3 rounds × 4 kinds, so
    /// logs mix kinds freely (applied records on undoable actions,
    /// commits without a tentative, duplicates, gaps); requests also name
    /// a fourth key no effect carries, and may repeat.
    #[test]
    fn audit_equals_the_per_key_counters(
        effects in prop::collection::vec(0u32..108, 0..60),
        requests in prop::collection::vec(0u32..12, 0..12),
        violations in 0usize..3,
    ) {
        let actions = actions();
        let mut ledger = Ledger::without_monitor();
        for (i, code) in effects.iter().enumerate() {
            let (action, rest) = (&actions[(code % 3) as usize], code / 3);
            let (k, rest) = (rest % 3, rest / 3);
            let (round, kind) = (u64::from(rest % 3), KINDS[(rest / 3) as usize]);
            ledger.record_effect(action.clone(), key(k), round, kind, SimTime::from_millis(i as u64));
        }
        for v in 0..violations {
            ledger.record_violation(format!("service-level violation {v}"));
        }
        let requests: Vec<(ActionName, Value)> = requests
            .iter()
            .map(|code| (actions[(code % 3) as usize].clone(), key(code / 3)))
            .collect();
        prop_assert_eq!(ledger.exactly_once_violations(&requests), composed(&ledger, &requests));
    }
}
