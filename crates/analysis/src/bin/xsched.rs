//! The `xsched` driver: exhaustively explore every interleaving model and
//! verify the enumeration counts and the broken-variant catches. Prints
//! one line per model; writes no file.
//!
//! ```text
//! cargo run -p xability-analysis --bin xsched
//! ```

use std::process::ExitCode;

use xability_analysis::sched::dirty::DirtyModel;
use xability_analysis::sched::intern::{BrokenInterner, InternModel};
use xability_analysis::sched::seglog::{BrokenLog, SeglogModel};
use xability_analysis::sched::{binomial, explore, Explored, Interleave};
use xability_core::seglog::AppendLog;
use xability_core::Interner;

/// One explored model plus its expectation.
struct ModelRun {
    explored: Explored,
    /// `true` for deliberately broken variants, whose *job* is to be
    /// caught (violations > 0); correct models must be clean.
    expect_caught: bool,
}

fn run<M: Interleave, F: FnMut() -> M>(name: &str, fresh: F, expect_caught: bool) -> ModelRun {
    ModelRun {
        explored: explore(name, fresh),
        expect_caught,
    }
}

fn main() -> ExitCode {
    let runs = vec![
        run(
            "seglog-snapshot-vs-append",
            SeglogModel::<AppendLog<u32>>::standard,
            false,
        ),
        run(
            "interner-insert-vs-probe",
            InternModel::<Interner>::standard,
            false,
        ),
        run(
            "dirty-aggregate-push-vs-verdict",
            DirtyModel::standard,
            false,
        ),
        run(
            "seglog-broken-missing-cow",
            SeglogModel::<BrokenLog>::standard,
            true,
        ),
        run(
            "interner-broken-live-reader",
            InternModel::<BrokenInterner>::standard,
            true,
        ),
    ];

    let mut failed = false;
    for r in &runs {
        let e = &r.explored;
        let (a, b) = e.ops;
        let expected = binomial((a + b) as u64, a as u64);
        let exhaustive = e.schedules == expected;
        let verdict_ok = if r.expect_caught {
            e.violations > 0 && e.violations < e.schedules
        } else {
            e.violations == 0
        };
        println!(
            "xsched: {:34} {:4} schedules ({} expected), {:5} states, {:3} violations {}",
            e.model,
            e.schedules,
            expected,
            e.states,
            e.violations,
            if exhaustive && verdict_ok {
                "ok"
            } else {
                "FAILED"
            }
        );
        if let (false, Some(v)) = (r.expect_caught, &e.first_violation) {
            eprintln!("xsched: {}: {v}", e.model);
        }
        if !(exhaustive && verdict_ok) {
            failed = true;
        }
    }

    let total_schedules: u64 = runs.iter().map(|r| r.explored.schedules).sum();
    let total_states: u64 = runs.iter().map(|r| r.explored.states).sum();
    println!(
        "xsched: {total_schedules} schedules, {total_states} states across {} models",
        runs.len()
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
