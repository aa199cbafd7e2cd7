//! The runtime's view of the exchange schedule (§3.3). The schedule
//! itself — pairs, element sets, gather/scatter offsets — is built and
//! memoized by `regent_cr::schedule`; this module re-exports its types
//! and gives every SPMD-family executor one way to obtain it that also
//! accounts for what the run paid.

use crate::metrics::{self, Counter, Timer};
use regent_cr::SpmdProgram;
use std::sync::Arc;
use std::time::Instant;

pub use regent_cr::schedule::{
    build_exchange_plan, ExchangePlan, ExchangeSchedule, InstKey, PairPlan, SetupStats,
};

/// The schedule a run of `spmd` executes, and the [`SetupStats`] that
/// run reports: the sizes always, the inspector timings only when this
/// call built the schedule (0 when it was already cached). Builds are
/// counted and timed on the always-on metrics registry.
pub(crate) fn schedule_for_run(spmd: &SpmdProgram) -> (Arc<ExchangeSchedule>, SetupStats) {
    let t0 = Instant::now();
    let (schedule, built) = spmd.schedule();
    let mut setup = schedule.setup;
    if built {
        let mut mx = metrics::global().handle("schedule");
        mx.incr(Counter::ScheduleBuilds);
        mx.record_ns(Timer::ScheduleBuildNs, t0.elapsed().as_nanos() as u64);
    } else {
        setup = SetupStats {
            num_pairs: setup.num_pairs,
            total_elements: setup.total_elements,
            ..SetupStats::default()
        };
    }
    (schedule, setup)
}
