//! The Spy-style validator: certifies from an event log alone that the
//! execution honored every data dependence of the (sequential-semantics)
//! source program.
//!
//! The check mirrors §2.1 of the paper: any two task accesses to
//! overlapping data with incompatible privileges must be ordered, and
//! the later task (in *launch* order — the program's sequential
//! semantics) must observe the earlier task's effect. On a single
//! shared instance that means plain happens-before. Across the
//! distributed executor's per-shard instances it means a *delivery*:
//! some `CopyApply` into the consumer's instance, before the consumer
//! runs, that happens-after the producer (the consumer-applied copy
//! protocol of §3.4). Reductions into identity-initialized temporaries
//! (§4.3) need no prior data, so a mutation followed by a `Reduce`
//! access on a fresh instance is certified without a delivery.
//!
//! Whether two logical regions may share elements is delegated to an
//! [`OverlapOracle`], keeping this crate independent of the region
//! forest implementation.

use crate::event::{CorruptSite, EventKind, PrivCode};
use crate::graph::{build_graph, EventGraph};
use crate::tracer::Trace;
use std::collections::{BTreeMap, HashMap};

/// Answers "may these two logical regions share elements?". Must be
/// conservative: returning `true` for disjoint regions only costs
/// precision (possible false violations), never soundness of a pass.
pub trait OverlapOracle {
    /// May regions `a` and `b` (by id) alias?
    fn overlaps(&self, a: u32, b: u32) -> bool;
}

/// One certified-failed dependence.
#[derive(Debug)]
pub struct Violation {
    /// What failed: `"unordered"`, `"missing-delivery"`,
    /// `"stale-delivery"`, or `"unrepaired-corruption"`.
    pub kind: &'static str,
    /// Earlier task `(launch, pos)` in program order.
    pub first: (u32, u32),
    /// Later task `(launch, pos)`.
    pub second: (u32, u32),
    /// The regions the conflicting accesses touched.
    pub regions: (u32, u32),
    /// Human-readable description.
    pub detail: String,
}

/// Outcome of a validation run.
#[derive(Debug, Default)]
pub struct SpyReport {
    /// Distinct tasks `(launch, pos)` with recorded accesses.
    pub tasks: usize,
    /// Conflicting access pairs that required certification.
    pub pairs_checked: usize,
    /// Pairs successfully certified.
    pub certified: usize,
    /// Pairs that could not be certified.
    pub violations: Vec<Violation>,
}

impl SpyReport {
    /// True when every dependence was certified.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary.
    pub fn summary(&self) -> String {
        format!(
            "spy: {} tasks, {} conflicting pairs, {} certified, {} violations",
            self.tasks,
            self.pairs_checked,
            self.certified,
            self.violations.len()
        )
    }
}

#[derive(Clone, Copy)]
struct Access {
    region: u32,
    inst: u64,
    fields: u64,
    privilege: PrivCode,
}

#[derive(Clone, Copy)]
struct ApplyRec {
    node: u32,
    idx: usize,
    region: u32,
    inst: u64,
    fields: u64,
}

/// Validates `trace` against the sequential semantics of its program.
///
/// `Err` means the log itself is not a well-formed execution record
/// (happens-before cycle, a `CopyApply` with no matching `CopyIssue`,
/// or an access by a task whose run was never recorded) — distinct
/// from an `Ok` report carrying violations, which means the log is
/// well-formed but records a racy execution.
pub fn validate(trace: &Trace, oracle: &dyn OverlapOracle) -> Result<SpyReport, String> {
    let dropped: u64 = trace.tracks.iter().map(|t| t.dropped).sum();
    if dropped > 0 {
        return Err(format!(
            "incomplete log: {dropped} event(s) lost to ring wrap-around; a truncated \
             record cannot be certified"
        ));
    }
    let g = build_graph(trace)?;
    if !g.unmatched_applies.is_empty() {
        return Err(format!(
            "corrupted log: {} CopyApply event(s) have no matching CopyIssue",
            g.unmatched_applies.len()
        ));
    }

    // Accesses grouped by task; BTreeMap iteration gives launch order.
    let mut tasks: BTreeMap<(u32, u32), Vec<Access>> = BTreeMap::new();
    for track in &trace.tracks {
        for e in &track.events {
            if let EventKind::TaskAccess {
                launch,
                pos,
                region,
                inst,
                fields,
                privilege,
            } = e.kind
            {
                tasks.entry((launch, pos)).or_default().push(Access {
                    region,
                    inst,
                    fields,
                    privilege,
                });
            }
        }
    }

    // Run node per task (required for ordering queries).
    let mut run_of: HashMap<(u32, u32), u32> = HashMap::new();
    for &key in tasks.keys() {
        match g.run_of(key.0, key.1) {
            Some(r) => {
                run_of.insert(key, r);
            }
            None => {
                return Err(format!(
                    "corrupted log: task L{}[{}] has accesses but no recorded run",
                    key.0, key.1
                ));
            }
        }
    }

    // Applies per destination track, in track order.
    let mut applies: HashMap<usize, Vec<ApplyRec>> = HashMap::new();
    for (i, node) in g.nodes.iter().enumerate() {
        if let EventKind::CopyApply {
            region,
            inst,
            fields,
            ..
        } = node.event.kind
        {
            applies.entry(node.track).or_default().push(ApplyRec {
                node: i as u32,
                idx: node.idx,
                region,
                inst,
                fields,
            });
        }
    }
    let no_applies: Vec<ApplyRec> = Vec::new();

    let keys: Vec<(u32, u32)> = tasks.keys().copied().collect();
    let mut report = SpyReport {
        tasks: keys.len(),
        ..SpyReport::default()
    };

    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            let (t1, t2) = (keys[i], keys[j]);
            // Point tasks of one index launch are non-interfering by
            // construction (the launcher checked); skip them.
            if t1.0 == t2.0 {
                continue;
            }
            let r1 = run_of[&t1];
            let r2 = run_of[&t2];
            for a1 in &tasks[&t1] {
                for a2 in &tasks[&t2] {
                    if a1.privilege.compatible(a2.privilege) {
                        continue;
                    }
                    if a1.fields & a2.fields == 0 {
                        continue;
                    }
                    if !oracle.overlaps(a1.region, a2.region) {
                        continue;
                    }
                    report.pairs_checked += 1;
                    check_pair(
                        &g,
                        &applies,
                        &no_applies,
                        oracle,
                        (t1, r1, a1),
                        (t2, r2, a2),
                        &mut report,
                    );
                }
            }
        }
    }

    // Integrity coherence: a run that finished with a detected
    // corruption left unhandled cannot be certified. Exchange and
    // collective detections must be followed on the same track by a
    // matching repair; resident detections by an escalation or a
    // checkpoint rollback.
    for track in &trace.tracks {
        let mut outstanding: Vec<(CorruptSite, u32, u32, u64)> = Vec::new();
        for e in &track.events {
            match e.kind {
                EventKind::CorruptDetected {
                    site,
                    id,
                    sub,
                    epoch,
                } => outstanding.push((site, id, sub, epoch)),
                EventKind::CorruptRepaired { site, id, sub, .. } => {
                    outstanding.retain(|&(s, i, u, _)| (s, i, u) != (site, id, sub));
                }
                EventKind::CorruptEscalated { .. } | EventKind::CheckpointRestore { .. } => {
                    outstanding.retain(|&(s, ..)| s != CorruptSite::Resident);
                }
                _ => {}
            }
        }
        for (site, id, sub, epoch) in outstanding {
            report.violations.push(Violation {
                kind: "unrepaired-corruption",
                first: (id, sub),
                second: (id, sub),
                regions: (0, 0),
                detail: format!(
                    "track {:?}: corruption detected at {site:?} site {id}.{sub} \
                     during epoch {epoch} was neither repaired nor escalated",
                    track.name
                ),
            });
        }
    }
    Ok(report)
}

/// Certifies one conflicting pair, `t1` earlier in launch order.
#[allow(clippy::too_many_arguments)]
fn check_pair(
    g: &EventGraph,
    applies: &HashMap<usize, Vec<ApplyRec>>,
    no_applies: &[ApplyRec],
    oracle: &dyn OverlapOracle,
    (t1, r1, a1): ((u32, u32), u32, &Access),
    (t2, r2, a2): ((u32, u32), u32, &Access),
    report: &mut SpyReport,
) {
    let violate = |report: &mut SpyReport, kind, detail: String| {
        report.violations.push(Violation {
            kind,
            first: t1,
            second: t2,
            regions: (a1.region, a2.region),
            detail,
        });
    };

    if a1.inst == a2.inst {
        // Shared instance: plain happens-before, in program direction.
        if g.reaches(r1, r2) {
            report.certified += 1;
        } else {
            violate(
                report,
                "unordered",
                format!(
                    "tasks L{}[{}] and L{}[{}] access instance {:#x} with \
                     conflicting privileges but no happens-before ordering",
                    t1.0, t1.1, t2.0, t2.1, a1.inst
                ),
            );
        }
        return;
    }

    // Distinct instances: the later task sees the earlier one's effect
    // only through the copy protocol.
    let track2 = g.nodes[r2 as usize].track;
    let idx2 = g.nodes[r2 as usize].idx;
    let apps2 = applies
        .get(&track2)
        .map(|v| v.as_slice())
        .unwrap_or(no_applies);

    if a1.privilege.mutates() {
        if matches!(a2.privilege, PrivCode::Reduce(_)) {
            // Reduction into an identity-initialized instance (§4.3)
            // reads no prior data; nothing to deliver.
            report.certified += 1;
            return;
        }
        // RAW (and read-write WAW): t2 reads its instance, so t1's
        // version must have been applied to it first.
        let delivered = apps2.iter().any(|a| {
            a.idx < idx2
                && a.inst == a2.inst
                && a.fields & a2.fields != 0
                && oracle.overlaps(a.region, a2.region)
                && g.reaches(r1, a.node)
        });
        if delivered {
            report.certified += 1;
        } else {
            violate(
                report,
                "missing-delivery",
                format!(
                    "L{}[{}] mutated region {} but no copy carrying its data \
                     was applied to instance {:#x} before L{}[{}] ran",
                    t1.0, t1.1, a1.region, a2.inst, t2.0, t2.1
                ),
            );
        }
        return;
    }

    // WAR: t1 read its instance, t2 mutates a different one. The only
    // failure mode is t1's instance being refreshed with t2's (future)
    // data before t1 read it.
    let track1 = g.nodes[r1 as usize].track;
    let idx1 = g.nodes[r1 as usize].idx;
    let apps1 = applies
        .get(&track1)
        .map(|v| v.as_slice())
        .unwrap_or(no_applies);
    let stale = apps1.iter().any(|a| {
        a.idx < idx1
            && a.inst == a1.inst
            && a.fields & a1.fields != 0
            && oracle.overlaps(a.region, a1.region)
            && g.reaches(r2, a.node)
    });
    if stale {
        violate(
            report,
            "stale-delivery",
            format!(
                "L{}[{}] read instance {:#x} after a copy reachable from the \
                 later writer L{}[{}] was applied to it",
                t1.0, t1.1, a1.inst, t2.0, t2.1
            ),
        );
    } else {
        report.certified += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::tracer::Track;

    /// Treats every region pair as overlapping: the traces below touch
    /// one region tree with no disjoint partitions.
    struct EveryPair;

    impl OverlapOracle for EveryPair {
        fn overlaps(&self, _a: u32, _b: u32) -> bool {
            true
        }
    }

    fn ev(ts: u64, dur: u64, kind: EventKind) -> Event {
        Event { ts, dur, kind }
    }

    fn run(l: u32, p: u32) -> EventKind {
        EventKind::TaskRun {
            launch: l,
            pos: p,
            task: 0,
        }
    }

    fn access(
        l: u32,
        p: u32,
        region: u32,
        inst: u64,
        fields: u64,
        privilege: PrivCode,
    ) -> EventKind {
        EventKind::TaskAccess {
            launch: l,
            pos: p,
            region,
            inst,
            fields,
            privilege,
        }
    }

    fn trace_of(tracks: Vec<(&str, Vec<Event>)>) -> Trace {
        Trace {
            tracks: tracks
                .into_iter()
                .map(|(name, events)| Track {
                    name: name.into(),
                    events,
                    dropped: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn unrepaired_corruption_is_a_violation() {
        let det = |site, id, sub| EventKind::CorruptDetected {
            site,
            id,
            sub,
            epoch: 1,
        };
        // Repaired exchange + escalated resident: certifiable.
        let good = trace_of(vec![(
            "shard-0",
            vec![
                ev(0, 0, det(CorruptSite::Exchange, 2, 1)),
                ev(
                    1,
                    0,
                    EventKind::CorruptRepaired {
                        site: CorruptSite::Exchange,
                        id: 2,
                        sub: 1,
                        attempts: 1,
                    },
                ),
                ev(2, 0, det(CorruptSite::Resident, 0, 0)),
                ev(3, 0, EventKind::CorruptEscalated { shard: 0, epoch: 1 }),
            ],
        )]);
        assert!(validate(&good, &EveryPair).unwrap().ok());

        // Detection with no repair: violation.
        let bad = trace_of(vec![(
            "shard-0",
            vec![ev(0, 0, det(CorruptSite::Exchange, 2, 1))],
        )]);
        let r = validate(&bad, &EveryPair).unwrap();
        assert!(!r.ok());
        assert_eq!(r.violations[0].kind, "unrepaired-corruption");

        // A repair of a *different* payload does not clear it; nor does
        // an escalation (escalation only resolves resident sites).
        let wrong = trace_of(vec![(
            "shard-0",
            vec![
                ev(0, 0, det(CorruptSite::Exchange, 2, 1)),
                ev(
                    1,
                    0,
                    EventKind::CorruptRepaired {
                        site: CorruptSite::Exchange,
                        id: 2,
                        sub: 2,
                        attempts: 1,
                    },
                ),
                ev(2, 0, EventKind::CorruptEscalated { shard: 0, epoch: 1 }),
            ],
        )]);
        assert!(!validate(&wrong, &EveryPair).unwrap().ok());
    }

    #[test]
    fn ordered_shared_instance_is_certified() {
        let trace = trace_of(vec![(
            "w0",
            vec![
                ev(0, 1, run(0, 0)),
                ev(0, 0, access(0, 0, 1, 10, 1, PrivCode::Write)),
                ev(5, 1, run(1, 0)),
                ev(5, 0, access(1, 0, 1, 10, 1, PrivCode::Read)),
            ],
        )]);
        let r = validate(&trace, &EveryPair).unwrap();
        assert_eq!(r.pairs_checked, 1);
        assert_eq!(r.certified, 1);
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn unordered_shared_instance_is_a_violation() {
        let trace = trace_of(vec![
            (
                "w0",
                vec![
                    ev(0, 1, run(0, 0)),
                    ev(0, 0, access(0, 0, 1, 10, 1, PrivCode::Write)),
                ],
            ),
            (
                "w1",
                vec![
                    ev(0, 1, run(1, 0)),
                    ev(0, 0, access(1, 0, 1, 10, 1, PrivCode::Read)),
                ],
            ),
        ]);
        let r = validate(&trace, &EveryPair).unwrap();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, "unordered");
    }

    #[test]
    fn raw_across_instances_needs_a_delivery() {
        let issue = EventKind::CopyIssue {
            copy: 0,
            pair: 0,
            seq: 0,
            elements: 8,
            dst_shard: 1,
        };
        let apply = EventKind::CopyApply {
            copy: 0,
            pair: 0,
            seq: 0,
            region: 1,
            inst: 20,
            fields: 1,
            reduce: false,
        };
        let with_delivery = trace_of(vec![
            (
                "shard-0",
                vec![
                    ev(0, 1, run(0, 0)),
                    ev(0, 0, access(0, 0, 1, 10, 1, PrivCode::Write)),
                    ev(2, 1, issue),
                ],
            ),
            (
                "shard-1",
                vec![
                    ev(4, 1, apply),
                    ev(6, 1, run(1, 0)),
                    ev(6, 0, access(1, 0, 1, 20, 1, PrivCode::Read)),
                ],
            ),
        ]);
        let r = validate(&with_delivery, &EveryPair).unwrap();
        assert!(r.ok(), "{:?}", r.violations);
        assert_eq!(r.certified, 1);

        // Same trace with the apply (and its issue) stripped: the
        // reader never received the writer's data.
        let without = trace_of(vec![
            (
                "shard-0",
                vec![
                    ev(0, 1, run(0, 0)),
                    ev(0, 0, access(0, 0, 1, 10, 1, PrivCode::Write)),
                ],
            ),
            (
                "shard-1",
                vec![
                    ev(6, 1, run(1, 0)),
                    ev(6, 0, access(1, 0, 1, 20, 1, PrivCode::Read)),
                ],
            ),
        ]);
        let r = validate(&without, &EveryPair).unwrap();
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].kind, "missing-delivery");
    }

    #[test]
    fn reduction_into_fresh_instance_needs_no_delivery() {
        let trace = trace_of(vec![
            (
                "shard-0",
                vec![
                    ev(0, 1, run(0, 0)),
                    ev(0, 0, access(0, 0, 1, 10, 1, PrivCode::Write)),
                ],
            ),
            (
                "shard-1",
                vec![
                    ev(2, 1, run(1, 0)),
                    ev(2, 0, access(1, 0, 1, 30, 1, PrivCode::Reduce(0))),
                ],
            ),
        ]);
        let r = validate(&trace, &EveryPair).unwrap();
        assert!(r.ok(), "{:?}", r.violations);
    }

    #[test]
    fn disjoint_fields_and_regions_are_skipped() {
        struct Disjoint;
        impl OverlapOracle for Disjoint {
            fn overlaps(&self, _a: u32, _b: u32) -> bool {
                false
            }
        }
        let base = |oracle: &dyn OverlapOracle, f1: u64, f2: u64| {
            let trace = trace_of(vec![
                (
                    "w0",
                    vec![
                        ev(0, 1, run(0, 0)),
                        ev(0, 0, access(0, 0, 1, 10, f1, PrivCode::Write)),
                    ],
                ),
                (
                    "w1",
                    vec![
                        ev(0, 1, run(1, 0)),
                        ev(0, 0, access(1, 0, 2, 11, f2, PrivCode::Write)),
                    ],
                ),
            ]);
            validate(&trace, oracle).unwrap()
        };
        // Disjoint field masks: never a pair.
        let r = base(&EveryPair, 0b01, 0b10);
        assert_eq!(r.pairs_checked, 0);
        // Overlapping fields but provably disjoint regions: skipped.
        let r = base(&Disjoint, 0b1, 0b1);
        assert_eq!(r.pairs_checked, 0);
    }

    #[test]
    fn corrupted_log_is_a_structural_error() {
        // Apply without issue.
        let trace = trace_of(vec![(
            "shard-1",
            vec![ev(
                0,
                1,
                EventKind::CopyApply {
                    copy: 0,
                    pair: 0,
                    seq: 0,
                    region: 1,
                    inst: 20,
                    fields: 1,
                    reduce: false,
                },
            )],
        )]);
        assert!(validate(&trace, &EveryPair).is_err());
        // Access without a run.
        let trace = trace_of(vec![(
            "w0",
            vec![ev(0, 0, access(0, 0, 1, 10, 1, PrivCode::Write))],
        )]);
        assert!(validate(&trace, &EveryPair).is_err());
    }

    #[test]
    fn dropped_events_block_certification() {
        // A perfectly clean log that lost even one event is incomplete:
        // it must be rejected up front, not silently certified.
        let mut trace = trace_of(vec![(
            "w0",
            vec![
                ev(0, 1, run(0, 0)),
                ev(0, 0, access(0, 0, 1, 10, 1, PrivCode::Write)),
            ],
        )]);
        assert!(validate(&trace, &EveryPair).is_ok());
        trace.tracks[0].dropped = 1;
        let err = validate(&trace, &EveryPair).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
    }
}
