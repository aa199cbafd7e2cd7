//! Epoch-trace memoization for the implicit executor — the runtime-level
//! answer to the paper's O(N)-per-step control overhead.
//!
//! The implicit executor's control thread pays dynamic dependence
//! analysis for every point task (§1, §4.1). Control replication removes
//! that cost statically; Legion's production answer for the dynamic path
//! is *trace memoization*: capture one epoch's analysis, then replay it
//! at ~O(1) per task. This module reproduces that mechanism:
//!
//! * Every launch in an epoch (one outermost-loop iteration) is hashed
//!   into a launch signature (`launch_sig`) over its task id, launch
//!   point, and resolved region requirements/privileges — everything
//!   the dependence analysis consumes, and nothing it does not (scalar
//!   *values* are excluded: a changing `dt` does not perturb the
//!   schedule).
//! * At the epoch boundary the signature sequence folds into an
//!   epoch key (`epoch_key`). On first occurrence the executor runs
//!   full analysis and records the resulting intra-epoch conflict edges
//!   as an [`EpochTemplate`] in a [`MemoCache`].
//! * When the next epoch is predicted to match a cached template, the
//!   executor quiesces the worker pool (a trace fence: everything
//!   before the epoch happens-before everything in it) and *replays*
//!   the template launch by launch, validating each launch's signature
//!   against the template instead of scanning the in-flight window.
//!   Any divergence falls back transparently to full analysis for the
//!   rest of the epoch.
//! * Templates are validated against the region forest's structural
//!   [`version`](regent_region::RegionForest::version): any region or
//!   partition created since capture invalidates the whole cache (the
//!   conflict edges were derived from a region tree that no longer
//!   exists).
//!
//! The cache is shareable across executions
//! ([`MemoCache::shared`]) so steady-state programs re-entered with the
//! same region forest replay from their very first epoch.

use regent_geometry::DynPoint;
use regent_ir::Privilege;
use regent_region::RegionId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Structural signature of one point-task launch: the task, the launch
/// point, and every region requirement (region identity + privilege).
/// Two launches with equal signatures are interchangeable inputs to the
/// dependence analysis on an unchanged region forest.
pub(crate) fn launch_sig(
    task: u32,
    point: &DynPoint,
    accesses: impl IntoIterator<Item = (RegionId, Privilege)>,
) -> u64 {
    let mut h = mix(FNV_OFFSET, task as u64);
    h = mix(h, point.dim() as u64);
    for &c in point.coords() {
        h = mix(h, c as u64);
    }
    for (r, p) in accesses {
        h = mix(h, r.0 as u64);
        let code = match p {
            Privilege::Read => 1u64,
            Privilege::ReadWrite => 2,
            Privilege::Reduce(op) => 3 + op as u64,
        };
        h = mix(h, code);
    }
    h
}

/// Folds an epoch's launch-signature sequence into its cache key.
pub(crate) fn epoch_key(sigs: &[u64]) -> u64 {
    let mut h = mix(FNV_OFFSET, sigs.len() as u64);
    for &s in sigs {
        h = mix(h, s);
    }
    h
}

/// One captured epoch schedule: the launch-signature sequence and, per
/// launch, the indices (within the epoch) of the earlier launches it
/// conflicts with — the complete intra-epoch slice of the dependence
/// graph. Replay re-applies exactly these edges; everything before the
/// epoch is ordered by the trace fence.
#[derive(Clone, Debug)]
pub struct EpochTemplate {
    /// The epoch key (`epoch_key` of `launch_sigs`).
    pub key: u64,
    /// Per-launch structural signatures, in issue order.
    pub launch_sigs: Vec<u64>,
    /// Per-launch intra-epoch predecessor indices (each `< ` its own
    /// position).
    pub edges: Vec<Vec<u32>>,
    /// Region-forest version the analysis was captured against.
    pub forest_version: u64,
    /// Dependence checks ([`crate::ImplicitStats::dependence_checks`])
    /// the capture paid — the cost a replay of this template avoids.
    pub capture_checks: u64,
}

impl EpochTemplate {
    /// Point tasks the template covers.
    pub(crate) fn len(&self) -> usize {
        self.launch_sigs.len()
    }

    /// True for a template over an empty epoch.
    pub(crate) fn is_empty(&self) -> bool {
        self.launch_sigs.is_empty()
    }
}

/// Cumulative memoization counters (lifetime of the cache, across every
/// execution that shared it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Epochs captured as templates.
    pub captures: u64,
    /// Epochs fully replayed from a template.
    pub hits: u64,
    /// Replay attempts that diverged and fell back to analysis.
    pub misses: u64,
    /// Cache invalidations (forest version changes).
    pub invalidations: u64,
    /// Point tasks issued without any dependence analysis.
    pub replayed_tasks: u64,
}

/// The epoch-template cache: keyed by `epoch_key`, validated against
/// the region forest's structural version, shareable across executions
/// via [`MemoCache::shared`].
#[derive(Debug, Default)]
pub struct MemoCache {
    templates: HashMap<u64, EpochTemplate>,
    /// Forest version every cached template is valid for (`None` until
    /// the first validation).
    forest_version: Option<u64>,
    /// Key of the most recently completed epoch — the replay prediction
    /// for the next one (steady-state loops repeat their epoch).
    predicted: Option<u64>,
    /// Lifetime counters.
    pub stats: MemoStats,
}

impl MemoCache {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        MemoCache::default()
    }

    /// An empty cache behind the shared handle
    /// [`crate::ImplicitOptions::memo`] expects.
    pub fn shared() -> Arc<Mutex<MemoCache>> {
        Arc::new(Mutex::new(MemoCache::new()))
    }

    /// Validates the cache against the current forest version: on
    /// mismatch every template is dropped (their conflict edges were
    /// derived from a region tree that no longer exists) and the number
    /// of invalidated templates is returned; `0` means the cache is
    /// still valid.
    pub(crate) fn validate_forest(&mut self, version: u64) -> usize {
        match self.forest_version {
            Some(v) if v == version => 0,
            Some(_) => {
                let dropped = self.templates.len();
                self.templates.clear();
                self.predicted = None;
                self.forest_version = Some(version);
                if dropped > 0 {
                    self.stats.invalidations += 1;
                }
                dropped
            }
            None => {
                self.forest_version = Some(version);
                0
            }
        }
    }

    /// The template for `key`, if cached.
    pub(crate) fn get(&self, key: u64) -> Option<&EpochTemplate> {
        self.templates.get(&key)
    }

    /// Stores a captured template (first occurrence wins: re-inserting
    /// an existing key is a no-op so replay-miss recaptures cannot
    /// clobber a template another epoch is predicted on).
    pub(crate) fn insert(&mut self, template: EpochTemplate) -> bool {
        if self.templates.contains_key(&template.key) {
            return false;
        }
        self.templates.insert(template.key, template);
        true
    }

    /// The replay prediction: the key of the most recently completed
    /// epoch, when a template for it exists.
    pub(crate) fn predicted_template(&self) -> Option<&EpochTemplate> {
        self.predicted.and_then(|k| self.templates.get(&k))
    }

    /// Records the key of a completed epoch as the prediction for the
    /// next.
    pub(crate) fn set_predicted(&mut self, key: u64) {
        self.predicted = Some(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_region::ReductionOp;

    fn acc(r: u32, p: Privilege) -> (RegionId, Privilege) {
        (RegionId(r), p)
    }

    #[test]
    fn signatures_depend_on_every_requirement() {
        let pt = DynPoint::new(&[3]);
        let base = launch_sig(1, &pt, [acc(4, Privilege::Read)]);
        assert_ne!(base, launch_sig(2, &pt, [acc(4, Privilege::Read)]));
        assert_ne!(
            base,
            launch_sig(1, &DynPoint::new(&[4]), [acc(4, Privilege::Read)])
        );
        assert_ne!(base, launch_sig(1, &pt, [acc(5, Privilege::Read)]));
        assert_ne!(base, launch_sig(1, &pt, [acc(4, Privilege::ReadWrite)]));
        assert_ne!(
            launch_sig(1, &pt, [acc(4, Privilege::Reduce(ReductionOp::Add))]),
            launch_sig(1, &pt, [acc(4, Privilege::Reduce(ReductionOp::Min))])
        );
        // Deterministic.
        assert_eq!(base, launch_sig(1, &pt, [acc(4, Privilege::Read)]));
    }

    #[test]
    fn epoch_keys_are_order_and_length_sensitive() {
        assert_ne!(epoch_key(&[1, 2]), epoch_key(&[2, 1]));
        assert_ne!(epoch_key(&[1]), epoch_key(&[1, 1]));
        assert_ne!(epoch_key(&[]), epoch_key(&[0]));
        assert_eq!(epoch_key(&[7, 9]), epoch_key(&[7, 9]));
    }

    fn template(key: u64, version: u64) -> EpochTemplate {
        EpochTemplate {
            key,
            launch_sigs: vec![key],
            edges: vec![vec![]],
            forest_version: version,
            capture_checks: 0,
        }
    }

    #[test]
    fn cache_validates_against_forest_version() {
        let mut c = MemoCache::new();
        assert_eq!(c.validate_forest(5), 0, "first validation just records");
        assert!(c.insert(template(1, 5)));
        assert!(!c.insert(template(1, 5)), "first occurrence wins");
        c.set_predicted(1);
        assert!(c.predicted_template().is_some());
        assert_eq!(c.validate_forest(5), 0, "same version keeps templates");
        assert_eq!(c.templates.len(), 1);
        assert_eq!(c.validate_forest(6), 1, "version change drops the cache");
        assert!(c.templates.is_empty());
        assert!(c.predicted_template().is_none());
        assert_eq!(c.stats.invalidations, 1);
        // Invalidating an already-empty cache is not an invalidation.
        assert_eq!(c.validate_forest(7), 0);
        assert_eq!(c.stats.invalidations, 1);
    }
}
