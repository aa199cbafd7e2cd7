//! Copy placement optimization (§3.2).
//!
//! "To improve copy placement, we employ variants of partial redundancy
//! elimination and loop invariant code motion. ... Loops are viewed as
//! operations on partitions" — the analyses below run at exactly that
//! granularity: a statement reads/writes *uses* (partitions or
//! whole-region replicas), and copies move data between uses.
//!
//! Two passes run over the structured SPMD body:
//!
//! * **Available-copy elimination** (forward): a copy `src → dst` is
//!   redundant when an identical copy is available on every path and
//!   neither `src` nor `dst` has been written since. Loops are solved to
//!   a fixpoint over the back edge.
//! * **Dead-copy elimination** (backward): a copy is dead when its
//!   destination is never read afterwards (on any path, including the
//!   loop back edge) and the destination is not flushed at
//!   finalization (i.e. it is not a written use).
//!
//! Initialization copies and the dynamic intersection computations are
//! already placed at program start by construction (the paper reaches
//! the same placement through LICM, §3.3: "the shallow intersections
//! were all lifted up to the beginning of the program execution").

use crate::spmd::{CopySource, SpmdArg, SpmdStmt, TempId, UseDecl};
use regent_ir::{Privilege, TaskDecl};
use std::collections::BTreeSet;

// ---------------------------------------------------------------------
// Elastic membership: shard-ownership remapping.
// ---------------------------------------------------------------------

/// The survivor relabeling that removes one dead shard from an N-shard
/// membership. A compiled SPMD program is shard-agnostic — ownership is
/// always *derived* from `(domain length, shard count)` through the
/// contiguous block split ([`crate::spmd::block_range`]) — so shrinking
/// the membership is purely a relabeling plus a re-derivation: survivor
/// `s` keeps its identity as `new_id(s)`, and every color's new owner
/// follows from the block split at `new_shards`. The executors' live
/// failover redistributes state by this plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MembershipRemap {
    /// Shards before the loss.
    pub old_shards: usize,
    /// Shards after the loss (`old_shards − 1`).
    pub new_shards: usize,
    /// The old shard id removed from the membership.
    pub dead: u32,
}

impl MembershipRemap {
    /// Plans the removal of `dead` from an `old_shards`-strong
    /// membership. `None` when the membership cannot shrink (already a
    /// single shard) or `dead` is not a member.
    pub fn shrink(old_shards: usize, dead: u32) -> Option<MembershipRemap> {
        if old_shards <= 1 || (dead as usize) >= old_shards {
            return None;
        }
        Some(MembershipRemap {
            old_shards,
            new_shards: old_shards - 1,
            dead,
        })
    }

    /// The old identity of new shard `new_shard`: survivors below the
    /// dead shard keep their id, survivors above shift down by one.
    pub fn old_id(&self, new_shard: usize) -> usize {
        debug_assert!(new_shard < self.new_shards);
        if new_shard < self.dead as usize {
            new_shard
        } else {
            new_shard + 1
        }
    }

    /// The new identity of surviving old shard `old_shard`; `None` for
    /// the dead shard.
    pub fn new_id(&self, old_shard: usize) -> Option<usize> {
        use std::cmp::Ordering;
        match (old_shard as u32).cmp(&self.dead) {
            Ordering::Less => Some(old_shard),
            Ordering::Equal => None,
            Ordering::Greater => Some(old_shard - 1),
        }
    }
}

/// Result of the placement passes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlacementStats {
    /// Copies removed by available-copy elimination.
    pub removed_redundant: usize,
    /// Copies removed by dead-copy elimination.
    pub removed_dead: usize,
}

/// A copy identity for availability tracking.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct CopyKey {
    src: SrcKey,
    dst: usize,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum SrcKey {
    Use(usize),
    Temp(u32),
}

fn src_key(s: CopySource) -> SrcKey {
    match s {
        CopySource::Use(u) => SrcKey::Use(u),
        CopySource::Temp(TempId(t)) => SrcKey::Temp(t),
    }
}

/// Runs both placement passes in order, mutating the body in place.
pub fn optimize(body: &mut Vec<SpmdStmt>, uses: &[UseDecl], tasks: &[TaskDecl]) -> PlacementStats {
    PlacementStats {
        removed_redundant: eliminate_redundant(body, tasks),
        removed_dead: eliminate_dead(body, uses, tasks),
    }
}

// ---------------------------------------------------------------------
// Forward pass: available copies.
// ---------------------------------------------------------------------

type Avail = BTreeSet<CopyKey>;

fn intersect(a: &Avail, b: &Avail) -> Avail {
    a.intersection(b).copied().collect()
}

/// Kills every availability fact invalidated by a write to use `u`.
fn kill_use(state: &mut Avail, u: usize) {
    state.retain(|k| k.dst != u && k.src != SrcKey::Use(u));
}

fn kill_temp(state: &mut Avail, t: TempId) {
    state.retain(|k| k.src != SrcKey::Temp(t.0));
}

/// Applies one statement's transfer function; when `remove` is set,
/// replaces redundant copies with `None` markers via the returned list.
fn fwd_transfer(
    stmts: &mut [SpmdStmt],
    state: &mut Avail,
    tasks: &[TaskDecl],
    remove: bool,
    removed: &mut Vec<bool>,
    idx_base: &mut usize,
) {
    for s in stmts.iter_mut() {
        let my_idx = *idx_base;
        *idx_base += 1;
        match s {
            SpmdStmt::Launch(l) => {
                let decl = &tasks[l.task.0 as usize];
                for (i, a) in l.args.iter().enumerate() {
                    match a {
                        SpmdArg::Use(u) => {
                            if matches!(decl.params[i].privilege, Privilege::ReadWrite) {
                                kill_use(state, *u);
                            }
                        }
                        SpmdArg::Temp(t) => kill_temp(state, *t),
                    }
                }
            }
            SpmdStmt::Copy(c) => {
                let key = CopyKey {
                    src: src_key(c.src),
                    dst: c.dst,
                };
                if state.contains(&key) {
                    if remove {
                        removed[my_idx] = true;
                    }
                } else {
                    // The copy writes its destination: any older fact
                    // about dst (as a source or destination) is stale.
                    kill_use(state, c.dst);
                    state.insert(key);
                }
            }
            SpmdStmt::ResetTemp(t) => kill_temp(state, *t),
            SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => {
                // Fixpoint over the back edge; the loop may run zero
                // times, so the exit state also meets the entry state.
                let entry_idx = *idx_base;
                let mut entry = state.clone();
                loop {
                    let mut probe = entry.clone();
                    let mut scratch_idx = entry_idx;
                    let mut scratch_removed = vec![false; removed.len()];
                    fwd_transfer(
                        body,
                        &mut probe,
                        tasks,
                        false,
                        &mut scratch_removed,
                        &mut scratch_idx,
                    );
                    let next = intersect(&entry, &probe);
                    if next == entry {
                        break;
                    }
                    entry = next;
                }
                let mut body_state = entry.clone();
                let mut body_idx = entry_idx;
                fwd_transfer(body, &mut body_state, tasks, remove, removed, &mut body_idx);
                *idx_base = body_idx;
                // After the loop: it may have run zero times.
                *state = intersect(state, &intersect(&entry, &body_state));
            }
            SpmdStmt::If {
                then_body,
                else_body,
                ..
            } => {
                let mut s1 = state.clone();
                let mut s2 = state.clone();
                fwd_transfer(then_body, &mut s1, tasks, remove, removed, idx_base);
                fwd_transfer(else_body, &mut s2, tasks, remove, removed, idx_base);
                *state = intersect(&s1, &s2);
            }
            SpmdStmt::AllReduce { .. } | SpmdStmt::SetScalar { .. } | SpmdStmt::Barrier => {}
        }
    }
}

fn count_stmts(stmts: &[SpmdStmt]) -> usize {
    stmts
        .iter()
        .map(|s| match s {
            SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => 1 + count_stmts(body),
            SpmdStmt::If {
                then_body,
                else_body,
                ..
            } => 1 + count_stmts(then_body) + count_stmts(else_body),
            _ => 1,
        })
        .sum()
}

fn prune(stmts: &mut Vec<SpmdStmt>, removed: &[bool], idx_base: &mut usize) {
    let mut keep = Vec::with_capacity(stmts.len());
    for mut s in stmts.drain(..) {
        let my_idx = *idx_base;
        *idx_base += 1;
        match &mut s {
            SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => {
                prune(body, removed, idx_base);
            }
            SpmdStmt::If {
                then_body,
                else_body,
                ..
            } => {
                prune(then_body, removed, idx_base);
                prune(else_body, removed, idx_base);
            }
            _ => {}
        }
        if !(matches!(s, SpmdStmt::Copy(_)) && removed[my_idx]) {
            keep.push(s);
        }
    }
    *stmts = keep;
}

fn eliminate_redundant(body: &mut Vec<SpmdStmt>, tasks: &[TaskDecl]) -> usize {
    let n = count_stmts(body);
    let mut removed = vec![false; n];
    let mut state = Avail::new();
    let mut idx = 0usize;
    fwd_transfer(body, &mut state, tasks, true, &mut removed, &mut idx);
    let count = removed.iter().filter(|&&r| r).count();
    if count > 0 {
        let mut idx = 0usize;
        prune(body, &removed, &mut idx);
    }
    count
}

// ---------------------------------------------------------------------
// Backward pass: dead copies.
// ---------------------------------------------------------------------

type Live = BTreeSet<usize>;

/// Pre-order subtree size of one statement (itself + nested bodies).
fn stmt_size(s: &SpmdStmt) -> usize {
    match s {
        SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => 1 + count_stmts(body),
        SpmdStmt::If {
            then_body,
            else_body,
            ..
        } => 1 + count_stmts(then_body) + count_stmts(else_body),
        _ => 1,
    }
}

/// Computes the backward transfer of `stmts` given liveness after them;
/// marks dead copies when `remove` is set. `idx_end` is the pre-order
/// index one past the last statement's subtree; on return it is the
/// pre-order index of the first statement.
fn bwd_transfer(
    stmts: &mut [SpmdStmt],
    live: &mut Live,
    tasks: &[TaskDecl],
    remove: bool,
    removed: &mut Vec<bool>,
    idx_end: &mut usize,
) {
    for s in stmts.iter_mut().rev() {
        let my_idx = *idx_end - stmt_size(s);
        match s {
            SpmdStmt::Launch(l) => {
                let decl = &tasks[l.task.0 as usize];
                for (i, a) in l.args.iter().enumerate() {
                    if let SpmdArg::Use(u) = a {
                        // Read and read-write arguments read the use.
                        // (Writes are partial — no kills.)
                        match decl.params[i].privilege {
                            Privilege::Read | Privilege::ReadWrite => {
                                live.insert(*u);
                            }
                            Privilege::Reduce(_) => {}
                        }
                    }
                }
            }
            SpmdStmt::Copy(c) => {
                if !live.contains(&c.dst) {
                    if remove {
                        removed[my_idx] = true;
                    }
                } else if let CopySource::Use(u) = c.src {
                    // The copy reads its source.
                    live.insert(u);
                }
            }
            SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => {
                // Fixpoint: data live at body entry flows around the
                // back edge into the body's exit liveness.
                let exit_idx = *idx_end;
                let mut after = live.clone();
                loop {
                    let mut probe = after.clone();
                    let mut scratch_idx = exit_idx;
                    let mut scratch_removed = vec![false; removed.len()];
                    bwd_transfer(
                        body,
                        &mut probe,
                        tasks,
                        false,
                        &mut scratch_removed,
                        &mut scratch_idx,
                    );
                    let next: Live = after.union(&probe).copied().collect();
                    if next == after {
                        break;
                    }
                    after = next;
                }
                let mut body_live = after.clone();
                let mut body_idx = exit_idx;
                bwd_transfer(body, &mut body_live, tasks, remove, removed, &mut body_idx);
                debug_assert_eq!(body_idx, my_idx + 1);
                *live = live.union(&body_live).copied().collect();
            }
            SpmdStmt::If {
                then_body,
                else_body,
                ..
            } => {
                let mut l1 = live.clone();
                let mut l2 = live.clone();
                let mut cursor = *idx_end;
                bwd_transfer(else_body, &mut l2, tasks, remove, removed, &mut cursor);
                bwd_transfer(then_body, &mut l1, tasks, remove, removed, &mut cursor);
                debug_assert_eq!(cursor, my_idx + 1);
                *live = l1.union(&l2).copied().collect();
            }
            SpmdStmt::ResetTemp(_)
            | SpmdStmt::AllReduce { .. }
            | SpmdStmt::SetScalar { .. }
            | SpmdStmt::Barrier => {}
        }
        *idx_end = my_idx;
    }
}

fn eliminate_dead(body: &mut Vec<SpmdStmt>, uses: &[UseDecl], tasks: &[TaskDecl]) -> usize {
    let n = count_stmts(body);
    let mut removed = vec![false; n];
    // At program end, written uses are flushed back to the root store —
    // they are live-out.
    let mut live: Live = uses
        .iter()
        .enumerate()
        .filter(|(_, u)| u.writes)
        .map(|(i, _)| i)
        .collect();
    let mut idx = n;
    bwd_transfer(body, &mut live, tasks, true, &mut removed, &mut idx);
    let count = removed.iter().filter(|&&r| r).count();
    if count > 0 {
        let mut idx = 0usize;
        prune(body, &removed, &mut idx);
    }
    count
}

#[cfg(test)]
mod membership_tests {
    use super::MembershipRemap;
    use crate::spmd::{block_range, owner_of};

    #[test]
    fn shrink_rejects_degenerate_memberships() {
        assert!(MembershipRemap::shrink(1, 0).is_none());
        assert!(MembershipRemap::shrink(0, 0).is_none());
        assert!(MembershipRemap::shrink(4, 4).is_none());
        assert!(MembershipRemap::shrink(4, 2).is_some());
    }

    #[test]
    fn relabel_is_a_bijection_onto_survivors() {
        for old in 2..8usize {
            for dead in 0..old as u32 {
                let m = MembershipRemap::shrink(old, dead).unwrap();
                assert_eq!(m.new_shards, old - 1);
                let mut seen = vec![false; old];
                for s in 0..m.new_shards {
                    let o = m.old_id(s);
                    assert_ne!(o as u32, dead, "dead shard must not survive");
                    assert!(!seen[o], "old shard {o} mapped twice");
                    seen[o] = true;
                    assert_eq!(m.new_id(o), Some(s), "old_id/new_id must invert");
                }
                assert_eq!(m.new_id(dead as usize), None);
            }
        }
    }

    #[test]
    fn new_ownership_covers_every_color_exactly_once() {
        for old in 2..6usize {
            for dead in 0..old as u32 {
                let m = MembershipRemap::shrink(old, dead).unwrap();
                for len in [1usize, 3, 7, 16] {
                    let mut owners = vec![0u32; len];
                    for s in 0..m.new_shards {
                        let (lo, hi) = block_range(len, m.new_shards, s);
                        for (c, n) in owners.iter_mut().enumerate().take(hi).skip(lo) {
                            *n += 1;
                            assert_eq!(owner_of(len, m.new_shards, c), s);
                        }
                    }
                    assert!(owners.iter().all(|&n| n == 1), "colors must partition");
                }
            }
        }
    }
}
