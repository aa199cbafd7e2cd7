//! Direct tests of the copy placement optimization (§3.2) on
//! hand-constructed SPMD bodies: available-copy elimination across
//! straight-line code, branches and loop back edges, and dead-copy
//! elimination against the finalization flush.

use regent_cr::placement::optimize;
use regent_cr::{
    CopyId, CopySource, CopyStmt, DomainId, IntersectId, LaunchId, SpmdArg, SpmdLaunch, SpmdStmt,
    UseBase, UseDecl,
};
use regent_ir::{expr::c, Privilege, RegionParam, TaskDecl};
use regent_region::{FieldId, PartitionId};
use std::sync::Arc;

fn task(params: Vec<RegionParam>) -> TaskDecl {
    TaskDecl {
        name: "t".into(),
        params,
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(|_| {}),
    }
}

fn use_decl(idx: u32, reads: bool, writes: bool) -> UseDecl {
    UseDecl {
        base: UseBase::Part(PartitionId(idx)),
        domain: DomainId(0),
        fields: vec![FieldId(0)],
        reads,
        writes,
        reduces: false,
    }
}

fn copy(id: u32, src: usize, dst: usize) -> SpmdStmt {
    SpmdStmt::Copy(CopyStmt {
        id: CopyId(id),
        src: CopySource::Use(src),
        dst,
        fields: vec![FieldId(0)],
        reduction: None,
        intersection: IntersectId(0),
    })
}

fn launch(id: u32, args: Vec<SpmdArg>, task_id: u32) -> SpmdStmt {
    SpmdStmt::Launch(SpmdLaunch {
        id: LaunchId(id),
        task: regent_ir::TaskId(task_id),
        domain: DomainId(0),
        args,
        scalar_args: vec![],
        reduce_result: None,
    })
}

fn count_copies(body: &[SpmdStmt]) -> usize {
    body.iter()
        .map(|s| match s {
            SpmdStmt::Copy(_) => 1,
            SpmdStmt::For { body, .. } | SpmdStmt::While { body, .. } => count_copies(body),
            SpmdStmt::If {
                then_body,
                else_body,
                ..
            } => count_copies(then_body) + count_copies(else_body),
            _ => 0,
        })
        .sum()
}

#[test]
fn back_to_back_identical_copies_deduplicated() {
    // copy 0→1; copy 0→1 (no intervening write): second is redundant.
    // (use 1 is written elsewhere, so it is flush-live and the first
    // copy survives the dead pass.)
    let uses = vec![use_decl(0, true, true), use_decl(1, true, true)];
    let tasks = vec![task(vec![])];
    let mut body = vec![copy(0, 0, 1), copy(1, 0, 1)];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_redundant, 1);
    assert_eq!(count_copies(&body), 1);
}

#[test]
fn write_between_copies_blocks_dedup() {
    // copy 0→1; launch writes use 0; copy 0→1: both needed.
    let uses = vec![use_decl(0, true, true), use_decl(1, true, true)];
    let tasks = vec![task(vec![RegionParam {
        privilege: Privilege::ReadWrite,
        fields: vec![FieldId(0)],
    }])];
    let mut body = vec![
        copy(0, 0, 1),
        launch(0, vec![SpmdArg::Use(0)], 0),
        copy(1, 0, 1),
    ];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_redundant, 0);
    assert_eq!(count_copies(&body), 2);
}

#[test]
fn loop_invariant_copy_removed_on_second_trip() {
    // A loop whose body copies 0→1 but never writes 0: the copy is
    // available around the back edge, so it is removed entirely (the
    // data was already coherent from initialization).
    let uses = vec![use_decl(0, true, true), use_decl(1, true, false)];
    let tasks = vec![task(vec![RegionParam {
        privilege: Privilege::Read,
        fields: vec![FieldId(0)],
    }])];
    let mut body = vec![
        copy(0, 0, 1),
        SpmdStmt::For {
            count: c(5.0),
            body: vec![
                copy(1, 0, 1), // redundant: available from before the loop
                launch(0, vec![SpmdArg::Use(1)], 0),
            ],
        },
    ];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_redundant, 1);
    assert_eq!(count_copies(&body), 1);
}

#[test]
fn loop_with_writer_keeps_copy() {
    // The classic Fig. 4a shape: write inside the loop, copy after it.
    let uses = vec![use_decl(0, true, true), use_decl(1, true, false)];
    let tasks = vec![
        task(vec![RegionParam {
            privilege: Privilege::ReadWrite,
            fields: vec![FieldId(0)],
        }]),
        task(vec![RegionParam {
            privilege: Privilege::Read,
            fields: vec![FieldId(0)],
        }]),
    ];
    let mut body = vec![SpmdStmt::For {
        count: c(5.0),
        body: vec![
            launch(0, vec![SpmdArg::Use(0)], 0), // writes 0
            copy(0, 0, 1),
            launch(1, vec![SpmdArg::Use(1)], 1), // reads 1
        ],
    }];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_redundant, 0);
    assert_eq!(stats.removed_dead, 0);
    assert_eq!(count_copies(&body), 1);
}

#[test]
fn branch_kills_partial_availability() {
    // copy 0→1; if (...) { write 0 }; copy 0→1 — the second copy is
    // needed because one path invalidates the first.
    let uses = vec![use_decl(0, true, true), use_decl(1, true, true)];
    let tasks = vec![task(vec![RegionParam {
        privilege: Privilege::ReadWrite,
        fields: vec![FieldId(0)],
    }])];
    let mut body = vec![
        copy(0, 0, 1),
        SpmdStmt::If {
            cond: c(1.0),
            then_body: vec![launch(0, vec![SpmdArg::Use(0)], 0)],
            else_body: vec![],
        },
        copy(1, 0, 1),
    ];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_redundant, 0);
    assert_eq!(count_copies(&body), 2);
}

#[test]
fn branch_preserves_availability_when_both_paths_copy() {
    // if { copy 0→1 } else { copy 0→1 }; copy 0→1 — the trailing copy
    // is redundant (available on both paths).
    let uses = vec![use_decl(0, true, true), use_decl(1, true, true)];
    let tasks: Vec<TaskDecl> = vec![];
    let mut body = vec![
        SpmdStmt::If {
            cond: c(1.0),
            then_body: vec![copy(0, 0, 1)],
            else_body: vec![copy(1, 0, 1)],
        },
        copy(2, 0, 1),
    ];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_redundant, 1);
    assert_eq!(count_copies(&body), 2);
}

#[test]
fn dead_copy_to_never_read_use_removed() {
    // Use 1 is never read and never written (→ not flushed): a copy
    // into it is dead.
    let uses = vec![use_decl(0, true, true), use_decl(1, false, false)];
    let tasks: Vec<TaskDecl> = vec![];
    let mut body = vec![copy(0, 0, 1)];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_dead, 1);
    assert_eq!(count_copies(&body), 0);
}

#[test]
fn copy_to_written_use_is_live_via_flush() {
    // Use 1 is written somewhere → flushed at finalization → a copy
    // into it stays live even with no explicit reader.
    let uses = vec![use_decl(0, true, true), use_decl(1, false, true)];
    let tasks: Vec<TaskDecl> = vec![];
    let mut body = vec![copy(0, 0, 1)];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_dead, 0);
    assert_eq!(count_copies(&body), 1);
}

#[test]
fn copy_live_through_loop_backedge() {
    // The copy's destination is read at the *top* of the loop body on
    // the next iteration — liveness must flow around the back edge.
    let uses = vec![use_decl(0, true, true), use_decl(1, true, false)];
    let tasks = vec![
        task(vec![RegionParam {
            privilege: Privilege::Read,
            fields: vec![FieldId(0)],
        }]),
        task(vec![RegionParam {
            privilege: Privilege::ReadWrite,
            fields: vec![FieldId(0)],
        }]),
    ];
    let mut body = vec![SpmdStmt::For {
        count: c(3.0),
        body: vec![
            launch(0, vec![SpmdArg::Use(1)], 0), // reads 1
            launch(1, vec![SpmdArg::Use(0)], 1), // writes 0
            copy(0, 0, 1),                       // feeds next iteration
        ],
    }];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_dead, 0, "backedge read keeps the copy live");
    assert_eq!(count_copies(&body), 1);
}

#[test]
fn reset_temp_invalidates_temp_sourced_copies() {
    use regent_cr::TempId;
    let uses = vec![use_decl(0, true, true)];
    let tasks: Vec<TaskDecl> = vec![];
    let tcopy = |id: u32| {
        SpmdStmt::Copy(CopyStmt {
            id: CopyId(id),
            src: CopySource::Temp(TempId(0)),
            dst: 0,
            fields: vec![FieldId(0)],
            reduction: Some(regent_region::ReductionOp::Add),
            intersection: IntersectId(0),
        })
    };
    // reduce-copy; reset; reduce-copy: both must survive (the reset
    // invalidates availability).
    let mut body = vec![tcopy(0), SpmdStmt::ResetTemp(TempId(0)), tcopy(1)];
    let stats = optimize(&mut body, &uses, &tasks);
    assert_eq!(stats.removed_redundant, 0);
    assert_eq!(count_copies(&body), 2);
}
