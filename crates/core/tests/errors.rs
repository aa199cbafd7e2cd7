//! Error-path tests for the control replication transform: every
//! rejection the pipeline can produce, with the diagnostic a user would
//! see.

use regent_cr::{control_replicate, CrOptions};
use regent_geometry::{Domain, DynPoint};
use regent_ir::{expr::c, Privilege, ProgramBuilder, RegionArg, RegionParam, TaskDecl};
use regent_region::{ops, FieldSpace, FieldType, ReductionOp};
use std::sync::Arc;

fn noop(params: Vec<RegionParam>) -> TaskDecl {
    TaskDecl {
        name: "noop".into(),
        params,
        num_scalar_args: 0,
        returns_value: false,
        kernel: Arc::new(|_| {}),
    }
}

#[test]
fn zero_shards_rejected() {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(8), fs);
    let p = ops::block(&mut b.forest, r, 2);
    let t = b.task(noop(vec![RegionParam::read_write(&[x])]));
    b.index_launch(t, 2, vec![RegionArg::Part(p)]);
    let err = control_replicate(b.build(), &CrOptions::new(0)).unwrap_err();
    assert!(err.0.contains("num_shards"));
}

#[test]
fn invalid_program_rejected_with_validation_message() {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(8), fs);
    let p = ops::block(&mut b.forest, r, 2);
    // Arity mismatch: task expects 2 args.
    let t = b.task(noop(vec![
        RegionParam::read_write(&[x]),
        RegionParam::read(&[x]),
    ]));
    b.index_launch(t, 2, vec![RegionArg::Part(p)]);
    let err = control_replicate(b.build(), &CrOptions::new(2)).unwrap_err();
    assert!(err.0.contains("program invalid"), "{}", err.0);
}

#[test]
fn single_launch_in_body_rejected() {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(8), fs);
    let t = b.task(noop(vec![RegionParam::read_write(&[x])]));
    b.call(t, vec![r]);
    let err = control_replicate(b.build(), &CrOptions::new(2)).unwrap_err();
    assert!(err.0.contains("single launch"), "{}", err.0);
    assert!(err.0.contains("§2.2"), "cites the paper: {}", err.0);
}

#[test]
fn aliased_read_write_rejected() {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(8), fs);
    let p = ops::block(&mut b.forest, r, 2);
    let q = ops::image_fn(&mut b.forest, r, p, |pt| pt); // aliased
    let t = b.task(noop(vec![RegionParam::read_write(&[x])]));
    b.index_launch(t, 2, vec![RegionArg::Part(q)]);
    let err = control_replicate(b.build(), &CrOptions::new(2)).unwrap_err();
    assert!(err.0.contains("race"), "{}", err.0);
}

#[test]
fn intra_launch_dependency_rejected() {
    // A launch whose points read, on a shared field, data other points
    // write — not a parallel loop.
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(16), fs);
    let p = ops::block(&mut b.forest, r, 4);
    let halo = ops::image(&mut b.forest, r, p, |pt, sink| {
        sink.push(DynPoint::from(pt.coord(0) - 1));
        sink.push(DynPoint::from(pt.coord(0) + 1));
    });
    let t = b.task(noop(vec![
        RegionParam::read_write(&[x]),
        RegionParam::read(&[x]), // same field as the write!
    ]));
    b.index_launch(t, 4, vec![RegionArg::Part(p), RegionArg::Part(halo)]);
    let err = control_replicate(b.build(), &CrOptions::new(2)).unwrap_err();
    assert!(err.0.contains("not independent"), "{}", err.0);
}

#[test]
fn uncovered_reduction_rejected() {
    // A reduction whose folded values could never be flushed back: no
    // read-write use covers the reduced elements.
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("q", FieldType::F64)]);
    let q = fs.lookup("q").unwrap();
    let nodes = b.forest.create_region(Domain::range(8), fs);
    let efs = FieldSpace::of(&[("w", FieldType::F64)]);
    let w = efs.lookup("w").unwrap();
    let edges = b.forest.create_region(Domain::range(16), efs);
    let pe = ops::block(&mut b.forest, edges, 2);
    let gn = ops::image_fn(&mut b.forest, nodes, pe, |pt| {
        DynPoint::from(pt.coord(0) % 8)
    });
    let t = b.task(noop(vec![
        RegionParam::read(&[w]),
        RegionParam {
            privilege: Privilege::Reduce(ReductionOp::Add),
            fields: vec![q],
        },
    ]));
    // Only the reduction touches the nodes tree — nothing read-writes it.
    b.index_launch(t, 2, vec![RegionArg::Part(pe), RegionArg::Part(gn)]);
    let err = control_replicate(b.build(), &CrOptions::new(2)).unwrap_err();
    assert!(err.0.contains("never be flushed"), "{}", err.0);
}

#[test]
fn domain_mismatch_rejected() {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(8), fs);
    let p = ops::block(&mut b.forest, r, 4);
    let t = b.task(noop(vec![RegionParam::read(&[x])]));
    b.index_launch(t, 4, vec![RegionArg::Part(p)]);
    b.index_launch(t, 2, vec![RegionArg::Part(p)]); // different domain
    let err = control_replicate(b.build(), &CrOptions::new(2)).unwrap_err();
    assert!(err.0.contains("ambiguous"), "{}", err.0);
}

#[test]
fn error_display_formats() {
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(8), fs);
    let t = b.task(noop(vec![RegionParam::read_write(&[x])]));
    b.call(t, vec![r]);
    let err = control_replicate(b.build(), &CrOptions::new(2)).unwrap_err();
    let msg = format!("{err}");
    assert!(msg.starts_with("control replication error:"));
    // It is a std::error::Error.
    let _: &dyn std::error::Error = &err;
}

#[test]
fn while_loop_with_launches_is_accepted() {
    // Sanity: the restrictions above must not reject well-formed
    // dynamic control flow.
    let mut b = ProgramBuilder::new();
    let fs = FieldSpace::of(&[("x", FieldType::F64)]);
    let x = fs.lookup("x").unwrap();
    let r = b.forest.create_region(Domain::range(8), fs);
    let p = ops::block(&mut b.forest, r, 2);
    let t = b.task(noop(vec![RegionParam::read_write(&[x])]));
    let i = b.scalar("i", 0.0);
    let w = b.while_loop(regent_ir::expr::var(i).lt(c(3.0)));
    b.index_launch(t, 2, vec![RegionArg::Part(p)]);
    b.set_scalar(i, regent_ir::expr::var(i).add(c(1.0)));
    b.end(w);
    assert!(control_replicate(b.build(), &CrOptions::new(2)).is_ok());
}
