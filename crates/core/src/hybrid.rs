//! Range-local control replication (§2.2).
//!
//! "An important feature of control replication is that it is a local
//! transformation, applying to a single collection of loops. Thus, it
//! need not be applied only at the top level, and can in fact be
//! applied independently to different parts of a program."
//!
//! [`replicate_ranges`] finds the maximal replicable ranges of a
//! program's top-level statement list and compiles *each range* into
//! its own SPMD body, leaving the remaining statements for ordinary
//! implicit/sequential execution. The result is a [`HybridProgram`]
//! whose segments alternate between the two forms; data flows between
//! them through the root store (the initialization/finalization copies
//! of §3.1 happen at every range boundary), and the scalar environment
//! threads through all segments.

use crate::analysis::{find_replicable_ranges, CrError};
use crate::replicate::{control_replicate, CrOptions};
use crate::spmd::SpmdProgram;
use regent_ir::{Program, Stmt};

/// One segment of a hybrid program.
#[allow(clippy::large_enum_variant)] // a handful of segments per program
pub enum Segment {
    /// A control-replicated range, executed as SPMD shards.
    Replicated(SpmdProgram),
    /// Statements outside every replicable range, executed with
    /// ordinary sequential/implicit semantics.
    Sequential(Vec<Stmt>),
}

/// A program partitioned into alternating sequential and
/// control-replicated segments.
pub struct HybridProgram {
    /// The original program (with an empty body — its forest, tasks and
    /// scalar declarations serve the sequential segments).
    pub base: Program,
    /// The segments, in program order.
    pub segments: Vec<Segment>,
}

impl HybridProgram {
    /// Number of replicated segments.
    pub fn num_replicated(&self) -> usize {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Replicated(_)))
            .count()
    }
}

/// Applies control replication to every maximal replicable range of the
/// program's top-level body (§2.2), leaving the rest sequential.
///
/// Each range is compiled against its own snapshot of the region
/// forest, so normalization partitions created for one range do not
/// perturb the others.
pub fn replicate_ranges(program: Program, opts: &CrOptions) -> Result<HybridProgram, CrError> {
    let ranges = find_replicable_ranges(&program, &program.body);
    let Program {
        forest,
        tasks,
        scalars,
        body,
    } = program;
    let mut segments = Vec::new();
    let mut cursor = 0usize;
    let mut stmts: Vec<Option<Stmt>> = body.into_iter().map(Some).collect();
    for range in &ranges {
        if range.start > cursor {
            let seq: Vec<Stmt> = stmts[cursor..range.start]
                .iter_mut()
                .map(|s| s.take().unwrap())
                .collect();
            segments.push(Segment::Sequential(seq));
        }
        let range_body: Vec<Stmt> = stmts[range.start..range.end]
            .iter_mut()
            .map(|s| s.take().unwrap())
            .collect();
        let sub = Program {
            forest: forest.clone(),
            tasks: tasks.clone(),
            scalars: scalars.clone(),
            body: range_body,
        };
        segments.push(Segment::Replicated(control_replicate(sub, opts)?));
        cursor = range.end;
    }
    if cursor < stmts.len() {
        let seq: Vec<Stmt> = stmts[cursor..]
            .iter_mut()
            .map(|s| s.take().unwrap())
            .collect();
        segments.push(Segment::Sequential(seq));
    }
    Ok(HybridProgram {
        base: Program {
            forest,
            tasks,
            scalars,
            body: Vec::new(),
        },
        segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_geometry::Domain;
    use regent_ir::{expr::c, ProgramBuilder, RegionArg, RegionParam, TaskDecl};
    use regent_region::{ops, FieldSpace, FieldType};
    use std::sync::Arc;

    #[test]
    fn splits_into_alternating_segments() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(TaskDecl {
            name: "t".into(),
            params: vec![RegionParam::read_write(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(|_| {}),
        });
        let l = b.for_loop(c(2.0));
        b.index_launch(t, 4, vec![RegionArg::Part(p)]);
        b.end(l);
        b.call(t, vec![r]); // sequential-only
        b.index_launch(t, 4, vec![RegionArg::Part(p)]);
        let prog = b.build();
        let hybrid = replicate_ranges(prog, &CrOptions::new(2)).unwrap();
        assert_eq!(hybrid.segments.len(), 3);
        assert_eq!(hybrid.num_replicated(), 2);
        assert!(matches!(hybrid.segments[0], Segment::Replicated(_)));
        assert!(matches!(hybrid.segments[1], Segment::Sequential(ref v) if v.len() == 1));
        assert!(matches!(hybrid.segments[2], Segment::Replicated(_)));
    }

    #[test]
    fn fully_sequential_program_single_segment() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(8), fs);
        let t = b.task(TaskDecl {
            name: "t".into(),
            params: vec![RegionParam::read_write(&[x])],
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(|_| {}),
        });
        b.call(t, vec![r]);
        let hybrid = replicate_ranges(b.build(), &CrOptions::new(2)).unwrap();
        assert_eq!(hybrid.segments.len(), 1);
        assert_eq!(hybrid.num_replicated(), 0);
    }
}
