//! Static program validation.
//!
//! Checks the structural well-formedness the rest of the stack assumes:
//! argument arity, color coverage of launch domains, field ids in range,
//! scalar ids in range, and the privilege rules for whole-region
//! arguments in index launches. Privilege *strictness* of kernel bodies
//! is enforced dynamically by [`crate::task::TaskCtx`].

use crate::expr::{ScalarExpr, ScalarId};
use crate::program::{IndexLaunch, Program, RegionArg, SingleLaunch, Stmt};
use crate::task::Privilege;
use std::fmt;

/// A validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError(pub String);

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "program validation failed: {}", self.0)
    }
}

impl std::error::Error for ValidationError {}

/// Validates a program, returning every problem found.
pub fn validate(program: &Program) -> Result<(), Vec<ValidationError>> {
    let mut errors = Vec::new();
    check_stmts(program, &program.body, &mut errors);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn err(errors: &mut Vec<ValidationError>, msg: String) {
    errors.push(ValidationError(msg));
}

fn check_scalar_expr(program: &Program, e: &ScalarExpr, errors: &mut Vec<ValidationError>) {
    let mut vars: Vec<ScalarId> = Vec::new();
    e.vars(&mut vars);
    for v in vars {
        if v.0 as usize >= program.scalars.len() {
            err(errors, format!("scalar {v:?} out of range"));
        }
    }
}

fn check_stmts(program: &Program, stmts: &[Stmt], errors: &mut Vec<ValidationError>) {
    for s in stmts {
        match s {
            Stmt::IndexLaunch(il) => check_index_launch(program, il, errors),
            Stmt::SingleLaunch(sl) => check_single_launch(program, sl, errors),
            Stmt::For { count, body } => {
                check_scalar_expr(program, count, errors);
                check_stmts(program, body, errors);
            }
            Stmt::While { cond, body } => {
                check_scalar_expr(program, cond, errors);
                check_stmts(program, body, errors);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                check_scalar_expr(program, cond, errors);
                check_stmts(program, then_body, errors);
                check_stmts(program, else_body, errors);
            }
            Stmt::SetScalar { var, expr } => {
                if var.0 as usize >= program.scalars.len() {
                    err(errors, format!("assignment to undeclared scalar {var:?}"));
                }
                check_scalar_expr(program, expr, errors);
            }
        }
    }
}

fn check_task_ref(
    program: &Program,
    task: crate::task::TaskId,
    num_args: usize,
    num_scalars: usize,
    errors: &mut Vec<ValidationError>,
) -> bool {
    if task.0 as usize >= program.tasks.len() {
        err(errors, format!("launch of undeclared task {task:?}"));
        return false;
    }
    let decl = program.task(task);
    if decl.params.len() != num_args {
        err(
            errors,
            format!(
                "task {} expects {} region args, launch passes {}",
                decl.name,
                decl.params.len(),
                num_args
            ),
        );
    }
    if decl.num_scalar_args != num_scalars {
        err(
            errors,
            format!(
                "task {} expects {} scalar args, launch passes {}",
                decl.name, decl.num_scalar_args, num_scalars
            ),
        );
    }
    true
}

fn check_index_launch(program: &Program, il: &IndexLaunch, errors: &mut Vec<ValidationError>) {
    if !check_task_ref(
        program,
        il.task,
        il.args.len(),
        il.scalar_args.len(),
        errors,
    ) {
        return;
    }
    let decl = program.task(il.task);
    if il.launch_domain.is_empty() {
        err(
            errors,
            format!("index launch of {} has an empty launch domain", decl.name),
        );
    }
    for e in &il.scalar_args {
        check_scalar_expr(program, e, errors);
    }
    if let Some((var, _)) = il.reduce_result {
        if !decl.returns_value {
            err(
                errors,
                format!(
                    "scalar reduction from task {} which returns no value",
                    decl.name
                ),
            );
        }
        if var.0 as usize >= program.scalars.len() {
            err(errors, format!("scalar reduction into undeclared {var:?}"));
        }
    }
    for (idx, arg) in il.args.iter().enumerate() {
        let privilege = decl
            .params
            .get(idx)
            .map(|p| p.privilege)
            .unwrap_or(Privilege::Read);
        match arg {
            RegionArg::Part(p) | RegionArg::PartProj(p, _) => {
                if p.0 as usize >= program.forest.num_partitions() {
                    err(errors, format!("launch references undeclared {p:?}"));
                    continue;
                }
                // Every launch point must have a colored subregion.
                // (Projections are checked post-normalization; see
                // crate::normalize.)
                if matches!(arg, RegionArg::Part(_)) {
                    let part = program.forest.partition(*p);
                    for c in &il.launch_domain {
                        if part.child(*c).is_none() {
                            err(
                                errors,
                                format!("partition {p:?} has no subregion for launch point {c:?}"),
                            );
                            break;
                        }
                    }
                }
            }
            RegionArg::Region(r) => {
                if r.0 as usize >= program.forest.num_regions() {
                    err(errors, format!("launch references undeclared {r:?}"));
                }
                // A whole region passed to every point of an index
                // launch is legal only when all points may touch it
                // concurrently: read or reduce privilege.
                if matches!(privilege, Privilege::ReadWrite) {
                    err(
                        errors,
                        format!(
                            "task {} takes whole region {r:?} with read-write \
                             privilege in an index launch (points would conflict)",
                            decl.name
                        ),
                    );
                }
            }
        }
    }
    // Check field ids against the region's field space.
    for (idx, param) in decl.params.iter().enumerate() {
        if let Some(region) = first_region_of_arg(program, il.args.get(idx)) {
            let fs = program.forest.fields(region);
            for f in &param.fields {
                if f.0 as usize >= fs.len() {
                    err(
                        errors,
                        format!(
                            "task {} declares field {f:?} not present in the \
                             field space of its argument {idx}",
                            decl.name
                        ),
                    );
                }
            }
        }
    }
}

fn first_region_of_arg(
    program: &Program,
    arg: Option<&RegionArg>,
) -> Option<regent_region::RegionId> {
    match arg? {
        RegionArg::Part(p) | RegionArg::PartProj(p, _) => {
            let part = program.forest.partition(*p);
            part.iter().next().map(|(_, r)| r)
        }
        RegionArg::Region(r) => Some(*r),
    }
}

fn check_single_launch(program: &Program, sl: &SingleLaunch, errors: &mut Vec<ValidationError>) {
    if !check_task_ref(
        program,
        sl.task,
        sl.args.len(),
        sl.scalar_args.len(),
        errors,
    ) {
        return;
    }
    for e in &sl.scalar_args {
        check_scalar_expr(program, e, errors);
    }
    for r in &sl.args {
        if r.0 as usize >= program.forest.num_regions() {
            err(errors, format!("call references undeclared {r:?}"));
        }
    }
    if let Some(var) = sl.result {
        let decl = program.task(sl.task);
        if !decl.returns_value {
            err(
                errors,
                format!(
                    "result binding on task {} which returns no value",
                    decl.name
                ),
            );
        }
        if var.0 as usize >= program.scalars.len() {
            err(errors, format!("result into undeclared scalar {var:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::c;
    use crate::program::ProgramBuilder;
    use crate::task::{RegionParam, TaskDecl};
    use regent_geometry::Domain;
    use regent_region::{ops, FieldSpace, FieldType};
    use std::sync::Arc;

    fn noop_task(params: Vec<RegionParam>) -> TaskDecl {
        TaskDecl {
            name: "noop".into(),
            params,
            num_scalar_args: 0,
            returns_value: false,
            kernel: Arc::new(|_| {}),
        }
    }

    #[test]
    fn valid_program_passes() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(noop_task(vec![RegionParam::read_write(&[x])]));
        b.index_launch(t, 4, vec![RegionArg::Part(p)]);
        let prog = b.build();
        assert!(validate(&prog).is_ok());
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(noop_task(vec![
            RegionParam::read_write(&[x]),
            RegionParam::read(&[x]),
        ]));
        b.index_launch(t, 4, vec![RegionArg::Part(p)]);
        let prog = b.build();
        let errs = validate(&prog).unwrap_err();
        assert!(errs[0].0.contains("expects 2 region args"));
    }

    #[test]
    fn launch_domain_must_be_covered() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(noop_task(vec![RegionParam::read_write(&[x])]));
        b.index_launch(t, 8, vec![RegionArg::Part(p)]); // 8 points, 4 colors
        let prog = b.build();
        let errs = validate(&prog).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("no subregion")));
    }

    #[test]
    fn whole_region_rw_in_index_launch_rejected() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let t = b.task(noop_task(vec![RegionParam::read_write(&[x])]));
        b.index_launch(t, 4, vec![RegionArg::Region(r)]);
        let prog = b.build();
        let errs = validate(&prog).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("read-write")));
    }

    #[test]
    fn scalar_reduction_requires_return() {
        let mut b = ProgramBuilder::new();
        let fs = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fs.lookup("x").unwrap();
        let r = b.forest.create_region(Domain::range(16), fs);
        let p = ops::block(&mut b.forest, r, 4);
        let t = b.task(noop_task(vec![RegionParam::read(&[x])]));
        let dt = b.scalar("dt", 0.0);
        b.index_launch_full(
            t,
            4,
            vec![RegionArg::Part(p)],
            vec![],
            Some((dt, regent_region::ReductionOp::Min)),
        );
        let prog = b.build();
        let errs = validate(&prog).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("returns no value")));
    }

    #[test]
    fn undeclared_scalar_in_expr() {
        let mut b = ProgramBuilder::new();
        let s = b.scalar("s", 0.0);
        b.set_scalar(s, c(1.0).add(crate::expr::var(crate::expr::ScalarId(9))));
        let prog = b.build();
        let errs = validate(&prog).unwrap_err();
        assert!(errs.iter().any(|e| e.0.contains("out of range")));
    }
}
