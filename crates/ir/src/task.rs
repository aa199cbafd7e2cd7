//! Task declarations and the kernel execution context.
//!
//! A Regent task declares *privileges* on its region parameters (§2.1):
//! read, read-write, or reduce with an associative-commutative operator.
//! Privileges are **strict** (§2.1): "any reads or writes to elements of
//! a region must conform to the privileges specified by the task", which
//! is what lets control replication analyze programs at the granularity
//! of task launches without looking inside task bodies. We enforce
//! strictness dynamically: every kernel data access goes through
//! [`TaskCtx`], which panics on a privilege violation.

use regent_geometry::{Domain, DynPoint};
use regent_region::{FieldId, Instance, ReductionOp};
use std::fmt;
use std::sync::Arc;

/// Identifier of a task declaration within a program.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// The privilege a task holds on one region parameter.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Privilege {
    /// `reads(r)` — the task may only read.
    Read,
    /// `reads writes(r)` — the task may read and write.
    ReadWrite,
    /// `reduces op(r)` — the task may only apply `op`-folds.
    Reduce(ReductionOp),
}

impl Privilege {
    /// True when the privilege permits mutation of any kind.
    pub fn mutates(&self) -> bool {
        !matches!(self, Privilege::Read)
    }

    /// True when two privileges on overlapping data still commute
    /// (Regent's "compatible privileges": both read, or both reduce
    /// with the same operator).
    pub fn compatible(&self, other: &Privilege) -> bool {
        match (self, other) {
            (Privilege::Read, Privilege::Read) => true,
            (Privilege::Reduce(a), Privilege::Reduce(b)) => a == b,
            _ => false,
        }
    }
}

/// One region parameter of a task declaration.
#[derive(Clone, Debug)]
pub struct RegionParam {
    /// Privilege the task holds on this parameter.
    pub privilege: Privilege,
    /// The fields the task touches through this parameter.
    pub fields: Vec<FieldId>,
}

impl RegionParam {
    /// Shorthand for a read-only parameter.
    pub fn read(fields: &[FieldId]) -> Self {
        RegionParam {
            privilege: Privilege::Read,
            fields: fields.to_vec(),
        }
    }

    /// Shorthand for a read-write parameter.
    pub fn read_write(fields: &[FieldId]) -> Self {
        RegionParam {
            privilege: Privilege::ReadWrite,
            fields: fields.to_vec(),
        }
    }

    /// Shorthand for a reduction parameter.
    pub fn reduce(op: ReductionOp, fields: &[FieldId]) -> Self {
        RegionParam {
            privilege: Privilege::Reduce(op),
            fields: fields.to_vec(),
        }
    }
}

/// The kernel function type: the body of a leaf task.
///
/// Kernels see only their [`TaskCtx`]; they cannot name regions,
/// partitions, or other tasks — exactly the "compile-time analysis need
/// not consider the code inside of a task" property of §2.1.
pub type KernelFn = Arc<dyn Fn(&mut TaskCtx<'_>) + Send + Sync>;

/// A task declaration: name, privileges, kernel, and a cost hint for
/// the machine simulator.
#[derive(Clone)]
pub struct TaskDecl {
    /// Human-readable task name.
    pub name: String,
    /// Region parameters with privileges.
    pub params: Vec<RegionParam>,
    /// Number of scalar (f64) arguments the task expects.
    pub num_scalar_args: usize,
    /// True when the task returns a scalar (consumed by scalar
    /// reductions, §4.4).
    pub returns_value: bool,
    /// The task body.
    pub kernel: KernelFn,
    /// Simulated compute cost per element of the first region argument,
    /// in arbitrary work units (the machine model multiplies by its
    /// per-unit time). Defaults to 1.0.
    pub cost_per_element: f64,
}

impl fmt::Debug for TaskDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskDecl")
            .field("name", &self.name)
            .field("params", &self.params)
            .field("num_scalar_args", &self.num_scalar_args)
            .field("returns_value", &self.returns_value)
            .field("cost_per_element", &self.cost_per_element)
            .finish_non_exhaustive()
    }
}

/// One bound region argument inside a running task: the argument's
/// domain, privilege, fields, and a raw handle to the backing instance.
///
/// The instance's domain may be a *superset* of the argument's domain
/// (the shared-memory implementation of §3 backs every subregion with
/// its root region's storage).
pub struct ArgSlot {
    /// The region argument's domain — the set of points the kernel may
    /// legally touch through this argument.
    pub domain: Domain,
    /// The privilege held.
    pub privilege: Privilege,
    /// The declared fields.
    pub fields: Vec<FieldId>,
    /// Raw pointer to the backing instance. The executor constructing
    /// the [`TaskCtx`] guarantees exclusivity for the kernel's duration.
    inst: *mut Instance,
}

impl ArgSlot {
    /// Binds a region argument to a raw instance pointer. A mutating
    /// privilege drops the seals of the declared fields here, once
    /// ([`Instance::unseal_fields`]); the kernel's element writes then
    /// leave the seals alone, so the binder is the only one who ever
    /// stores to them.
    ///
    /// # Safety
    /// The caller must guarantee that `inst` outlives the [`TaskCtx`]
    /// and that, from this call until the kernel returns, no other
    /// thread accesses the instance's seals or accesses the declared
    /// fields' elements with a conflicting privilege. Executors that
    /// run kernels concurrently on one instance bind on a single
    /// thread (the implicit executor's control thread binds at issue
    /// time and moves the slot to a worker) and schedule at the
    /// granularity of *declared fields*: two kernels writing different
    /// fields of the same elements run unordered. That is sound only
    /// because kernels cannot reach undeclared fields — `check_field`
    /// panics on one under `debug_assertions`, which is how the test
    /// suites run all four applications.
    ///
    /// Multiple slots of the *same* kernel may alias one instance
    /// (kernels are single-threaded, and every access is mediated by
    /// `TaskCtx` methods that never hold two references at once).
    pub unsafe fn new(
        domain: Domain,
        privilege: Privilege,
        fields: Vec<FieldId>,
        inst: *mut Instance,
    ) -> Self {
        if privilege.mutates() {
            // SAFETY: the caller vouches that `inst` is live and that no
            // other thread is at its seals.
            unsafe { (*inst).unseal_fields(&fields) };
        }
        ArgSlot {
            domain,
            privilege,
            fields,
            inst,
        }
    }

    #[inline]
    fn inst(&self) -> &Instance {
        unsafe { &*self.inst }
    }

    #[allow(clippy::mut_from_ref)]
    #[inline]
    fn inst_mut(&self) -> &mut Instance {
        unsafe { &mut *self.inst }
    }
}

// SAFETY: `domain`, `privilege` and `fields` are plain owned data. `inst`
// is the reason the impl is written out: a slot is the permission to
// touch that instance under the contract of [`ArgSlot::new`], which is
// stated across threads already; moving the slot to another thread
// moves the permission, it does not duplicate it.
unsafe impl Send for ArgSlot {}

/// The execution context handed to a kernel: bound region arguments,
/// scalar arguments, the launch point, and an optional scalar return.
pub struct TaskCtx<'a> {
    slots: &'a mut [ArgSlot],
    /// Scalar arguments, in declaration order.
    pub scalars: &'a [f64],
    /// The point of this task in its index launch's launch domain
    /// (all-zero for single launches).
    pub launch_point: DynPoint,
    /// Scalar return value; kernels of `returns_value` tasks must set it.
    pub return_value: Option<f64>,
}

impl<'a> TaskCtx<'a> {
    /// Assembles a context. Executors are responsible for the aliasing
    /// guarantees documented on [`ArgSlot::new`].
    pub fn new(slots: &'a mut [ArgSlot], scalars: &'a [f64], launch_point: DynPoint) -> Self {
        TaskCtx {
            slots,
            scalars,
            launch_point,
            return_value: None,
        }
    }

    /// Number of region arguments.
    pub fn num_args(&self) -> usize {
        self.slots.len()
    }

    /// The domain of region argument `arg` — the set of points the
    /// kernel iterates over or may access.
    pub fn domain(&self, arg: usize) -> &Domain {
        &self.slots[arg].domain
    }

    /// The privilege held on argument `arg`.
    pub fn privilege(&self, arg: usize) -> Privilege {
        self.slots[arg].privilege
    }

    fn check_point(&self, arg: usize, p: DynPoint) {
        let slot = &self.slots[arg];
        assert!(
            slot.domain.contains(p),
            "task accessed {p:?} outside the domain of region argument {arg}"
        );
    }

    fn check_field(&self, arg: usize, field: FieldId) {
        let slot = &self.slots[arg];
        assert!(
            slot.fields.contains(&field),
            "task accessed undeclared field {field:?} of region argument {arg}"
        );
    }

    /// Reads an f64 field element.
    ///
    /// # Panics
    /// On privilege violation (reduce-only argument), out-of-domain
    /// point, or undeclared field.
    #[inline]
    pub fn read_f64(&self, arg: usize, field: FieldId, p: DynPoint) -> f64 {
        self.check_read(arg, field, p);
        self.slots[arg].inst().read_f64(field, p)
    }

    /// Reads an i64 field element.
    #[inline]
    pub fn read_i64(&self, arg: usize, field: FieldId, p: DynPoint) -> i64 {
        self.check_read(arg, field, p);
        self.slots[arg].inst().read_i64(field, p)
    }

    #[inline]
    fn check_read(&self, arg: usize, field: FieldId, p: DynPoint) {
        if cfg!(debug_assertions) {
            self.check_point(arg, p);
            self.check_field(arg, field);
        }
        assert!(
            !matches!(self.slots[arg].privilege, Privilege::Reduce(_)),
            "read from reduce-only region argument {arg}"
        );
    }

    /// Writes an f64 field element.
    ///
    /// # Panics
    /// Unless the argument holds read-write privilege.
    #[inline]
    pub fn write_f64(&mut self, arg: usize, field: FieldId, p: DynPoint, v: f64) {
        self.check_write(arg, field, p);
        self.slots[arg].inst_mut().write_f64_bound(field, p, v);
    }

    /// Writes an i64 field element.
    #[inline]
    pub fn write_i64(&mut self, arg: usize, field: FieldId, p: DynPoint, v: i64) {
        self.check_write(arg, field, p);
        self.slots[arg].inst_mut().write_i64_bound(field, p, v);
    }

    #[inline]
    fn check_write(&self, arg: usize, field: FieldId, p: DynPoint) {
        if cfg!(debug_assertions) {
            self.check_point(arg, p);
            self.check_field(arg, field);
        }
        assert!(
            matches!(self.slots[arg].privilege, Privilege::ReadWrite),
            "write to region argument {arg} without read-write privilege"
        );
    }

    /// Applies the argument's declared reduction to an f64 element.
    ///
    /// # Panics
    /// Unless the argument holds a reduce privilege.
    #[inline]
    pub fn reduce_f64(&mut self, arg: usize, field: FieldId, p: DynPoint, v: f64) {
        if cfg!(debug_assertions) {
            self.check_point(arg, p);
            self.check_field(arg, field);
        }
        let op = match self.slots[arg].privilege {
            Privilege::Reduce(op) => op,
            _ => panic!("reduce on region argument {arg} without reduce privilege"),
        };
        self.slots[arg].inst_mut().reduce_f64_bound(field, p, op, v);
    }

    /// Sets the scalar return value.
    pub fn set_return(&mut self, v: f64) {
        self.return_value = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regent_region::{FieldSpace, FieldType};

    fn make_instance() -> (Instance, FieldId) {
        let fields = FieldSpace::of(&[("x", FieldType::F64)]);
        let x = fields.lookup("x").unwrap();
        (Instance::new(Domain::range(8), &fields), x)
    }

    #[test]
    fn read_write_through_ctx() {
        let (mut inst, x) = make_instance();
        let mut slots = vec![unsafe {
            ArgSlot::new(
                Domain::range(8),
                Privilege::ReadWrite,
                vec![x],
                &mut inst as *mut _,
            )
        }];
        let mut ctx = TaskCtx::new(&mut slots, &[], DynPoint::from(0));
        ctx.write_f64(0, x, DynPoint::from(3), 1.5);
        assert_eq!(ctx.read_f64(0, x, DynPoint::from(3)), 1.5);
        #[allow(clippy::drop_non_drop)] // end the borrow of `inst`
        drop(ctx);
        assert_eq!(inst.read_f64(x, DynPoint::from(3)), 1.5);
    }

    #[test]
    #[should_panic(expected = "without read-write privilege")]
    fn write_to_read_only_panics() {
        let (mut inst, x) = make_instance();
        let mut slots = vec![unsafe {
            ArgSlot::new(
                Domain::range(8),
                Privilege::Read,
                vec![x],
                &mut inst as *mut _,
            )
        }];
        let mut ctx = TaskCtx::new(&mut slots, &[], DynPoint::from(0));
        ctx.write_f64(0, x, DynPoint::from(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "read from reduce-only")]
    fn read_from_reduce_only_panics() {
        let (mut inst, x) = make_instance();
        let mut slots = vec![unsafe {
            ArgSlot::new(
                Domain::range(8),
                Privilege::Reduce(ReductionOp::Add),
                vec![x],
                &mut inst as *mut _,
            )
        }];
        let ctx = TaskCtx::new(&mut slots, &[], DynPoint::from(0));
        ctx.read_f64(0, x, DynPoint::from(0));
    }

    // `check_point` / `check_field` are debug-mode checks.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the domain")]
    fn subregion_domain_enforced() {
        let (mut inst, x) = make_instance();
        // Argument covers only [0,3] even though the instance covers [0,8).
        let mut slots = vec![unsafe {
            ArgSlot::new(
                Domain::from_ids(0..4),
                Privilege::ReadWrite,
                vec![x],
                &mut inst as *mut _,
            )
        }];
        let mut ctx = TaskCtx::new(&mut slots, &[], DynPoint::from(0));
        ctx.write_f64(0, x, DynPoint::from(5), 1.0);
    }

    #[test]
    fn binding_unseals_exactly_the_declared_fields_of_a_mutating_argument() {
        let fields = FieldSpace::of(&[
            ("x", FieldType::F64),
            ("y", FieldType::F64),
            ("n", FieldType::I64),
        ]);
        let ids: Vec<FieldId> = fields.iter().map(|(id, _)| id).collect();
        let (x, y, n) = (ids[0], ids[1], ids[2]);
        for privilege in [
            Privilege::Read,
            Privilege::ReadWrite,
            Privilege::Reduce(ReductionOp::Add),
        ] {
            let mut inst = Instance::new(Domain::range(8), &fields);
            inst.seal();
            let mut slots =
                vec![unsafe { ArgSlot::new(Domain::range(8), privilege, vec![x, n], &mut inst) }];
            let unsealed_by_bind = privilege.mutates();
            assert_eq!(inst.is_field_sealed(x), !unsealed_by_bind, "{privilege:?}");
            assert_eq!(inst.is_field_sealed(n), !unsealed_by_bind, "{privilege:?}");
            assert!(inst.is_field_sealed(y), "{privilege:?}: undeclared field");
            // Element accesses leave the seals where the bind put them.
            let mut ctx = TaskCtx::new(&mut slots, &[], DynPoint::from(0));
            match privilege {
                Privilege::Read => {
                    ctx.read_f64(0, x, DynPoint::from(1));
                }
                Privilege::ReadWrite => {
                    ctx.write_f64(0, x, DynPoint::from(1), 2.0);
                    ctx.write_i64(0, n, DynPoint::from(1), 3);
                }
                Privilege::Reduce(_) => ctx.reduce_f64(0, x, DynPoint::from(1), 2.0),
            }
            assert!(inst.is_field_sealed(y), "{privilege:?}: undeclared field");
            // The executor's re-seal point restores a verifiable seal.
            inst.seal_fields(&[x, n]);
            assert!(inst.seal_value().is_some() && inst.verify_seal());
        }
    }

    #[test]
    fn reduce_folds() {
        let (mut inst, x) = make_instance();
        let mut slots = vec![unsafe {
            ArgSlot::new(
                Domain::range(8),
                Privilege::Reduce(ReductionOp::Add),
                vec![x],
                &mut inst as *mut _,
            )
        }];
        let mut ctx = TaskCtx::new(&mut slots, &[], DynPoint::from(0));
        ctx.reduce_f64(0, x, DynPoint::from(2), 4.0);
        ctx.reduce_f64(0, x, DynPoint::from(2), 6.0);
        #[allow(clippy::drop_non_drop)] // end the borrow of `inst`
        drop(ctx);
        assert_eq!(inst.read_f64(x, DynPoint::from(2)), 10.0);
    }

    #[test]
    fn aliased_slots_same_instance() {
        // Two arguments backed by the same instance (shared-memory
        // implementation of region semantics): write through one, read
        // through the other.
        let (mut inst, x) = make_instance();
        let p: *mut Instance = &mut inst;
        let mut slots = vec![
            unsafe { ArgSlot::new(Domain::from_ids(0..4), Privilege::ReadWrite, vec![x], p) },
            unsafe { ArgSlot::new(Domain::from_ids(0..8), Privilege::Read, vec![x], p) },
        ];
        let mut ctx = TaskCtx::new(&mut slots, &[], DynPoint::from(0));
        ctx.write_f64(0, x, DynPoint::from(1), 9.0);
        assert_eq!(ctx.read_f64(1, x, DynPoint::from(1)), 9.0);
    }

    #[test]
    fn privilege_compatibility() {
        assert!(Privilege::Read.compatible(&Privilege::Read));
        assert!(
            Privilege::Reduce(ReductionOp::Add).compatible(&Privilege::Reduce(ReductionOp::Add))
        );
        assert!(
            !Privilege::Reduce(ReductionOp::Add).compatible(&Privilege::Reduce(ReductionOp::Min))
        );
        assert!(!Privilege::Read.compatible(&Privilege::ReadWrite));
        assert!(!Privilege::ReadWrite.compatible(&Privilege::ReadWrite));
        assert!(Privilege::ReadWrite.mutates());
        assert!(!Privilege::Read.mutates());
    }
}
