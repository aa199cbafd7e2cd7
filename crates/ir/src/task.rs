//! Task declarations and the kernel execution context.
//!
//! A Regent task declares *privileges* on its region parameters (§2.1):
//! read, read-write, or reduce with an associative-commutative operator.
//! Privileges are **strict** (§2.1): "any reads or writes to elements of
//! a region must conform to the privileges specified by the task", which
//! is what lets control replication analyze programs at the granularity
//! of task launches without looking inside task bodies. We enforce
//! strictness dynamically: a kernel reaches data only through the field
//! views its [`TaskCtx`] binds, and binding panics on a privilege
//! violation or an undeclared field — in release builds too.

use regent_geometry::{Domain, DynPoint};
use regent_region::{
    Element, FieldId, FieldView, Instance, Read, ReadWrite, Reduce, ReductionOp, Rows,
};
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
/// Domain and fields are borrowed — from the region forest and the
/// [`TaskDecl`] — so binding a point task allocates nothing.
///
/// The instance's domain may be a *superset* of the argument's domain
/// (the shared-memory implementation of §3 backs every subregion with
/// its root region's storage).
pub struct ArgSlot<'a> {
    /// The region argument's domain — the set of points the kernel may
    /// legally touch through this argument.
    pub domain: &'a Domain,
    /// The privilege held.
    pub privilege: Privilege,
    /// The declared fields.
    pub fields: &'a [FieldId],
    /// Raw pointer to the backing instance. The executor constructing
    /// the [`TaskCtx`] guarantees exclusivity for the kernel's duration.
    inst: *mut Instance,
}

impl<'a> ArgSlot<'a> {
    /// Binds a region argument to a raw instance pointer. A mutating
    /// privilege drops the seals of the declared fields here, once
    /// ([`Instance::unseal_fields_raw`]); the kernel's element accesses
    /// go through field views, which never touch a seal, so the binder
    /// is the only one who ever stores to them.
    ///
    /// # Safety
    /// The caller must guarantee that `inst` outlives the [`TaskCtx`],
    /// is not moved or reallocated meanwhile, and that `domain` lies
    /// inside its domain; and that, from this call until the kernel
    /// returns, no other thread accesses the instance's seals or
    /// accesses the declared fields' elements with a conflicting
    /// privilege. Executors that run kernels concurrently on one
    /// instance bind on a single thread (the implicit executor's
    /// control thread binds at issue time and moves the slot to a
    /// worker) and schedule at the granularity of *declared fields*:
    /// two kernels writing different fields of the same elements run
    /// unordered. That is sound because kernels cannot reach undeclared
    /// fields: every view a kernel obtains is checked against
    /// `privilege` and `fields` when it is bound, in every build
    /// profile.
    ///
    /// Multiple slots of the *same* kernel may alias one instance:
    /// kernels are single-threaded, and views are `Cell`-style — they
    /// never hold a `&` or `&mut` to an element across an access.
    pub unsafe fn new(
        domain: &'a Domain,
        privilege: Privilege,
        fields: &'a [FieldId],
        inst: *mut Instance,
    ) -> Self {
        if privilege.mutates() {
            // SAFETY: the caller vouches that `inst` is live and that no
            // other thread is at its seals.
            unsafe { Instance::unseal_fields_raw(inst, fields) };
        }
        ArgSlot {
            domain,
            privilege,
            fields,
            inst,
        }
    }
}

// SAFETY: `domain`, `privilege` and `fields` are plain shared data.
// `inst` is the reason the impl is written out: a slot is the
// permission to touch that instance under the contract of
// [`ArgSlot::new`], which is stated across threads already; moving the
// slot to another thread moves the permission, it does not duplicate it.
unsafe impl Send for ArgSlot<'_> {}

/// The execution context handed to a kernel: bound region arguments,
/// scalar arguments, the launch point, and an optional scalar return.
///
/// A kernel reaches its data by **binding each field once** —
/// [`TaskCtx::f64`], [`TaskCtx::f64_mut`], [`TaskCtx::f64_reduce`],
/// [`TaskCtx::i64`], [`TaskCtx::i64_mut`] — and indexing the returned
/// [`FieldView`] in its loops; [`TaskCtx::rows`] walks an argument's
/// domain as unit-stride runs. Binding checks the privilege, that the
/// field was declared and the column's type; the views check only that
/// an access stays inside the instance (and, in debug builds, inside
/// the argument's domain).
pub struct TaskCtx<'a> {
    slots: &'a [ArgSlot<'a>],
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
    pub fn new(slots: &'a [ArgSlot<'a>], scalars: &'a [f64], launch_point: DynPoint) -> Self {
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
    pub fn domain(&self, arg: usize) -> &'a Domain {
        self.slots[arg].domain
    }

    /// The privilege held on argument `arg`.
    pub fn privilege(&self, arg: usize) -> Privilege {
        self.slots[arg].privilege
    }

    /// The domain of argument `arg` as the unit-stride runs of its
    /// instance, in [`Domain::iter`] order; [`FieldView::row`] turns a
    /// run into a slice of any field of the argument.
    pub fn rows(&self, arg: usize) -> Rows<'a> {
        let slot = &self.slots[arg];
        // SAFETY: the instance outlives the context (`ArgSlot::new`).
        Rows::new(slot.domain, unsafe { Instance::indexer_raw(slot.inst) })
    }

    /// Binds `field` of argument `arg` with `access`, the privilege
    /// having been checked by the caller.
    fn bind<T: Element, A: Copy>(
        &self,
        arg: usize,
        field: FieldId,
        access: A,
    ) -> FieldView<'a, T, A> {
        let slot = &self.slots[arg];
        assert!(
            slot.fields.contains(&field),
            "task accessed undeclared field {field:?} of region argument {arg}"
        );
        // SAFETY: the contract of `ArgSlot::new` — the instance is live
        // and unmoved while the context is, `domain` lies inside it,
        // and the executor orders every other thread's conflicting
        // access to the declared fields, of which `field` is one.
        unsafe { Instance::view_raw(slot.inst, field, slot.domain, access) }
    }

    fn bind_read<T: Element>(&self, arg: usize, field: FieldId) -> FieldView<'a, T, Read> {
        assert!(
            !matches!(self.slots[arg].privilege, Privilege::Reduce(_)),
            "read from reduce-only region argument {arg}"
        );
        self.bind(arg, field, Read)
    }

    fn bind_write<T: Element>(&self, arg: usize, field: FieldId) -> FieldView<'a, T, ReadWrite> {
        assert!(
            matches!(self.slots[arg].privilege, Privilege::ReadWrite),
            "write to region argument {arg} without read-write privilege"
        );
        self.bind(arg, field, ReadWrite)
    }

    /// A read-only view of f64 field `field` of argument `arg`.
    ///
    /// # Panics
    /// If the argument is reduce-only, the field undeclared or not F64.
    pub fn f64(&self, arg: usize, field: FieldId) -> FieldView<'a, f64, Read> {
        self.bind_read(arg, field)
    }

    /// A read-only view of i64 field `field` of argument `arg`.
    pub fn i64(&self, arg: usize, field: FieldId) -> FieldView<'a, i64, Read> {
        self.bind_read(arg, field)
    }

    /// A read-write view of f64 field `field` of argument `arg`.
    ///
    /// # Panics
    /// Unless the argument holds read-write privilege and declares the
    /// field as F64.
    pub fn f64_mut(&self, arg: usize, field: FieldId) -> FieldView<'a, f64, ReadWrite> {
        self.bind_write(arg, field)
    }

    /// A read-write view of i64 field `field` of argument `arg`.
    pub fn i64_mut(&self, arg: usize, field: FieldId) -> FieldView<'a, i64, ReadWrite> {
        self.bind_write(arg, field)
    }

    /// A fold-only view of f64 field `field` of argument `arg`, folding
    /// with the argument's declared reduction operator.
    ///
    /// # Panics
    /// Unless the argument holds a reduce privilege and declares the
    /// field as F64.
    pub fn f64_reduce(&self, arg: usize, field: FieldId) -> FieldView<'a, f64, Reduce> {
        let Privilege::Reduce(op) = self.slots[arg].privilege else {
            panic!("reduce on region argument {arg} without reduce privilege")
        };
        self.bind(arg, field, Reduce(op))
    }

    /// Reads one f64 element: [`TaskCtx::f64`] bound for a single
    /// access. Kernels bind once and index the view instead.
    #[inline]
    pub fn read_f64(&self, arg: usize, field: FieldId, p: DynPoint) -> f64 {
        self.f64(arg, field).get(p)
    }

    /// Reads one i64 element ([`TaskCtx::i64`], bound per access).
    #[inline]
    pub fn read_i64(&self, arg: usize, field: FieldId, p: DynPoint) -> i64 {
        self.i64(arg, field).get(p)
    }

    /// Writes one f64 element ([`TaskCtx::f64_mut`], bound per access).
    #[inline]
    pub fn write_f64(&mut self, arg: usize, field: FieldId, p: DynPoint, v: f64) {
        self.f64_mut(arg, field).set(p, v)
    }

    /// Writes one i64 element ([`TaskCtx::i64_mut`], bound per access).
    #[inline]
    pub fn write_i64(&mut self, arg: usize, field: FieldId, p: DynPoint, v: i64) {
        self.i64_mut(arg, field).set(p, v)
    }

    /// Folds `v` into one f64 element ([`TaskCtx::f64_reduce`], bound
    /// per access).
    #[inline]
    pub fn reduce_f64(&mut self, arg: usize, field: FieldId, p: DynPoint, v: f64) {
        self.f64_reduce(arg, field).fold(p, v)
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

    /// One slot over `inst` — the single-argument binding most cases
    /// below need.
    fn slot<'a>(
        domain: &'a Domain,
        privilege: Privilege,
        fields: &'a [FieldId],
        inst: &mut Instance,
    ) -> [ArgSlot<'a>; 1] {
        // SAFETY: every caller keeps `inst` alive and otherwise unused
        // while the slot is.
        [unsafe { ArgSlot::new(domain, privilege, fields, inst) }]
    }

    #[test]
    fn read_write_through_ctx() {
        let (mut inst, x) = make_instance();
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(&dom, Privilege::ReadWrite, &declared, &mut inst);
        let mut ctx = TaskCtx::new(&slots, &[], DynPoint::from(0));
        ctx.write_f64(0, x, DynPoint::from(3), 1.5);
        assert_eq!(ctx.read_f64(0, x, DynPoint::from(3)), 1.5);
        // The same access, bound once.
        let xs = ctx.f64_mut(0, x);
        xs.set1(4, xs.get1(3) + 1.0);
        assert_eq!(inst.read_f64(x, DynPoint::from(3)), 1.5);
        assert_eq!(inst.read_f64(x, DynPoint::from(4)), 2.5);
    }

    // The strictness checks below are made when a view is bound, in
    // every build profile: `cargo test --release` runs them too.

    #[test]
    #[should_panic(expected = "without read-write privilege")]
    fn write_to_read_only_panics() {
        let (mut inst, x) = make_instance();
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(&dom, Privilege::Read, &declared, &mut inst);
        TaskCtx::new(&slots, &[], DynPoint::from(0)).f64_mut(0, x);
    }

    #[test]
    #[should_panic(expected = "read from reduce-only")]
    fn read_from_reduce_only_panics() {
        let (mut inst, x) = make_instance();
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(
            &dom,
            Privilege::Reduce(ReductionOp::Add),
            &declared,
            &mut inst,
        );
        TaskCtx::new(&slots, &[], DynPoint::from(0)).f64(0, x);
    }

    #[test]
    #[should_panic(expected = "without reduce privilege")]
    fn reduce_through_read_write_panics() {
        let (mut inst, x) = make_instance();
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(&dom, Privilege::ReadWrite, &declared, &mut inst);
        TaskCtx::new(&slots, &[], DynPoint::from(0)).f64_reduce(0, x);
    }

    #[test]
    #[should_panic(expected = "undeclared field")]
    fn undeclared_field_panics() {
        let fields = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
        let (x, y) = (fields.lookup("x").unwrap(), fields.lookup("y").unwrap());
        let mut inst = Instance::new(Domain::range(8), &fields);
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(&dom, Privilege::ReadWrite, &declared, &mut inst);
        // `y` exists in the instance, but the task did not declare it:
        // another task may be writing it right now.
        TaskCtx::new(&slots, &[], DynPoint::from(0)).f64(0, y);
    }

    #[test]
    #[should_panic(expected = "undeclared field")]
    fn undeclared_field_panics_through_the_per_access_wrappers() {
        let fields = FieldSpace::of(&[("x", FieldType::F64), ("y", FieldType::F64)]);
        let (x, y) = (fields.lookup("x").unwrap(), fields.lookup("y").unwrap());
        let mut inst = Instance::new(Domain::range(8), &fields);
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(&dom, Privilege::ReadWrite, &declared, &mut inst);
        TaskCtx::new(&slots, &[], DynPoint::from(0)).write_f64(0, y, DynPoint::from(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "is not I64")]
    fn column_type_is_checked_at_bind() {
        let (mut inst, x) = make_instance();
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(&dom, Privilege::Read, &declared, &mut inst);
        TaskCtx::new(&slots, &[], DynPoint::from(0)).i64(0, x);
    }

    #[test]
    #[should_panic(expected = "outside instance domain")]
    fn access_outside_the_instance_panics() {
        let (mut inst, x) = make_instance();
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(&dom, Privilege::Read, &declared, &mut inst);
        TaskCtx::new(&slots, &[], DynPoint::from(0))
            .f64(0, x)
            .get1(8);
    }

    // The per-element in-domain check is a debug-mode check.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the domain")]
    fn subregion_domain_enforced() {
        let (mut inst, x) = make_instance();
        // Argument covers only [0,3] even though the instance covers [0,8).
        let dom = Domain::from_ids(0..4);
        let declared = [x];
        let slots = slot(&dom, Privilege::ReadWrite, &declared, &mut inst);
        let mut ctx = TaskCtx::new(&slots, &[], DynPoint::from(0));
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
        let dom = Domain::range(8);
        for privilege in [
            Privilege::Read,
            Privilege::ReadWrite,
            Privilege::Reduce(ReductionOp::Add),
        ] {
            let mut inst = Instance::new(Domain::range(8), &fields);
            inst.seal();
            let declared = [x, n];
            let slots = slot(&dom, privilege, &declared, &mut inst);
            let unsealed_by_bind = privilege.mutates();
            assert_eq!(inst.is_field_sealed(x), !unsealed_by_bind, "{privilege:?}");
            assert_eq!(inst.is_field_sealed(n), !unsealed_by_bind, "{privilege:?}");
            assert!(inst.is_field_sealed(y), "{privilege:?}: undeclared field");
            // Element accesses leave the seals where the bind put them.
            let ctx = TaskCtx::new(&slots, &[], DynPoint::from(0));
            match privilege {
                Privilege::Read => {
                    ctx.f64(0, x).get1(1);
                }
                Privilege::ReadWrite => {
                    ctx.f64_mut(0, x).set1(1, 2.0);
                    ctx.i64_mut(0, n).set1(1, 3);
                }
                Privilege::Reduce(_) => ctx.f64_reduce(0, x).fold1(1, 2.0),
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
        let dom = Domain::range(8);
        let declared = [x];
        let slots = slot(
            &dom,
            Privilege::Reduce(ReductionOp::Add),
            &declared,
            &mut inst,
        );
        let mut ctx = TaskCtx::new(&slots, &[], DynPoint::from(0));
        ctx.reduce_f64(0, x, DynPoint::from(2), 4.0);
        ctx.f64_reduce(0, x).fold1(2, 6.0);
        assert_eq!(inst.read_f64(x, DynPoint::from(2)), 10.0);
    }

    #[test]
    fn aliased_slots_same_instance() {
        // Two arguments backed by the same instance (shared-memory
        // implementation of region semantics): write through one, read
        // through the other, with both views live.
        let (mut inst, x) = make_instance();
        let p: *mut Instance = &mut inst;
        let (lower, all) = (Domain::from_ids(0..4), Domain::from_ids(0..8));
        let declared = [x];
        let slots = [
            unsafe { ArgSlot::new(&lower, Privilege::ReadWrite, &declared, p) },
            unsafe { ArgSlot::new(&all, Privilege::Read, &declared, p) },
        ];
        let ctx = TaskCtx::new(&slots, &[], DynPoint::from(0));
        let (w, r) = (ctx.f64_mut(0, x), ctx.f64(1, x));
        w.set1(1, 9.0);
        assert_eq!(r.get1(1), 9.0);
        w.set1(1, r.get1(1) + 1.0);
        assert_eq!(r.get1(1), 10.0);
        // Rows of the two arguments alias the same way.
        let run = ctx.rows(0).next().unwrap();
        assert_eq!((run.start, run.len), (DynPoint::from(0), 4));
        let (wr, rr) = (w.row(run), r.row(run));
        wr.set(2, 3.0);
        assert_eq!(rr.get(2), 3.0);
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
