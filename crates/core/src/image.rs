//! Shard images: a shard's physical instances, mapped once per
//! compiled program.
//!
//! In the paper a shard is a long-running task: its instances are
//! created once (§3.1's initialization copies fill them, the
//! finalization copies flush them) and from then on are only exchanged
//! into (§3.5, §4.3). Everything about those instances that depends on
//! the compiled program alone — which instances a shard holds, how each
//! is laid out, which columns it stores, which storage runs of the root
//! instance it mirrors — is computed here once and reused by every run
//! of every SPMD-family strategy, the same inspector–executor split the
//! exchange schedule makes for the copies between them:
//!
//! * [`ShardLayout`] — the immutable part: a shard's [`InstKey`]s in a
//!   fixed order, i.e. dense *slot* numbers. It lives in the
//!   [`ExchangeSchedule`](crate::schedule::ExchangeSchedule), whose
//!   pairs name their instances by slot, and carries the per-shard
//!   producer/consumer pair lists.
//! * [`ShardImage`] — the instances themselves, indexed by slot, each
//!   storing only the columns its use or temporary declares, plus the
//!   memoized [`CopyRuns`] that fill a use instance from the root store
//!   and flush it back.
//! * the program's pool ([`SpmdProgram::take_image`] /
//!   [`SpmdProgram::put_image`]) — where it keeps its images between
//!   runs (take-or-build).
//!
//! Nothing a run observes survives from the previous one:
//! [`ShardImage::fill`] drops every seal and overwrites every declared
//! column of every instance over its whole domain.

use crate::schedule::InstKey;
use crate::spmd::{DomainId, SpmdArg, SpmdProgram, TempId, UseBase};
use regent_ir::Store;
use regent_region::{Color, CopyRuns, DomainIndexer, FieldId, Instance, ReductionOp, RegionId};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Mutex;

/// One slot of a [`ShardLayout`]: which instance lives there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotInfo {
    /// The instance's identity (what traces and checkpoints name).
    pub key: InstKey,
    /// The region whose domain the instance covers: the subregion of a
    /// partition use, the whole region of a replicated one.
    pub region: RegionId,
}

/// The slots of one use or temporary on one shard.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    first: u32,
    len: u32,
    /// One instance per owned launch point (a partition) rather than
    /// one for the shard (a whole region).
    per_point: bool,
}

/// The instances one shard holds, in a fixed order: every
/// instance-bearing use's (in use order; a partition's owned colors in
/// launch-domain order), then every reduction temporary's. A function
/// of the compiled program and its shard count.
#[derive(Clone, Debug, Default)]
pub struct ShardLayout {
    /// Slot → instance.
    pub slots: Vec<SlotInfo>,
    uses: Vec<Span>,
    temps: Vec<Span>,
    /// Per intersection, the indices of the pairs this shard produces
    /// (into `ExchangeSchedule::pairs[i]`, ascending).
    pub produces: Vec<Vec<u32>>,
    /// Per intersection, the indices of the pairs this shard consumes.
    pub consumes: Vec<Vec<u32>>,
}

impl ShardLayout {
    /// The slot of launch argument `arg` for the shard's `local`-th
    /// owned point of the launch domain.
    #[inline]
    pub fn arg_slot(&self, arg: &SpmdArg, local: usize) -> usize {
        let span = match *arg {
            SpmdArg::Use(u) => self.uses[u],
            SpmdArg::Temp(t) => self.temps[t.0 as usize],
        };
        let within = if span.per_point { local } else { 0 };
        // A slot past the span would be another use's instance.
        assert!(
            within < span.len as usize,
            "{arg:?} has no instance for owned point {local} on this shard"
        );
        span.first as usize + within
    }

    /// The slots of reduction temporary `t`'s instances.
    pub fn temp_slots(&self, t: TempId) -> Range<usize> {
        let span = self.temps[t.0 as usize];
        span.first as usize..(span.first + span.len) as usize
    }

    /// Appends the instances `shard` holds of one use or temporary:
    /// one per owned color of a partition (`key(Some(color))`), one
    /// for a whole region (`key(None)`).
    fn push_span(
        &mut self,
        spmd: &SpmdProgram,
        shard: usize,
        base: UseBase,
        domain: DomainId,
        key: impl Fn(Option<Color>) -> InstKey,
    ) -> Span {
        let first = self.slots.len() as u32;
        match base {
            UseBase::Part(p) => {
                let owned = spmd.owned_colors(domain, shard);
                self.slots.extend(owned.iter().map(|&c| SlotInfo {
                    key: key(Some(c)),
                    region: spmd.forest.subregion(p, c),
                }));
            }
            UseBase::Whole(region) => self.slots.push(SlotInfo {
                key: key(None),
                region,
            }),
        }
        Span {
            first,
            len: self.slots.len() as u32 - first,
            per_point: matches!(base, UseBase::Part(_)),
        }
    }
}

/// Every shard's layout at the program's current shard count (without
/// the pair lists, which the schedule build adds).
pub fn shard_layouts(spmd: &SpmdProgram) -> Vec<ShardLayout> {
    let layout_of = |shard: usize| {
        let s = shard as u32;
        let mut layout = ShardLayout::default();
        for (u, decl) in spmd.uses.iter().enumerate() {
            let u = u as u32;
            let span = if decl.needs_instances() {
                layout.push_span(spmd, shard, decl.base, decl.domain, |c| match c {
                    Some(c) => InstKey::UsePart(u, c),
                    None => InstKey::UseWhole(u, s),
                })
            } else {
                Span::default()
            };
            layout.uses.push(span);
        }
        for (t, decl) in spmd.temps.iter().enumerate() {
            let t = t as u32;
            let span = layout.push_span(spmd, shard, decl.base, decl.domain, |c| match c {
                Some(c) => InstKey::TempPart(t, c),
                None => InstKey::TempWhole(t, s),
            });
            layout.temps.push(span);
        }
        layout
    };
    (0..spmd.num_shards).map(layout_of).collect()
}

/// What a slot's instance is declared to hold: `fields`, mirrored from
/// the root instance (a use) or filled with `temp_op`'s identity (a
/// reduction temporary).
struct Declared<'a> {
    fields: &'a [FieldId],
    temp_op: Option<ReductionOp>,
}

fn declared<'a>(spmd: &'a SpmdProgram, key: &InstKey) -> Declared<'a> {
    match *key {
        InstKey::UsePart(u, _) | InstKey::UseWhole(u, _) => Declared {
            fields: &spmd.uses[u as usize].fields,
            temp_op: None,
        },
        InstKey::TempPart(t, _) | InstKey::TempWhole(t, _) => Declared {
            fields: &spmd.temps[t as usize].fields,
            temp_op: Some(spmd.temps[t as usize].op),
        },
    }
}

/// One shard's instances, indexed by the slots of its [`ShardLayout`].
#[derive(Debug)]
pub struct ShardImage {
    /// Slot → instance.
    pub insts: Vec<Instance>,
    /// Per use slot (they lead the layout): the storage runs that
    /// mirror the instance's whole domain from its tree's root instance.
    fills: Vec<CopyRuns>,
}

impl ShardImage {
    /// Builds the instances of `layout` — the one place an SPMD-family
    /// shard's instances are allocated. Each stores only the columns
    /// its use or temporary declares; contents are unspecified until
    /// [`ShardImage::fill`].
    pub fn build(spmd: &SpmdProgram, layout: &ShardLayout) -> ShardImage {
        let forest = &spmd.forest;
        // A root instance's layout is a function of its domain alone,
        // so the fill runs need no store to be computed against.
        let mut roots: HashMap<RegionId, DomainIndexer> = HashMap::new();
        // Instances over one subregion (a ghost use and the temporary
        // reduced into it) share one layout: for a sparse domain the
        // indexer is larger than the columns.
        let mut first_over: HashMap<RegionId, usize> = HashMap::new();
        let mut insts: Vec<Instance> = Vec::with_capacity(layout.slots.len());
        let mut fills = Vec::new();
        for (slot, info) in layout.slots.iter().enumerate() {
            let domain = forest.domain(info.region);
            let decl = declared(spmd, &info.key);
            let fields = forest.fields(info.region);
            let inst = match first_over.get(&info.region) {
                Some(&first) => insts[first].sibling(fields, decl.fields),
                None => {
                    first_over.insert(info.region, slot);
                    Instance::with_fields(domain.clone(), fields, decl.fields)
                }
            };
            if decl.temp_op.is_none() {
                let root = forest.root_of(info.region);
                let root_ix = roots
                    .entry(root)
                    .or_insert_with(|| DomainIndexer::new(forest.domain(root)));
                fills.push(CopyRuns::new(root_ix, inst.indexer(), domain));
            }
            insts.push(inst);
        }
        ShardImage { insts, fills }
    }

    /// Starts a run: every use instance mirrors `store` over its whole
    /// domain in every declared field, every temporary holds its
    /// operator's identity, no column is sealed. Whatever the previous
    /// run left — results, seals, an injected bit flip — is gone.
    pub fn fill(&mut self, spmd: &SpmdProgram, layout: &ShardLayout, store: &Store) {
        for (slot, (inst, info)) in self.insts.iter_mut().zip(&layout.slots).enumerate() {
            inst.clear_seals();
            let decl = declared(spmd, &info.key);
            match decl.temp_op {
                None => {
                    let root = store.instance_in(&spmd.forest, info.region);
                    self.fills[slot].copy(root, inst, decl.fields);
                }
                Some(op) => {
                    for &f in decl.fields {
                        inst.fill_field(f, op);
                    }
                }
            }
        }
    }

    /// Finishes a run (§3.1 finalization): every instance of a written
    /// partition use goes back into `store`. All instances covering an
    /// element agree at this point, so the order is immaterial.
    pub fn flush(&self, spmd: &SpmdProgram, layout: &ShardLayout, store: &mut Store) {
        for (slot, info) in layout.slots.iter().enumerate() {
            let InstKey::UsePart(u, _) = info.key else {
                continue;
            };
            let decl = &spmd.uses[u as usize];
            if decl.writes {
                let root = store.instance_mut_in(&spmd.forest, info.region);
                self.fills[slot].copy_back(&self.insts[slot], root, &decl.fields);
            }
        }
    }
}

/// A program's idle shard images, tagged with the shard count they were
/// built for. A run *takes* its shard's image and builds one when none
/// is idle — the first run, a second run of the same program in flight,
/// a changed shard count — and the team driver *puts* the images back
/// only after every shard finished cleanly; a run that unwinds simply
/// drops what it took. At most one image per shard is kept.
#[derive(Debug, Default)]
pub(crate) struct ImagePool {
    inner: Mutex<PoolInner>,
}

#[derive(Debug, Default)]
struct PoolInner {
    num_shards: usize,
    idle: Vec<Option<ShardImage>>,
}

impl ImagePool {
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // Only moves happen under the lock, so a poisoned pool (a
        // panicking thread held it) is still consistent.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The idle image of `shard` at `num_shards` shards, if any. Images
    /// built for another shard count are dropped here.
    fn take(&self, num_shards: usize, shard: usize) -> Option<ShardImage> {
        let mut g = self.lock();
        if g.num_shards != num_shards {
            g.num_shards = num_shards;
            g.idle.clear();
        }
        g.idle.resize_with(num_shards, || None);
        g.idle[shard].take()
    }

    fn put(&self, num_shards: usize, shard: usize, image: ShardImage) {
        let mut g = self.lock();
        if g.num_shards == num_shards {
            if let Some(slot @ None) = g.idle.get_mut(shard) {
                *slot = Some(image);
            }
        }
    }

    /// Number of idle images.
    fn idle(&self) -> usize {
        self.lock().idle.iter().flatten().count()
    }
}

impl SpmdProgram {
    /// Shard `shard`'s image for a run: the idle one when there is one,
    /// a freshly built one otherwise — and whether it had to be built.
    /// Contents are whatever the last run left; call
    /// [`ShardImage::fill`].
    pub fn take_image(&self, layout: &ShardLayout, shard: usize) -> (ShardImage, bool) {
        match self.images.take(self.num_shards, shard) {
            Some(image) => (image, false),
            None => (ShardImage::build(self, layout), true),
        }
    }

    /// Returns `shard`'s image after a clean run, for the next run to
    /// take. Dropped when the shard already has an idle image (two runs
    /// of the program overlapped) or the shard count changed meanwhile.
    pub fn put_image(&self, shard: usize, image: ShardImage) {
        self.images.put(self.num_shards, shard, image)
    }

    /// Number of shard images the program holds idle (between runs:
    /// one per shard once it has run).
    pub fn idle_images(&self) -> usize {
        self.images.idle()
    }
}
