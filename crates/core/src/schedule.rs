//! The exchange schedule: the dynamic half of the copy intersection
//! optimization (§3.3), evaluated once per compiled program.
//!
//! A [`SpmdProgram`]'s intersection declarations are turned into
//! concrete exchange pairs in the two phases the paper describes: a
//! *shallow* pass finds which pairs of subregions overlap at all (via
//! the interval-tree / BVH structures of `regent-region`), then a
//! *complete* pass computes the exact shared element sets for the
//! surviving pairs only. Both phases are timed — these are the numbers
//! Table 1 reports. A third step, timed on its own, turns each pair's
//! element set into gather and scatter offsets.
//!
//! This is the *inspector* of an inspector–executor scheme: everything
//! here depends only on the region forest, the launch domains and the
//! shard count, none of which change between runs, so
//! [`SpmdProgram::schedule`] builds the schedule on first use and every
//! later run — of any executor — replays it. The schedule also fixes
//! each shard's [`ShardLayout`] — which instances it holds, in which
//! slot — and names every pair's instances by slot, so an executor
//! indexes where it used to hash. And it sizes the transport: how many
//! frames one shard can address to another inside one copy statement is
//! a property of the pair lists ([`ExchangeSchedule::frame_bound`]),
//! so the capacity of the ring between them is derived
//! ([`ExchangeSchedule::ring_slots`]), not configured.

use crate::image::{shard_layouts, ShardLayout};
use crate::spmd::{block_range, CopySource, DomainId, SpmdArg, SpmdProgram, UseBase};
use regent_geometry::Domain;
use regent_region::intersect::shallow_pairs;
use regent_region::{Color, DomainIndexer, PartitionId, RegionId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Identifies one physical instance held by some shard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum InstKey {
    /// Instance of use `u` for partition color `c`.
    UsePart(u32, Color),
    /// Shard-replicated whole-region instance of use `u` on `shard`.
    UseWhole(u32, u32),
    /// Reduction-temp instance of temp `t` for color `c`.
    TempPart(u32, Color),
    /// Whole-region reduction temp of temp `t` on `shard`.
    TempWhole(u32, u32),
}

/// One concrete exchange: move `elements` of the copy's fields from the
/// producer's instance to the consumer's.
#[derive(Clone, Debug)]
pub struct PairPlan {
    /// Shard executing the send (owner of the source instance).
    pub src_owner: usize,
    /// Shard applying the data (owner of the destination instance).
    pub dst_owner: usize,
    /// Source instance.
    pub src_key: InstKey,
    /// Destination instance.
    pub dst_key: InstKey,
    /// Slot of the source instance in `src_owner`'s [`ShardLayout`].
    pub src_slot: u32,
    /// Slot of the destination instance in `dst_owner`'s layout.
    pub dst_slot: u32,
    /// Exact elements exchanged (non-empty).
    pub elements: Domain,
    /// Storage offsets of `elements`, in canonical element order, in
    /// the source instance. An instance lays its domain out through a
    /// [`DomainIndexer`], which is a function of the domain alone, so
    /// the offsets hold for every instance ever allocated for
    /// `src_key` — on any shard, in any run.
    pub src_offsets: Arc<[u32]>,
    /// Storage offsets of `elements` in the destination instance.
    pub dst_offsets: Arc<[u32]>,
    /// Global ordering key: position of the source child in its launch
    /// domain (applying pairs in this order reproduces the sequential
    /// fold order for reductions).
    pub order: usize,
}

/// Timings and sizes of the dynamic intersection computation (Table 1).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupStats {
    /// Wall time of the shallow (which-pairs) phase, seconds.
    pub shallow_seconds: f64,
    /// Wall time of the complete (exact-elements) phase, seconds.
    pub complete_seconds: f64,
    /// Wall time of turning the element sets into gather/scatter
    /// offset tables, seconds. Not one of the paper's two phases: it is
    /// the part of the inspector the executor needs beyond Table 1.
    pub offsets_seconds: f64,
    /// Total surviving pairs across all intersection declarations.
    pub num_pairs: usize,
    /// Total elements across all pair element sets.
    pub total_elements: u64,
}

impl SetupStats {
    /// Accumulates another schedule's statistics into this one (a
    /// hybrid program has one schedule per replicated segment).
    pub fn merge(&mut self, o: &SetupStats) {
        self.shallow_seconds += o.shallow_seconds;
        self.complete_seconds += o.complete_seconds;
        self.offsets_seconds += o.offsets_seconds;
        self.num_pairs += o.num_pairs;
        self.total_elements += o.total_elements;
    }
}

/// The evaluated exchange schedule: per-intersection pair lists,
/// globally ordered, each pair with its gather/scatter offsets.
/// Immutable once built; shards, runs and executors share one copy.
pub struct ExchangeSchedule {
    /// The shard count the owners in `pairs` were computed for.
    pub num_shards: usize,
    /// Pair lists indexed by `IntersectId`.
    pub pairs: Vec<Vec<PairPlan>>,
    /// Every shard's instance layout, with the pairs of each
    /// intersection it produces and consumes.
    pub layouts: Vec<ShardLayout>,
    /// Per ordered shard pair `(src, dst)` that exchanges at all: the
    /// most cross-shard pairs any one intersection — one copy
    /// statement — sends `src → dst`. Sparse (halo patterns give a
    /// shard O(1) peers, Table 1 builds schedules for 1024 shards);
    /// same-shard pairs are applied locally and never counted.
    frame_bounds: HashMap<(usize, usize), usize>,
    /// Timing/size statistics of the build.
    pub setup: SetupStats,
}

/// How many copy statements' worth of frames a ring holds. One is what
/// progress needs: the shard at the earliest dynamic copy statement
/// pushes only into rings whose consumers have finished every earlier
/// consumer phase, so those rings hold frames of that statement alone,
/// its producer phase completes and flushes, and every other shard is
/// waiting on, or ahead of, a shard that can move. The second lets a
/// shard that has consumed its peer's frames and gone on to produce the
/// next statement push without parking behind a peer still draining the
/// previous one; with exchange in both directions a shard cannot get
/// further ahead than that (its next consumer phase needs the peer's
/// next frames). Measured at 1 and 2 in EXPERIMENTS.md "One transport".
const STATEMENTS_IN_FLIGHT: usize = 2;

impl ExchangeSchedule {
    /// The most frames one copy statement makes `src` address to `dst`
    /// when every message is sent once; 0 on the diagonal and for
    /// shards that never exchange.
    pub fn frame_bound(&self, src: usize, dst: usize) -> usize {
        self.frame_bounds.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Slots of the exchange ring `src → dst` — the one place that size
    /// is chosen. `transmissions` is how many frames one logical message
    /// can become: 1, or the retry budget when the run's fault plan can
    /// corrupt a payload (the producer sends every corrupted attempt
    /// ahead of the clean one). The ring constructor rounds up to a
    /// power of two and to its 2-slot minimum, which is all the
    /// diagonal and pairs that never communicate get.
    pub fn ring_slots(&self, src: usize, dst: usize, transmissions: usize) -> usize {
        STATEMENTS_IN_FLIGHT * self.frame_bound(src, dst) * transmissions
    }
}

/// What [`build_exchange_plan`] returns, under the name its direct
/// callers (Table 1, the plan tests, the benchmark adapter) use.
pub type ExchangePlan = ExchangeSchedule;

/// One child of a source/destination shape.
struct ShapeChild<'a> {
    owner: usize,
    key: InstKey,
    /// The shape as a launch argument and the child's position in its
    /// owner's block: what the owner's layout turns into a slot.
    arg: SpmdArg,
    local: usize,
    region: RegionId,
    domain: &'a Domain,
    /// Position in the launch domain (or the shard, for whole-region
    /// shapes): the global order key.
    order: usize,
}

fn part_children(
    spmd: &SpmdProgram,
    arg: SpmdArg,
    part: PartitionId,
    domain: DomainId,
    mk: impl Fn(Color) -> InstKey,
) -> Vec<ShapeChild<'_>> {
    let colors = &spmd.launch_domains[domain.0 as usize];
    colors
        .iter()
        .enumerate()
        .map(|(pos, &c)| {
            let region = spmd.forest.subregion(part, c);
            let owner = spmd.owner_of_pos(domain, pos);
            ShapeChild {
                owner,
                key: mk(c),
                arg,
                local: pos - block_range(colors.len(), spmd.num_shards, owner).0,
                region,
                domain: spmd.forest.domain(region),
                order: pos,
            }
        })
        .collect()
}

fn whole_children(
    spmd: &SpmdProgram,
    arg: SpmdArg,
    region: RegionId,
    mk: impl Fn(u32) -> InstKey,
) -> Vec<ShapeChild<'_>> {
    let domain = spmd.forest.domain(region);
    (0..spmd.num_shards)
        .map(|s| ShapeChild {
            owner: s,
            key: mk(s as u32),
            arg,
            local: 0,
            region,
            domain,
            order: s,
        })
        .collect()
}

fn source_shape(spmd: &SpmdProgram, src: CopySource) -> Vec<ShapeChild<'_>> {
    match src {
        CopySource::Use(u) => use_shape(spmd, u),
        CopySource::Temp(t) => {
            let decl = &spmd.temps[t.0 as usize];
            let arg = SpmdArg::Temp(t);
            match decl.base {
                UseBase::Part(p) => {
                    part_children(spmd, arg, p, decl.domain, |c| InstKey::TempPart(t.0, c))
                }
                UseBase::Whole(r) => whole_children(spmd, arg, r, |s| InstKey::TempWhole(t.0, s)),
            }
        }
    }
}

fn use_shape(spmd: &SpmdProgram, u: usize) -> Vec<ShapeChild<'_>> {
    let decl = &spmd.uses[u];
    let arg = SpmdArg::Use(u);
    match decl.base {
        UseBase::Part(p) => {
            part_children(spmd, arg, p, decl.domain, |c| InstKey::UsePart(u as u32, c))
        }
        UseBase::Whole(r) => whole_children(spmd, arg, r, |s| InstKey::UseWhole(u as u32, s)),
    }
}

/// Evaluates every intersection declaration of the program — the
/// uncached inspector. Executors go through [`SpmdProgram::schedule`]
/// instead, which runs this once per program and shard count.
pub fn build_exchange_plan(spmd: &SpmdProgram) -> ExchangeSchedule {
    let mut pairs: Vec<Vec<PairPlan>> = Vec::with_capacity(spmd.intersects.len());
    let mut setup = SetupStats::default();
    let mut layouts = shard_layouts(spmd);
    let mut frame_bounds: HashMap<(usize, usize), usize> = HashMap::new();
    // An instance's layout depends on its region's domain alone, so
    // one indexer serves every pair, on either side, of every
    // intersection that region takes part in.
    let mut indexers: HashMap<RegionId, DomainIndexer> = HashMap::new();
    for decl in &spmd.intersects {
        let src = source_shape(spmd, decl.src);
        let dst = use_shape(spmd, decl.dst);

        // Shallow phase: which (src child, dst child) pairs overlap.
        let t0 = Instant::now();
        let src_domains: Vec<&Domain> = src.iter().map(|c| c.domain).collect();
        let dst_domains: Vec<&Domain> = dst.iter().map(|c| c.domain).collect();
        let shallow = shallow_pairs(&src_domains, &dst_domains);
        setup.shallow_seconds += t0.elapsed().as_secs_f64();

        // Complete phase: exact element sets for surviving pairs.
        let t1 = Instant::now();
        let complete: Vec<(usize, usize, Domain)> = shallow
            .into_iter()
            .map(|(i, j)| (i, j, src[i].domain.intersect(dst[j].domain)))
            .filter(|(_, _, elements)| !elements.is_empty())
            .collect();
        setup.complete_seconds += t1.elapsed().as_secs_f64();

        // Where those elements live in the two instances.
        let t2 = Instant::now();
        let mut list: Vec<PairPlan> = Vec::with_capacity(complete.len());
        for (i, j, elements) in complete {
            let (s, d) = (&src[i], &dst[j]);
            let mut offsets = |c: &ShapeChild| -> Arc<[u32]> {
                indexers
                    .entry(c.region)
                    .or_insert_with(|| DomainIndexer::new(c.domain))
                    .offsets_of(&elements)
                    .into()
            };
            list.push(PairPlan {
                src_owner: s.owner,
                dst_owner: d.owner,
                src_key: s.key,
                dst_key: d.key,
                src_slot: layouts[s.owner].arg_slot(&s.arg, s.local) as u32,
                dst_slot: layouts[d.owner].arg_slot(&d.arg, d.local) as u32,
                src_offsets: offsets(s),
                dst_offsets: offsets(d),
                elements,
                order: s.order,
            });
        }
        // Global deterministic order: source position, then destination
        // key — this is the order consumers apply data in, which
        // reproduces sequential fold order for reductions.
        list.sort_by_key(|a| (a.order, a.dst_key));
        setup.offsets_seconds += t2.elapsed().as_secs_f64();
        setup.num_pairs += list.len();
        setup.total_elements += list.iter().map(|p| p.src_offsets.len() as u64).sum::<u64>();
        // Each shard's share of the list, so it never scans the rest.
        let ix = pairs.len();
        for layout in &mut layouts {
            layout.produces.push(Vec::new());
            layout.consumes.push(Vec::new());
        }
        let mut frames: HashMap<(usize, usize), usize> = HashMap::new();
        for (seq, p) in list.iter().enumerate() {
            layouts[p.src_owner].produces[ix].push(seq as u32);
            layouts[p.dst_owner].consumes[ix].push(seq as u32);
            if p.src_owner != p.dst_owner {
                *frames.entry((p.src_owner, p.dst_owner)).or_default() += 1;
            }
        }
        for (link, n) in frames {
            let bound = frame_bounds.entry(link).or_default();
            *bound = (*bound).max(n);
        }
        pairs.push(list);
    }
    ExchangeSchedule {
        num_shards: spmd.num_shards,
        pairs,
        layouts,
        frame_bounds,
        setup,
    }
}
