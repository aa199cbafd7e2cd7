//! The mapping interface (§4.2).
//!
//! "All tasks in Regent, including shard tasks, are processed through
//! the Legion mapping interface. This interface allows the user to
//! define a mapper that controls the assignment of tasks to physical
//! processors. ... The techniques described in this paper are agnostic
//! to the mapping used." — the implicit executor routes every point
//! task through a [`Mapper`]; the test suite exercises adversarial
//! mappers to check that mapping never changes results, only
//! performance.
//!
//! A mapper sees a point task's position in its launch and the launch
//! domain's size, because Legion's mapper sees the whole domain when it
//! slices an index launch (`slice_task`). Its default mapper slices the
//! domain into blocks, one per processor; [`DefaultMapper`] does the
//! same, with the blocks the SPMD shards own.

use regent_cr::spmd::owner_of;
use regent_geometry::DynPoint;
use regent_ir::TaskId;

/// Decides which worker executes a point task.
pub trait Mapper: Send + Sync {
    /// Chooses a worker in `0..num_workers` for the point task at
    /// position `pos` of a launch over `len` points (`point` is its
    /// color; a single launch is position 0 of 1).
    fn map_task(
        &self,
        task: TaskId,
        point: DynPoint,
        pos: usize,
        len: usize,
        num_workers: usize,
    ) -> usize;
}

/// The default mapper: block placement. Worker W−1−s runs the points
/// that SPMD shard s owns ([`owner_of`], a block distribution of each
/// launch domain), so a point's neighbours in the launch run on its
/// worker, as they do on its shard. The mirror gives the last block to
/// worker 0, the control thread, which issues the launch before it
/// runs anything: the members get their blocks first.
#[derive(Default, Clone, Copy, Debug)]
pub struct DefaultMapper;

impl Mapper for DefaultMapper {
    fn map_task(
        &self,
        _task: TaskId,
        _point: DynPoint,
        pos: usize,
        len: usize,
        num_workers: usize,
    ) -> usize {
        num_workers - 1 - owner_of(len, num_workers, pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The workers `m` picks for each position of a launch over
    /// `points`, in launch order.
    fn placed(m: &dyn Mapper, points: &[DynPoint], workers: usize) -> Vec<usize> {
        let len = points.len();
        (0..len)
            .map(|pos| m.map_task(TaskId(0), points[pos], pos, len, workers))
            .collect()
    }

    fn line(len: i64) -> Vec<DynPoint> {
        (0..len).map(DynPoint::from).collect()
    }

    #[test]
    fn default_spreads_points() {
        let m = DefaultMapper;
        // Blocks, mirrored: worker 0 runs the last one.
        assert_eq!(placed(&m, &line(8), 4), vec![3, 3, 2, 2, 1, 1, 0, 0]);
        // A 2-D domain is placed by position, not by coordinates: the
        // first row of a 2×2 tiling on one worker, the second on the
        // other, as the shards own them.
        let grid: Vec<DynPoint> = [[0, 0], [0, 1], [1, 0], [1, 1]]
            .iter()
            .map(|c| DynPoint::new(c))
            .collect();
        assert_eq!(placed(&m, &grid, 2), vec![1, 1, 0, 0]);
        // A remainder goes to the leading blocks, so to the members.
        assert_eq!(placed(&m, &line(5), 2), vec![1, 1, 1, 0, 0]);
        assert_eq!(placed(&m, &line(7), 3), vec![2, 2, 2, 1, 1, 0, 0]);
        // Fewer points than workers: one point each, from worker W−1
        // down; a single launch goes to worker W−1.
        assert_eq!(placed(&m, &line(2), 4), vec![3, 2]);
        assert_eq!(placed(&m, &line(1), 4), vec![3]);
        // One worker runs everything.
        assert_eq!(placed(&m, &line(6), 1), vec![0; 6]);
        // Every split: each worker's points are one contiguous run, in
        // descending worker order, and no two runs differ by more than
        // one point.
        for workers in 1..6 {
            for len in 1..20 {
                let w = placed(&m, &line(len), workers);
                assert!(w.windows(2).all(|p| p[0] >= p[1]), "{len} on {workers}");
                assert!(w.iter().all(|&x| x < workers));
                let sizes: Vec<usize> = (0..workers)
                    .map(|k| w.iter().filter(|&&x| x == k).count())
                    .collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{len} on {workers}: {sizes:?}");
            }
        }
    }
}
