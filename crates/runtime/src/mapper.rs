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

use regent_geometry::DynPoint;
use regent_ir::TaskId;

/// Decides which worker executes a point task.
pub trait Mapper: Send + Sync {
    /// Chooses a worker in `0..num_workers` for the given task point.
    fn map_task(&self, task: TaskId, point: DynPoint, num_workers: usize) -> usize;
}

/// The default mapper: spreads launch points round-robin by the sum of
/// their coordinates ("a typical strategy is to ... distribute the
/// tasks ... among the processors", §4.2) — a diagonal pattern, so a
/// 1×N tiling spreads as well as an N×1 one.
#[derive(Default, Clone, Copy, Debug)]
pub struct DefaultMapper;

impl Mapper for DefaultMapper {
    fn map_task(&self, _task: TaskId, point: DynPoint, num_workers: usize) -> usize {
        let sum: i64 = point.coords().iter().sum();
        sum.rem_euclid(num_workers as i64) as usize
    }
}

/// An adversarial mapper that serializes everything onto one worker —
/// pathological for performance, required to be harmless for
/// correctness.
#[derive(Default, Clone, Copy, Debug)]
pub struct SingleWorkerMapper;

impl Mapper for SingleWorkerMapper {
    fn map_task(&self, _task: TaskId, _point: DynPoint, _num_workers: usize) -> usize {
        0
    }
}

/// A mapper keyed on the task id — all points of one task type land on
/// the same worker (a "specialized processor" policy).
#[derive(Default, Clone, Copy, Debug)]
pub struct TaskKindMapper;

impl Mapper for TaskKindMapper {
    fn map_task(&self, task: TaskId, _point: DynPoint, num_workers: usize) -> usize {
        task.0 as usize % num_workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spreads_points() {
        let m = DefaultMapper;
        let assignments: Vec<usize> = (0..8)
            .map(|i| m.map_task(TaskId(0), DynPoint::from(i), 4))
            .collect();
        assert_eq!(assignments, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Negative coordinates still map in range.
        assert!(m.map_task(TaskId(0), DynPoint::from(-3), 4) < 4);
        // Every coordinate counts: a 1×N tiling does not pile onto
        // worker 0, and a 2-D tiling alternates along both axes.
        let row: Vec<usize> = (0..4)
            .map(|j| m.map_task(TaskId(0), DynPoint::new(&[0, j]), 2))
            .collect();
        assert_eq!(row, vec![0, 1, 0, 1]);
        assert_eq!(m.map_task(TaskId(0), DynPoint::new(&[1, 1]), 2), 0);
    }

    #[test]
    fn single_worker_is_constant() {
        let m = SingleWorkerMapper;
        for i in 0..10 {
            assert_eq!(m.map_task(TaskId(1), DynPoint::from(i), 8), 0);
        }
    }

    #[test]
    fn task_kind_groups_by_task() {
        let m = TaskKindMapper;
        assert_eq!(m.map_task(TaskId(0), DynPoint::from(5), 3), 0);
        assert_eq!(m.map_task(TaskId(1), DynPoint::from(5), 3), 1);
        assert_eq!(m.map_task(TaskId(4), DynPoint::from(5), 3), 1);
    }
}
