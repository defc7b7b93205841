//! Morsel-driven parallelism: fixed-size work units over a scoped
//! worker pool.
//!
//! Scans are partitioned into fixed-size *morsels*
//! ([`ExecPolicy::morsel_rows`] rows each); every columnar operator's
//! per-morsel work is distributed over a pool of
//! [`ExecPolicy::workers`] scoped threads pulling task indices from a
//! shared counter (HyPer-style morsel dispatch). Results are collected
//! *by task index*, so the output order — and therefore every
//! downstream merge — is independent of worker count and scheduling.
//!
//! Determinism contract: [`parallel_map`] returns results in task
//! order, and callers must combine per-morsel partial results by a
//! morsel-order merge. Error selection is deterministic too: collecting
//! the results stops at the lowest-indexed failing task, matching what a
//! serial left-to-right run would report at morsel granularity.

use crate::error::{SqlError, SqlResult};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How the columnar executor ([`crate::chunk_exec`]) spreads a plan's
/// work. Every statement runs columnar; the policy only sizes the
/// morsels and the pool, and results are byte-identical at every
/// setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecPolicy {
    /// Worker threads for morsel dispatch (1 = run inline).
    pub workers: usize,
    /// Rows per scan morsel.
    pub morsel_rows: usize,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            workers: 1,
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }
}

/// Default scan morsel size. Large enough to amortize dispatch and keep
/// typed loops hot, small enough that a scan splits into useful
/// parallelism at TAG-Bench scale (10³–10⁶ rows).
pub const DEFAULT_MORSEL_ROWS: usize = 8192;

impl ExecPolicy {
    /// A policy with the given worker count and default morsel size.
    pub fn with_workers(workers: usize) -> ExecPolicy {
        ExecPolicy {
            workers: workers.max(1),
            morsel_rows: DEFAULT_MORSEL_ROWS,
        }
    }

    /// Partition `[0, len)` into morsel ranges.
    pub fn morsels(&self, len: usize) -> Vec<(usize, usize)> {
        let step = self.morsel_rows.max(1);
        let mut out = Vec::with_capacity(len.div_ceil(step).max(1));
        let mut start = 0;
        while start < len {
            let end = (start + step).min(len);
            out.push((start, end));
            start = end;
        }
        out
    }
}

/// Hooks the pool uses to report liveness to the metrics layer.
pub trait PoolObserver: Sync {
    /// A worker picked up a task.
    fn task_started(&self) {}
    /// A worker finished a task.
    fn task_finished(&self) {}
}

/// The silent observer.
pub struct NoObserver;
impl PoolObserver for NoObserver {}

/// Run `tasks` task indices through `f` on up to `workers` threads,
/// returning results in task order (see module docs for the
/// determinism contract).
pub fn parallel_map<T, F>(
    tasks: usize,
    workers: usize,
    observer: &dyn PoolObserver,
    f: F,
) -> Vec<SqlResult<T>>
where
    T: Send,
    F: Fn(usize) -> SqlResult<T> + Sync,
{
    if tasks == 0 {
        return Vec::new();
    }
    let threads = workers.max(1).min(tasks);
    if threads <= 1 {
        return (0..tasks)
            .map(|i| {
                observer.task_started();
                let r = f(i);
                observer.task_finished();
                r
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<SqlResult<T>>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                observer.task_started();
                let r = f(i);
                observer.task_finished();
                *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| Err(SqlError::Eval("morsel worker dropped its task".into())))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morsel_partition_covers_range() {
        let p = ExecPolicy {
            workers: 4,
            morsel_rows: 10,
        };
        assert_eq!(p.morsels(0), Vec::<(usize, usize)>::new());
        assert_eq!(p.morsels(25), vec![(0, 10), (10, 20), (20, 25)]);
        assert_eq!(p.morsels(10), vec![(0, 10)]);
    }

    #[test]
    fn parallel_map_preserves_task_order() {
        for workers in [1, 2, 8] {
            let results = parallel_map(100, workers, &NoObserver, |i| Ok(i * 2));
            let vals: Vec<usize> = results.into_iter().collect::<SqlResult<_>>().unwrap();
            assert_eq!(vals, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn first_error_in_task_order_wins() {
        for workers in [1, 2, 8] {
            let results = parallel_map(50, workers, &NoObserver, |i| {
                if i >= 10 {
                    Err(SqlError::Eval(format!("task {i}")))
                } else {
                    Ok(i)
                }
            });
            let err = results
                .into_iter()
                .collect::<SqlResult<Vec<usize>>>()
                .unwrap_err();
            assert_eq!(err.message(), "task 10");
        }
    }
}
