//! Persistent block-worker pool.
//!
//! CuPBoP runs a migrated launch as a parallel loop over CPU block tasks,
//! on persistent threads that pull tasks from a queue. [`BlockPool`] is
//! that runtime for one simulated cluster: a pass (per-node block ranges
//! of one launch phase) becomes a flat queue of `(node, block-range)`
//! tasks drained by `host parallelism − 1` workers plus the calling
//! thread, so node-level and intra-node parallelism share one set of
//! threads and no OS thread is spawned per pass.
//!
//! * Workers are spawned lazily, on the first pass that needs more than
//!   one thread, and are joined when the pool is dropped.
//! * Idle workers block on a condition variable; nothing spins.
//! * Small passes never leave the caller: a pass with at most one task, or
//!   with fewer than [`INLINE_BLOCKS`] blocks in total, runs inline. The
//!   free functions [`crate::run_range_parallel`] and
//!   [`crate::run_range_parallel_simd`] skip the block-count rule: asking
//!   them for more than one worker always splits the range.
//! * A panicking task is caught on the worker, every other task still
//!   finishes, and the panic is re-raised on the caller. The pool stays
//!   usable afterwards.
//!
//! Results do not depend on the schedule: nodes own disjoint pools, a
//! node's chunks are ascending and each runs ascending, per-node
//! [`BlockStats`] are plain sums, and the lowest failing chunk's error
//! wins — the error a serial ascending run reports.

use crate::bytecode::Program;
use crate::engine::{run_range, run_range_on, RacyView};
use crate::interp::{execute_block_range, Arg, ExecError};
use crate::lane::{run_range_simd, run_range_simd_on};
use crate::memory::MemPool;
use crate::stats::BlockStats;
use cucc_ir::{Kernel, LaunchConfig};
use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Passes with fewer blocks than this, summed over all nodes, run inline
/// on the calling thread. Measured on a 2-vCPU host: a worker handoff
/// costs tens of microseconds of wake-up and system time, about what 64
/// small blocks take to execute.
pub const INLINE_BLOCKS: u64 = 64;

/// The host's available parallelism, queried once per process (the query
/// reads cgroup files on Linux, too slow to repeat per pass).
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How the tasks of one pass execute their blocks.
#[derive(Clone, Copy)]
pub enum PassEngine<'a> {
    /// The tree-walk reference interpreter; never chunked within a node.
    TreeWalk {
        /// Kernel to interpret.
        kernel: &'a Kernel,
        /// Launch geometry.
        launch: LaunchConfig,
        /// Launch arguments.
        args: &'a [Arg],
    },
    /// The scalar bytecode engine.
    Bytecode(&'a Program),
    /// The vectorized lane-array engine.
    Simd(&'a Program),
}

impl PassEngine<'_> {
    /// Whether one node's range may be split across threads: compiled
    /// engines only, and not for programs with global atomics.
    fn chunkable(self) -> bool {
        match self {
            PassEngine::TreeWalk { .. } => false,
            PassEngine::Bytecode(p) | PassEngine::Simd(p) => !p.serial_only(),
        }
    }

    /// Run `blocks` ascending on a node's own pool.
    fn run(self, pool: &mut MemPool, blocks: Range<u64>) -> Result<BlockStats, ExecError> {
        match self {
            PassEngine::TreeWalk {
                kernel,
                launch,
                args,
            } => execute_block_range(kernel, launch, blocks, args, pool),
            // An empty range has nothing to check or run on the compiled
            // engines; skip building the arena.
            _ if blocks.is_empty() => Ok(BlockStats::default()),
            PassEngine::Bytecode(p) => run_range(p, pool, blocks),
            PassEngine::Simd(p) => run_range_simd(p, pool, blocks),
        }
    }

    /// Run one chunk of a node's range through a view shared with the
    /// node's other chunks.
    fn run_chunk(self, view: &mut RacyView, blocks: Range<u64>) -> Result<BlockStats, ExecError> {
        match self {
            PassEngine::TreeWalk { .. } => unreachable!("tree-walk ranges are never chunked"),
            PassEngine::Bytecode(p) => run_range_on(p, view, blocks),
            PassEngine::Simd(p) => run_range_simd_on(p, view, blocks),
        }
    }
}

/// A persistent pool of block workers. See the module docs.
pub struct BlockPool {
    shared: Arc<Shared>,
    handles: OnceLock<Vec<JoinHandle<()>>>,
}

impl Default for BlockPool {
    fn default() -> BlockPool {
        BlockPool::new()
    }
}

impl fmt::Debug for BlockPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockPool")
            .field("workers", &self.handles.get().map(Vec::len))
            .finish()
    }
}

impl BlockPool {
    /// A pool of `host_parallelism() − 1` workers. Spawns nothing until a
    /// pass needs a second thread.
    pub fn new() -> BlockPool {
        BlockPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    batches: VecDeque::new(),
                    shutdown: false,
                }),
                wake: Condvar::new(),
            }),
            handles: OnceLock::new(),
        }
    }

    /// The process-wide pool behind the free functions
    /// [`crate::run_range_parallel`] and [`crate::run_range_parallel_simd`].
    /// Clusters own their pools instead.
    pub(crate) fn shared() -> &'static BlockPool {
        static SHARED: OnceLock<BlockPool> = OnceLock::new();
        SHARED.get_or_init(BlockPool::new)
    }

    /// A pool whose `n` workers are spawned up front, so that tests see
    /// the same concurrency on any host.
    #[cfg(test)]
    fn with_workers(n: usize) -> BlockPool {
        let pool = BlockPool::new();
        let _ = pool.handles.set(pool.spawn(n));
        pool
    }

    /// Spawn the workers if this is the first dispatch; returns how many
    /// there are.
    fn spawn_workers(&self) -> usize {
        self.handles
            .get_or_init(|| self.spawn(host_parallelism().saturating_sub(1)))
            .len()
    }

    fn spawn(&self, n: usize) -> Vec<JoinHandle<()>> {
        (0..n)
            .map(|k| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("cucc-block-{k}"))
                    .spawn(move || shared.serve())
                    .expect("spawn block worker")
            })
            .collect()
    }

    /// Run `task(0..n)` across the workers and the calling thread, and
    /// return once every call has finished. If any call panicked, the
    /// first panic is re-raised here after the rest have finished.
    pub(crate) fn run_tasks(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        let workers = if n > 1 { self.spawn_workers() } else { 0 };
        if workers == 0 {
            (0..n).for_each(task);
            return;
        }
        let batch = Arc::new(Batch::new(task, n));
        lock(&self.shared.queue)
            .batches
            .push_back(Arc::clone(&batch));
        for _ in 0..workers.min(n - 1) {
            self.shared.wake.notify_one();
        }
        batch.work();
        let panicked = batch.wait();
        lock(&self.shared.queue)
            .batches
            .retain(|b| !Arc::ptr_eq(b, &batch));
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
    }

    /// Execute one pass: `ranges[i]` on `pools[i]` with `engine`. A node
    /// whose range may be chunked ([`PassEngine`] compiled, program not
    /// serial-only) is split into up to `chunks[i]` ascending chunks; any
    /// other node is one task. Returns each node's summed stats or its
    /// lowest failing block's error, exactly as a serial per-node loop.
    /// A pass of fewer than [`INLINE_BLOCKS`] blocks runs inline.
    pub fn run_pass(
        &self,
        engine: PassEngine<'_>,
        pools: &mut [MemPool],
        ranges: &[Range<u64>],
        chunks: &[usize],
    ) -> Vec<Result<BlockStats, ExecError>> {
        let total: u64 = ranges.iter().map(|r| r.end.saturating_sub(r.start)).sum();
        if total < INLINE_BLOCKS {
            return run_inline(engine, pools, ranges);
        }
        self.split_pass(engine, pools, ranges, chunks)
    }

    /// [`BlockPool::run_pass`] without the block-count inline rule: only a
    /// pass of at most one task stays on the caller.
    pub(crate) fn split_pass(
        &self,
        engine: PassEngine<'_>,
        pools: &mut [MemPool],
        ranges: &[Range<u64>],
        chunks: &[usize],
    ) -> Vec<Result<BlockStats, ExecError>> {
        assert_eq!(pools.len(), ranges.len(), "one range per node");
        assert_eq!(chunks.len(), ranges.len(), "one chunk count per node");
        let chunkable = engine.chunkable();
        let chunks_of = |i: usize| {
            let len = ranges[i].end.saturating_sub(ranges[i].start);
            if chunkable {
                (chunks[i] as u64).clamp(1, len.max(1))
            } else {
                1
            }
        };
        let ntasks: u64 = (0..ranges.len())
            .filter(|&i| !ranges[i].is_empty())
            .map(chunks_of)
            .sum();
        if ntasks <= 1 {
            return run_inline(engine, pools, ranges);
        }

        let mut results: Vec<Result<BlockStats, ExecError>> = Vec::with_capacity(pools.len());
        let mut tasks: Vec<Task<'_>> = Vec::with_capacity(ntasks as usize);
        for (node, (pool, r)) in pools.iter_mut().zip(ranges).enumerate() {
            if r.is_empty() {
                results.push(engine.run(pool, r.clone()));
                continue;
            }
            results.push(Ok(BlockStats::default()));
            let k = chunks_of(node);
            if k == 1 {
                tasks.push(Task::new(node, r.clone(), TaskMem::Pool(pool)));
                continue;
            }
            let view = RacyView::new(pool);
            let len = r.end - r.start;
            for c in 0..k {
                let lo = r.start + c * len / k;
                let hi = r.start + (c + 1) * len / k;
                tasks.push(Task::new(node, lo..hi, TaskMem::View(view.clone())));
            }
        }
        self.run_tasks(tasks.len(), &|i| tasks[i].run(engine));
        // Tasks are in node order and, within a node, ascending: the first
        // error folded for a node is its lowest failing block's.
        for t in tasks {
            let out = t
                .out
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every task ran");
            match (&mut results[t.node], out) {
                (Ok(acc), Ok(s)) => *acc += s,
                (slot @ Ok(_), Err(e)) => *slot = Err(e),
                (Err(_), _) => {}
            }
        }
        results
    }
}

impl Drop for BlockPool {
    fn drop(&mut self) {
        let Some(handles) = self.handles.take() else {
            return;
        };
        lock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for h in handles {
            // A worker never unwinds (task panics are caught), so a join
            // error would be a bug in the pool itself; nothing to recover.
            let _ = h.join();
        }
    }
}

/// Every node's range, ascending, one node after another on the caller.
fn run_inline(
    engine: PassEngine<'_>,
    pools: &mut [MemPool],
    ranges: &[Range<u64>],
) -> Vec<Result<BlockStats, ExecError>> {
    assert_eq!(pools.len(), ranges.len(), "one range per node");
    pools
        .iter_mut()
        .zip(ranges)
        .map(|(pool, r)| engine.run(pool, r.clone()))
        .collect()
}

/// Memory one task executes against: the node's pool when the node is a
/// single task, or a view shared with the node's other chunks.
enum TaskMem<'a> {
    Pool(&'a mut MemPool),
    View(RacyView),
}

/// One `(node, block-range)` task of a pass.
struct Task<'a> {
    node: usize,
    blocks: Range<u64>,
    /// Taken by the one thread that runs the task.
    mem: Mutex<Option<TaskMem<'a>>>,
    out: Mutex<Option<Result<BlockStats, ExecError>>>,
}

impl<'a> Task<'a> {
    fn new(node: usize, blocks: Range<u64>, mem: TaskMem<'a>) -> Task<'a> {
        Task {
            node,
            blocks,
            mem: Mutex::new(Some(mem)),
            out: Mutex::new(None),
        }
    }

    fn run(&self, engine: PassEngine<'_>) {
        let mem = lock(&self.mem).take().expect("a task runs once");
        let blocks = self.blocks.clone();
        let out = match mem {
            TaskMem::Pool(pool) => engine.run(pool, blocks),
            TaskMem::View(mut view) => engine.run_chunk(&mut view, blocks),
        };
        *lock(&self.out) = Some(out);
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // No lock in this module is held across user code, so poisoning
    // carries no broken invariant.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// State shared between a pool and its workers.
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when a batch is queued or the pool shuts down.
    wake: Condvar,
}

struct Queue {
    batches: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

impl Shared {
    /// Worker main loop: drain batches until shutdown.
    fn serve(&self) {
        while let Some(batch) = self.next_batch() {
            batch.work();
        }
    }

    /// Block until a batch has unclaimed tasks (or shutdown: `None`).
    fn next_batch(&self) -> Option<Arc<Batch>> {
        let mut q = lock(&self.queue);
        loop {
            if q.shutdown {
                return None;
            }
            while q.batches.front().is_some_and(|b| b.exhausted()) {
                q.batches.pop_front();
            }
            if let Some(b) = q.batches.front() {
                return Some(Arc::clone(b));
            }
            q = self.wake.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One [`BlockPool::run_tasks`] call: `len` indices claimed in ascending
/// order by whichever thread gets there first.
struct Batch {
    /// The caller's closure with its lifetime erased.
    task: *const (dyn Fn(usize) + Sync + 'static),
    len: usize,
    next: AtomicUsize,
    state: Mutex<BatchState>,
    finished: Condvar,
}

struct BatchState {
    done: usize,
    panic: Option<Box<dyn Any + Send>>,
}

// SAFETY: `task` points to a `Sync` closure, so calling it from any
// thread is sound while it is alive. It is dereferenced only in
// `Batch::work` for a successfully claimed index `i < len`, and
// `BlockPool::run_tasks` — which holds the borrow the pointer was made
// from — returns only after `wait` has seen all `len` claimed calls
// finish, panicking ones included (they are caught). A worker that still
// holds the `Arc<Batch>` afterwards fails every claim and never touches
// the pointer.
unsafe impl Send for Batch {}
// SAFETY: see `Send`; every other field is itself `Sync`.
unsafe impl Sync for Batch {}

impl Batch {
    fn new(task: &(dyn Fn(usize) + Sync), len: usize) -> Batch {
        let task: *const (dyn Fn(usize) + Sync + '_) = task;
        // SAFETY: only the pointer's lifetime bound changes; the `Send`
        // impl above argues the pointee outlives every dereference.
        let task: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(task) };
        Batch {
            task,
            len,
            next: AtomicUsize::new(0),
            state: Mutex::new(BatchState {
                done: 0,
                panic: None,
            }),
            finished: Condvar::new(),
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.len
    }

    /// Claim and run indices until none are left.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // SAFETY: `i < len` was claimed, so the caller is still inside
            // `run_tasks` and the closure is alive (see the `Send` impl).
            let task = unsafe { &*self.task };
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| task(i)));
            let mut st = lock(&self.state);
            if let Err(payload) = outcome {
                st.panic.get_or_insert(payload);
            }
            st.done += 1;
            if st.done == self.len {
                self.finished.notify_all();
            }
        }
    }

    /// Block until every index has finished; returns the first panic.
    fn wait(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = lock(&self.state);
        while st.done < self.len {
            st = self
                .finished
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.panic.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cucc_ir::parse_kernel;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn tasks_all_run_once() {
        let pool = BlockPool::with_workers(3);
        for n in [0usize, 1, 2, 7, 100] {
            let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            pool.run_tasks(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn no_threads_until_needed() {
        let pool = BlockPool::new();
        pool.run_tasks(1, &|_| {});
        assert!(pool.handles.get().is_none(), "a single task stays inline");
        pool.run_tasks(2, &|_| {});
        assert_eq!(
            pool.handles.get().map(Vec::len),
            Some(host_parallelism() - 1)
        );
    }

    #[test]
    fn panic_reaches_caller_and_pool_survives() {
        let pool = BlockPool::with_workers(2);
        let ran = AtomicU64::new(0);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_tasks(16, &|i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 5 {
                    panic!("task five failed");
                }
            })
        }))
        .expect_err("the panic surfaces on the caller");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"task five failed"));
        assert_eq!(ran.load(Ordering::Relaxed), 16, "other tasks still ran");
        // Both workers are still alive: three tasks that each wait for the
        // others can only finish if three threads run them at once.
        let arrived = AtomicU64::new(0);
        pool.run_tasks(3, &|_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while arrived.load(Ordering::SeqCst) < 3 {
                assert!(std::time::Instant::now() < deadline, "a worker died");
                std::thread::yield_now();
            }
        });
        // And the next real pass, split into chunks across the workers,
        // matches a serial per-node run.
        let k = parse_kernel(
            "__global__ void inc(float* y, int n) {
                int id = blockIdx.x * blockDim.x + threadIdx.x;
                if (id < n) y[id] = y[id] * 2.0f + 1.0f;
            }",
        )
        .unwrap();
        let grid = INLINE_BLOCKS as u32;
        let launch = LaunchConfig::new(grid, 8);
        let mut pools = vec![MemPool::new(); 3];
        let mut args = Vec::new();
        for p in &mut pools {
            let y = p.alloc(grid as usize * 8 * 4);
            p.write_f32(y, &vec![1.5; grid as usize * 8]);
            args = vec![Arg::Buffer(y), Arg::int(i64::from(grid) * 8)];
        }
        let prog = Program::compile(&k, launch, &args).unwrap();
        let ranges = [0..40, 10..64, 0..0];
        let mut want = pools.clone();
        let serial: Vec<_> = want
            .iter_mut()
            .zip(&ranges)
            .map(|(p, r)| run_range(&prog, p, r.clone()))
            .collect();
        let got = pool.run_pass(PassEngine::Bytecode(&prog), &mut pools, &ranges, &[3, 2, 4]);
        assert_eq!(got, serial);
        assert_eq!(pools, want);
    }
}
