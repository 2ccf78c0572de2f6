//! The cluster's block pool against a serial per-node loop.
//!
//! Every pass a [`SimCluster`] runs goes through its [`BlockPool`]: nodes
//! (and, under intra-node parallelism, ascending chunks of a node's range)
//! become tasks drained by worker threads. This suite runs the same cases
//! through the pool and through the plainest possible reference — each
//! node's range executed ascending on its own copy of memory, one node
//! after another — and requires identical node memories, identical
//! per-node [`BlockStats`] and the same first error.
//!
//! Cases span the three engines, 1–8 nodes, empty / overlapping /
//! callback-style (every node the same range) assignments, intra-node
//! parallelism on and off, a divergent-mask kernel and one kernel whose
//! tail blocks fault out of bounds. The grid is twice
//! [`INLINE_BLOCKS`], so most passes are dispatched to the pool's tasks
//! (on a single-core host the caller drains them alone) and small ones
//! take the inline path.

use cucc_cluster::{ClusterSpec, SimCluster};
use cucc_exec::{
    execute_block_range, run_range, run_range_simd, Arg, BlockStats, EngineKind, ExecError,
    ExecOptions, MemPool, Program, INLINE_BLOCKS,
};
use cucc_ir::{parse_kernel, Kernel, LaunchConfig};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;

/// Threads per block in every case (the shared-memory kernel's tile).
const BLOCK: u32 = 32;
/// Elements per buffer: room for `GRID` blocks, except for the faulting
/// kernel, which indexes past it from block `OOB_FROM` on.
const GRID: u64 = 2 * INLINE_BLOCKS;
const OOB_FROM: u64 = 9;
/// Index of the faulting kernel in [`KERNELS`].
const OOB: usize = 4;

const KERNELS: [&str; 5] = [
    // Elementwise: disjoint per-block writes.
    "__global__ void axpy(float* x, float* y, int* c, int n) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        if (id < n) y[id] = 2.0f * x[id] + y[id];
    }",
    // Shared-memory tile reversal across a barrier.
    "__global__ void rev(float* x, float* y, int* c, int n) {
        __shared__ float t[32];
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        t[threadIdx.x] = x[id];
        __syncthreads();
        y[id] = t[blockDim.x - 1 - threadIdx.x] + 1.0f;
    }",
    // Global atomics: serial-only, never chunked.
    "__global__ void hist(float* x, float* y, int* c, int n) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        atomicAdd(&c[id % 7], id);
        y[id] = x[id];
    }",
    // Divergent lane masks: an early exit and a data-dependent branch.
    "__global__ void mask(float* x, float* y, int* c, int n) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        if (id % 4 == 0) return;
        float v = x[id];
        if (v < 0.25f) y[id] = v * 3.0f; else y[id] = v - 1.0f;
    }",
    // Out of bounds from the middle of block `OOB_FROM` on: `y` is sized
    // for `n` elements only.
    "__global__ void oob(float* x, float* y, int* c, int n) {
        int id = blockIdx.x * blockDim.x + threadIdx.x;
        y[id] = x[id % n] * 3.0f;
    }",
];

fn kernel(i: usize) -> &'static Kernel {
    static KS: OnceLock<Vec<Kernel>> = OnceLock::new();
    &KS.get_or_init(|| KERNELS.iter().map(|s| parse_kernel(s).unwrap()).collect())[i]
}

/// A cluster of `nodes` holding identical seeded inputs, and its args.
fn seeded(nodes: u32, which: usize, seed: u64) -> (SimCluster, Vec<Arg>) {
    let mut c = SimCluster::new(ClusterSpec::simd_focused().with_nodes(nodes));
    let elems = GRID * BLOCK as u64;
    let y_elems = if which == OOB {
        OOB_FROM * BLOCK as u64 + 5
    } else {
        elems
    };
    let x = c.alloc(elems as usize * 4);
    let y = c.alloc(y_elems as usize * 4);
    let cnt = c.alloc(7 * 4);
    let xs: Vec<u8> = (0..elems as usize * 4)
        .map(|i| (seed as usize).wrapping_mul(31).wrapping_add(i * 7) as u8 & 0x3f)
        .collect();
    c.write_all(x, &xs);
    let ys: Vec<u8> = (0..y_elems as usize * 4).map(|i| (i % 5) as u8).collect();
    c.write_all(y, &ys);
    let args = vec![
        Arg::Buffer(x),
        Arg::Buffer(y),
        Arg::Buffer(cnt),
        Arg::int(y_elems as i64),
    ];
    (c, args)
}

/// The reference: every node's range, ascending, one node after another.
fn serial_loop(
    engine: EngineKind,
    k: &Kernel,
    launch: LaunchConfig,
    prog: &Program,
    args: &[Arg],
    pools: &mut [MemPool],
    ranges: &[Range<u64>],
) -> Result<Vec<BlockStats>, ExecError> {
    let per_node: Vec<Result<BlockStats, ExecError>> = pools
        .iter_mut()
        .zip(ranges)
        .map(|(pool, r)| match engine {
            EngineKind::TreeWalk => execute_block_range(k, launch, r.clone(), args, pool),
            EngineKind::Bytecode => run_range(prog, pool, r.clone()),
            EngineKind::Simd => run_range_simd(prog, pool, r.clone()),
        })
        .collect();
    per_node.into_iter().collect()
}

/// Per-node ranges of one of the three assignment styles.
fn assignments(style: u8, nodes: usize, cuts: &[(u64, u64)]) -> Vec<Range<u64>> {
    (0..nodes)
        .map(|i| {
            let (a, b) = cuts[i % cuts.len()];
            let (lo, hi) = (a.min(b), a.max(b));
            match style {
                // Some nodes idle, the rest on arbitrary (overlapping) ranges.
                0 if i % 2 == 1 => lo..lo,
                // Callback style: every node runs the same blocks.
                2 => cuts[0].0.min(cuts[0].1)..cuts[0].0.max(cuts[0].1),
                _ => lo..hi,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pool_matches_serial_per_node_loop(
        engine in 0usize..3,
        // Half the cases run the faulting kernel.
        which in prop::sample::select(vec![0usize, 1, 2, 3, OOB, OOB, OOB, OOB]),
        nodes in 1u32..9,
        style in 0u8..3,
        cuts in prop::collection::vec((0u64..=GRID, 0u64..=GRID), 1..9),
        block_parallel in any::<bool>(),
        node_threads in 0usize..5,
        seed in 0u64..1000,
    ) {
        let engine = [EngineKind::TreeWalk, EngineKind::Bytecode, EngineKind::Simd][engine];
        let k = kernel(which);
        let launch = LaunchConfig::new(GRID as u32, BLOCK);
        let ranges = assignments(style, nodes as usize, &cuts);
        let (mut c, args) = seeded(nodes, which, seed);
        let prog = Program::compile(k, launch, &args).unwrap();
        let mut reference: Vec<MemPool> = (0..nodes as usize).map(|i| c.node(i).clone()).collect();

        let got = match engine {
            EngineKind::TreeWalk => c.run_blocks_parallel(k, launch, &ranges, &args),
            _ => {
                let opts = ExecOptions { engine, node_threads, block_parallel };
                c.run_program_parallel(&prog, &ranges, &opts)
            }
        };
        let want = serial_loop(engine, k, launch, &prog, &args, &mut reference, &ranges);

        prop_assert_eq!(&got, &want, "stats or first error differ");
        for (i, r) in reference.iter().enumerate() {
            prop_assert!(c.node(i) == r, "node {} memory differs", i);
        }
    }
}

#[test]
fn faulting_kernel_reports_lowest_block_under_chunking() {
    // Node 0's range straddles the faulting block and is split into four
    // chunks; the later chunks fault too, but the error of the lowest
    // failing block is the one reported — the serial run's.
    let k = kernel(OOB);
    let launch = LaunchConfig::new(GRID as u32, BLOCK);
    let (mut c, args) = seeded(1, OOB, 7);
    let prog = Program::compile(k, launch, &args).unwrap();
    let mut reference = vec![c.node(0).clone()];
    let opts = ExecOptions {
        engine: EngineKind::Simd,
        node_threads: 4,
        block_parallel: true,
    };
    let whole = 0..GRID;
    let ranges = std::slice::from_ref(&whole);
    let got = c.run_program_parallel(&prog, ranges, &opts);
    let want = serial_loop(
        EngineKind::Simd,
        k,
        launch,
        &prog,
        &args,
        &mut reference,
        ranges,
    );
    assert!(matches!(got, Err(ExecError::OutOfBounds { .. })));
    assert_eq!(got, want);
    assert!(*c.node(0) == reference[0]);
}
