//! A cluster runs its passes on a bounded, persistent set of threads.
//!
//! While 500 passes run, a sampler records every thread id listed in
//! `/proc/self/task`. Spawning threads per pass would show hundreds of
//! fresh ids; a persistent pool shows at most one per worker, and the
//! pool has `available_parallelism − 1` of them.

#![cfg(target_os = "linux")]

use cucc_cluster::{ClusterSpec, SimCluster};
use cucc_exec::{host_parallelism, Arg, EngineKind, ExecOptions, Program, INLINE_BLOCKS};
use cucc_ir::{parse_kernel, LaunchConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn task_ids() -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

fn own_task_id() -> u64 {
    let link = std::fs::read_link("/proc/thread-self").expect("procfs");
    link.file_name()
        .and_then(|n| n.to_str()?.parse().ok())
        .expect("numeric thread id")
}

#[test]
fn five_hundred_passes_reuse_a_bounded_set_of_threads() {
    let k = parse_kernel(
        "__global__ void inc(float* y, int n) {
            int id = blockIdx.x * blockDim.x + threadIdx.x;
            if (id < n) y[id] = y[id] + 1.0f;
        }",
    )
    .unwrap();
    let nodes = 8u64;
    // Enough blocks per pass that the pool dispatches instead of inlining.
    let grid = 2 * INLINE_BLOCKS;
    let launch = LaunchConfig::new(grid as u32, 4u32);
    let mut c = SimCluster::new(ClusterSpec::simd_focused().with_nodes(nodes as u32));
    let n = grid * 4;
    let y = c.alloc(n as usize * 4);
    let args = [Arg::Buffer(y), Arg::int(n as i64)];
    let prog = Program::compile(&k, launch, &args).unwrap();
    let split: Vec<_> = (0..nodes)
        .map(|i| i * grid / nodes..(i + 1) * grid / nodes)
        .collect();
    let everywhere = vec![0..grid; nodes as usize];

    let before = task_ids();
    let done = AtomicBool::new(false);
    let seen = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let me = own_task_id();
            let mut seen = BTreeSet::new();
            while !done.load(Ordering::Relaxed) {
                seen.extend(task_ids());
                std::thread::sleep(Duration::from_micros(200));
            }
            seen.extend(task_ids());
            seen.remove(&me);
            seen
        });
        for pass in 0..500 {
            let ranges = if pass % 2 == 0 { &split } else { &everywhere };
            let opts = ExecOptions {
                engine: [EngineKind::Bytecode, EngineKind::Simd][pass / 2 % 2],
                node_threads: 0,
                block_parallel: pass % 3 != 0,
            };
            if pass % 5 == 0 {
                c.run_blocks_parallel(&k, launch, ranges, &args).unwrap();
            } else {
                c.run_program_parallel(&prog, ranges, &opts).unwrap();
            }
        }
        done.store(true, Ordering::Relaxed);
        sampler.join().unwrap()
    });
    let fresh: Vec<u64> = seen.difference(&before).copied().collect();
    assert!(
        fresh.len() <= host_parallelism(),
        "{} threads appeared over 500 passes (host parallelism {})",
        fresh.len(),
        host_parallelism()
    );
    // Node 0 ran block 0 in every pass, and its last block only in the
    // passes that ran the whole grid.
    let y0 = c.node(0).read_f32(y);
    assert_eq!((y0[0], y0[n as usize - 1]), (500.0, 250.0));
}
