//! `chain`: the slice-local 8-launch ping-pong chain (4096 elements, 4
//! nodes), issued as synchronous launches on one cluster and, on a second
//! cluster, captured once and replayed. These are the smallest launches,
//! so fixed per-launch cost is everything; the replay half always hits
//! the schedule cache and elides every gather, so it bypasses the
//! mechanism the uncaptured half exercises.

use crate::gates;
use crate::{Ctx, Res, SplitMix};
use cucc_cluster::ClusterSpec;
use cucc_core::{
    compile_source, CompiledKernel, CuccCluster, GraphCapture, LaunchGraph, RunOptions,
};
use cucc_exec::{Arg, BufferId};
use cucc_ir::LaunchConfig;

/// Unguarded slice-local step: dense writes, no tail block, reads only its
/// own index, so every gather in the chain is elidable.
const STEP: &str = "__global__ void step(float* y, float* x) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    y[id] = x[id] * 1.0009765f + 0.25f;
}";
const ELEMS: usize = 16 * 256;
const NODES: u32 = 4;
const CHAIN: usize = 8;
/// Uncaptured chains and replays per round.
const ITERS: usize = 40;

/// The step on the host, with the interpreter's numerics: literals and
/// intermediates in f64, narrowed to f32 at the store.
fn host_step(x: f32) -> f32 {
    (x as f64 * 1.0009765 + 0.25) as f32
}

fn launch_cfg() -> LaunchConfig {
    LaunchConfig::cover1(ELEMS as u64, 256)
}

pub struct State {
    ck: CompiledKernel,
    init: Vec<u8>,
    iters: usize,
    /// Replayed side: cluster and its ping-pong buffers.
    replay: (CuccCluster, BufferId, BufferId),
    graph: LaunchGraph,
    /// Uncaptured side.
    plain: (CuccCluster, BufferId, BufferId),
}

fn cluster() -> (CuccCluster, BufferId, BufferId) {
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(NODES),
        RunOptions::default(),
    );
    let a = cl.alloc(ELEMS * 4);
    let b = cl.alloc(ELEMS * 4);
    (cl, a, b)
}

/// Launch `i` of the chain reads one buffer and writes the other.
fn step_args(i: usize, a: BufferId, b: BufferId) -> [Arg; 2] {
    let (dst, src) = if i.is_multiple_of(2) { (b, a) } else { (a, b) };
    [Arg::Buffer(dst), Arg::Buffer(src)]
}

pub fn setup(ctx: &mut Ctx, iters: usize) -> Res<State> {
    let rid = ctx.round;
    let (ck, _) = ctx
        .tr
        .call("compile.compile_source", rid, || compile_source(STEP));
    let ck = ck.map_err(|e| format!("compiling the step kernel: {e}"))?;
    let mut rng = SplitMix::new(ctx.seed);
    let init: Vec<u8> = (0..ELEMS)
        .flat_map(|_| rng.f32(-4.0, 4.0).to_le_bytes())
        .collect();
    let replay = cluster();
    let (_, a, b) = replay;
    let mut cap = GraphCapture::new();
    cap.upload(a, init.clone());
    for i in 0..CHAIN {
        cap.launch(&ck, launch_cfg(), &step_args(i, a, b));
    }
    Ok(State {
        ck,
        init,
        iters,
        replay,
        graph: cap.finish(),
        plain: cluster(),
    })
}

pub fn timed(ctx: &mut Ctx, st: &mut State) -> Res<()> {
    let rid = ctx.round;
    let blocks = launch_cfg().num_blocks();
    let (plain, a, b) = &mut st.plain;
    let (replay, ..) = &mut st.replay;
    let clock0 = plain.clock();
    let wire0 = plain.wire_bytes() + replay.wire_bytes();
    let (t0p, t0r) = (plain.session_times(), replay.session_times());
    let mut replay_sim = 0.0;
    for it in 0..st.iters {
        let req = rid * 1_000_000 + it as u64 * 100;
        let (r, _) = ctx
            .tr
            .call("runtime.upload", req, || plain.upload::<u8>(*a, &st.init));
        ctx.op("upload", r)?;
        for i in 0..CHAIN {
            let args = step_args(i, *a, *b);
            if ctx.tr.enabled() {
                let (plan, _) = ctx.tr.call("schedule.plan", req + i as u64, || {
                    plain.plan(&st.ck, launch_cfg(), &args)
                });
                plan.map_err(|e| format!("planning step {i}: {e}"))?;
            }
            let (r, wall) = ctx.tr.call("runtime.launch", req + i as u64, || {
                plain.launch(&st.ck, launch_cfg(), &args)
            });
            ctx.op("launch", r)?;
            ctx.sample("launch_us", wall * 1e6);
            ctx.executed(blocks, wall);
        }
        let (stats, wall) = ctx
            .tr
            .call("graph.replay", req, || replay.graph_replay(&st.graph));
        let stats = ctx.op("graph replay", stats)?;
        ctx.sample("replay_us", wall * 1e6);
        ctx.executed(blocks * CHAIN as u64, wall);
        replay_sim += stats.time;
        ctx.count("schedule.cache_hits", stats.cache_hits as f64);
        ctx.count("schedule.cache_misses", stats.cache_misses as f64);
        ctx.count("graph.gathers_elided", stats.gathers_elided as f64);
        ctx.count("graph.gathers_narrowed", stats.gathers_narrowed as f64);
        ctx.count("graph.materializations", stats.materializations as f64);
        ctx.count("graph.wire_bytes_saved", stats.wire_bytes_saved as f64);
    }
    ctx.sim("sim_time_s", plain.clock() - clock0 + replay_sim)?;
    let (t1p, t1r) = (plain.session_times(), replay.session_times());
    ctx.count(
        "net.wire_bytes",
        (plain.wire_bytes() + replay.wire_bytes() - wire0) as f64,
    );
    ctx.count(
        "net.allgather_sim_s",
        t1p.allgather - t0p.allgather + t1r.allgather - t0r.allgather,
    );
    ctx.count(
        "net.retry_sim_s",
        t1p.retry - t0p.retry + t1r.retry - t0r.retry,
    );
    Ok(())
}

type Bufs = Vec<Vec<u8>>;

/// `(replayed, uncaptured, host)` contents of the two ping-pong buffers.
pub fn outputs(ctx: &mut Ctx, st: &mut State) -> Res<(Bufs, Bufs, Bufs)> {
    let rid = ctx.round;
    let download = |ctx: &mut Ctx, cl: &mut CuccCluster, buf: BufferId| {
        let (r, _) = ctx
            .tr
            .call("runtime.download", rid, || cl.download::<u8>(buf));
        ctx.op("download", r)
    };
    let (cl, a, b) = &mut st.replay;
    let replayed = vec![download(ctx, cl, *a)?, download(ctx, cl, *b)?];
    let (cl, a, b) = &mut st.plain;
    let uncaptured = vec![download(ctx, cl, *a)?, download(ctx, cl, *b)?];
    // Launch i writes `b` when i is even, so `a` ends at step^8(init) and
    // `b` at step^7(init).
    let mut x: Vec<f32> = st
        .init
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    let mut prev = x.clone();
    for _ in 0..CHAIN {
        prev = x.clone();
        x.iter_mut().for_each(|v| *v = host_step(*v));
    }
    let bytes = |v: &[f32]| v.iter().flat_map(|f| f.to_le_bytes()).collect::<Vec<u8>>();
    let host = vec![bytes(&x), bytes(&prev)];
    Ok((replayed, uncaptured, host))
}

pub fn run(ctx: &mut Ctx) -> Res<()> {
    // At least 200 replays and 1600 launches, so the p95 of each leaves
    // ten samples beyond it.
    let min_rounds = 200usize.div_ceil(ITERS);
    ctx.rounds(
        min_rounds,
        5,
        |ctx| setup(ctx, ITERS),
        timed,
        |ctx, mut st| {
            let (replayed, uncaptured, host) = outputs(ctx, &mut st)?;
            gates::chain(&replayed, &uncaptured, &host)
        },
    )
}
