//! `bulk`: the eight paper kernels of `cucc_workloads::perf`, grown to
//! 240–256 blocks each (about 2k blocks in all), each launched once on 4
//! nodes and checked against its `reference()`. Block execution and
//! Allgather copies dominate, and each kernel is planned only once.

use crate::gates;
use crate::{Ctx, Res, SplitMix};
use cucc_cluster::ClusterSpec;
use cucc_core::{compile_source, CompiledKernel, CuccCluster, EngineKind, RunOptions};
use cucc_exec::{Arg, BlockStats, BufferId, MemPool, Program};
use cucc_ir::{LaunchConfig, Param, Scalar, Value};
use cucc_workloads::perf::{BinomialOption, BlackScholes, Conv2d, Ep, Fir, Ga, Kmeans, Transpose};
use cucc_workloads::{Benchmark, Scale};

const NODES: u32 = 4;
/// Blocks of each one-dimensional kernel are drawn from this range. The
/// range is narrow so that the seed barely moves the mix of kernels,
/// whose costs per block differ by an order of magnitude.
const BLOCKS: (u64, u64) = (240, 256);
/// Matrix side of the two 32×32-tile kernels (Transpose, Conv2D): a
/// 16×16 grid, 256 blocks. The next smaller square grid (225 blocks)
/// would leave the range above.
const TILE_SIDE: usize = 16 * 32;

pub struct Config {
    kernels: Vec<Box<dyn Benchmark>>,
}

impl Config {
    /// The eight kernels, the one-dimensional ones at sizes drawn from
    /// `seed`; every other field keeps its test-scale value.
    pub fn bench(seed: u64) -> Config {
        let mut rng = SplitMix::new(seed);
        let mut blocks = || rng.range(BLOCKS.0, BLOCKS.1) as usize;
        let kernels: Vec<Box<dyn Benchmark>> = vec![
            Box::new(Transpose { n: TILE_SIDE }),
            Box::new(Fir {
                n: 256 * blocks(),
                ..Fir::new(Scale::Test)
            }),
            Box::new(Kmeans {
                n: 256 * blocks(),
                ..Kmeans::new(Scale::Test)
            }),
            Box::new(BinomialOption {
                options: blocks(),
                ..BinomialOption::new(Scale::Test)
            }),
            Box::new(Ep {
                blocks: blocks(),
                ..Ep::new(Scale::Test)
            }),
            Box::new(Ga {
                blocks: blocks(),
                ..Ga::new(Scale::Test)
            }),
            Box::new(BlackScholes {
                n: 256 * blocks(),
                ..BlackScholes::new(Scale::Test)
            }),
            Box::new(Conv2d {
                n: TILE_SIDE,
                ..Conv2d::new(Scale::Test)
            }),
        ];
        Config { kernels }
    }

    #[cfg(test)]
    pub fn tiny() -> Config {
        Config {
            kernels: cucc_workloads::perf_suite(Scale::Test)
                .into_iter()
                .take(2)
                .collect(),
        }
    }
}

pub struct KernelRun {
    pub name: String,
    ck: CompiledKernel,
    launch: LaunchConfig,
    args: Vec<Arg>,
    handles: Vec<BufferId>,
    inputs: Vec<Vec<u8>>,
    scalars: Vec<Value>,
    pub reference: Vec<Vec<u8>>,
    pub elem: Option<Scalar>,
    pub tol: f64,
}

pub struct State {
    cluster: CuccCluster,
    pub kernels: Vec<KernelRun>,
}

/// Bind a kernel's parameters in order: buffers through `alloc` (which
/// allocates and fills one), scalars from `scalars`.
fn bind(
    ck: &CompiledKernel,
    inputs: &[Vec<u8>],
    scalars: &[Value],
    mut alloc: impl FnMut(&[u8]) -> Res<BufferId>,
) -> Res<(Vec<Arg>, Vec<BufferId>)> {
    let (mut bufs, mut scals) = (inputs.iter(), scalars.iter());
    let mut args = Vec::new();
    let mut handles = Vec::new();
    for p in &ck.kernel.params {
        match p {
            Param::Buffer { .. } => {
                let data = bufs.next().ok_or("fewer buffers than buffer parameters")?;
                let id = alloc(data)?;
                handles.push(id);
                args.push(Arg::Buffer(id));
            }
            Param::Scalar { .. } => {
                let v = scals.next().ok_or("fewer scalars than scalar parameters")?;
                args.push(Arg::Scalar(*v));
            }
        }
    }
    Ok((args, handles))
}

pub fn setup(ctx: &mut Ctx, cfg: &Config) -> Res<State> {
    let rid = ctx.round;
    let mut cluster = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(NODES),
        RunOptions::default(),
    );
    let mut kernels = Vec::new();
    for bench in &cfg.kernels {
        let (ck, _) = ctx.tr.call("compile.compile_source", rid, || {
            compile_source(&bench.source())
        });
        let ck = ck.map_err(|e| format!("compiling {}: {e}", bench.name()))?;
        let (inputs, _) = ctx.tr.call("workloads.buffers", rid, || bench.buffers());
        let (reference, _) = ctx
            .tr
            .call("workloads.reference", rid, || bench.reference());
        let scalars = bench.scalars();
        let (args, handles) = bind(&ck, &inputs, &scalars, |data| {
            let id = cluster.alloc(data.len());
            let (r, _) = ctx
                .tr
                .call("runtime.upload", rid, || cluster.upload::<u8>(id, data));
            ctx.op("upload", r)?;
            Ok(id)
        })?;
        kernels.push(KernelRun {
            name: bench.name().to_string(),
            launch: bench.launch(),
            ck,
            args,
            handles,
            inputs,
            scalars,
            reference,
            elem: bench.compare_elem(),
            tol: bench.tolerance(),
        });
    }
    Ok(State { cluster, kernels })
}

pub fn timed(ctx: &mut Ctx, st: &mut State) -> Res<()> {
    let rid = ctx.round;
    let wire0 = st.cluster.wire_bytes();
    let times0 = st.cluster.session_times();
    let mut sim = 0.0;
    for k in &st.kernels {
        if ctx.tr.enabled() {
            let (plan, _) = ctx.tr.call("schedule.plan", rid, || {
                st.cluster.plan(&k.ck, k.launch, &k.args)
            });
            plan.map_err(|e| format!("planning {}: {e}", k.name))?;
        }
        let (report, wall) = ctx.tr.call("runtime.launch", rid, || {
            st.cluster.launch(&k.ck, k.launch, &k.args)
        });
        let report = ctx.op(&format!("launching {}", k.name), report)?;
        ctx.executed(k.launch.num_blocks(), wall);
        sim += report.time();
    }
    ctx.sim("sim_time_s", sim)?;
    let times = st.cluster.session_times();
    ctx.count("net.wire_bytes", (st.cluster.wire_bytes() - wire0) as f64);
    ctx.count("net.allgather_sim_s", times.allgather - times0.allgather);
    ctx.count("net.retry_sim_s", times.retry - times0.retry);
    Ok(())
}

/// Every kernel's buffers, downloaded, in parameter order.
pub fn outputs(ctx: &mut Ctx, st: &mut State) -> Res<Vec<Vec<Vec<u8>>>> {
    let rid = ctx.round;
    let mut out = Vec::new();
    for k in &st.kernels {
        let mut bufs = Vec::new();
        for &h in &k.handles {
            let (r, _) = ctx
                .tr
                .call("runtime.download", rid, || st.cluster.download::<u8>(h));
            bufs.push(ctx.op("download", r)?);
        }
        out.push(bufs);
    }
    Ok(out)
}

/// Run every kernel once more on a single `MemPool` through `cucc_exec`'s
/// serial block loop for the configured engine tier: the execution layer
/// alone, without planning, partitioning or Allgather.
fn exec_probe(ctx: &mut Ctx, st: &State) -> Res<()> {
    let rid = ctx.round;
    let engine = RunOptions::default().runtime.engine;
    for k in &st.kernels {
        let mut pool = MemPool::new();
        let (args, handles) = bind(&k.ck, &k.inputs, &k.scalars, |data| {
            let id = pool.alloc(data.len());
            pool.write_all(id, data);
            Ok(id)
        })?;
        let blocks = 0..k.launch.num_blocks();
        let prog = match engine {
            EngineKind::TreeWalk => None,
            _ => Some(
                Program::compile(&k.ck.kernel, k.launch, &args)
                    .map_err(|e| format!("compiling {} to bytecode: {e}", k.name))?,
            ),
        };
        let (stats, _) = ctx
            .tr
            .call("exec.run_range", rid, || -> Result<BlockStats, _> {
                match (&prog, engine) {
                    (Some(p), EngineKind::Simd) => cucc_exec::run_range_simd(p, &mut pool, blocks),
                    (Some(p), _) => cucc_exec::run_range(p, &mut pool, blocks),
                    (None, _) => cucc_exec::execute_block_range(
                        &k.ck.kernel,
                        k.launch,
                        blocks,
                        &args,
                        &mut pool,
                    ),
                }
            });
        let stats = stats.map_err(|e| format!("executing {} on one pool: {e}", k.name))?;
        ctx.count("exec.blocks", k.launch.num_blocks() as f64);
        ctx.count("exec.ops", (stats.int_ops + stats.float_ops) as f64);
        ctx.count(
            "exec.global_bytes",
            (stats.global_read_bytes + stats.global_write_bytes) as f64,
        );
        let got: Vec<Vec<u8>> = handles.iter().map(|&h| pool.bytes(h).to_vec()).collect();
        gates::bulk(&k.name, &got, &k.reference, k.elem, k.tol)?;
    }
    Ok(())
}

pub fn run(ctx: &mut Ctx) -> Res<()> {
    let cfg = Config::bench(ctx.seed);
    ctx.rounds(
        3,
        1,
        |ctx| setup(ctx, &cfg),
        timed,
        |ctx, mut st| {
            let outs = outputs(ctx, &mut st)?;
            for (k, got) in st.kernels.iter().zip(&outs) {
                gates::bulk(&k.name, got, &k.reference, k.elem, k.tol)?;
            }
            if ctx.tr.enabled() {
                exec_probe(ctx, &st)?;
            }
            Ok(())
        },
    )
}
