//! `elastic`: a re-partitionable saxpy on 8 nodes with a scripted `kill`
//! and a later `join`, beside about 32 MiB of resident state; the run then
//! checkpoints to a file, restores into 4 nodes and continues. The only
//! workload that runs the faulty executor (re-partition, re-execution),
//! the checkpoint codec and file I/O.

use crate::gates;
use crate::{Ctx, Res, SplitMix};
use cucc_cluster::ClusterSpec;
use cucc_core::{compile_source, Checkpoint, CompiledKernel, CuccCluster, FaultPlan, RunOptions};
use cucc_exec::{Arg, BufferId};
use cucc_ir::LaunchConfig;

const SAXPY: &str = "__global__ void saxpy(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";
/// The node the plan kills during the first launch and re-admits at the
/// start of the second.
const VICTIM: u32 = 5;
/// Launches before the checkpoint (the first absorbs the kill, the second
/// the join) and after the restore.
const FAULT_LAUNCHES: usize = 2;
const CONTINUE_LAUNCHES: usize = 2;

pub struct Config {
    nodes: u32,
    restore_nodes: u32,
    /// saxpy elements: a multiple of 7 blocks per node, so the victim's
    /// slice re-partitions evenly across the 7 survivors.
    n: usize,
    /// Bytes of resident state besides `x` and `y`.
    ballast: usize,
}

impl Config {
    pub fn bench() -> Config {
        let n = 4 * 21 * 8 * 256;
        Config {
            nodes: 8,
            restore_nodes: 4,
            n,
            ballast: (32 << 20) - 2 * 4 * n,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Config {
        Config {
            nodes: 8,
            restore_nodes: 4,
            n: 21 * 8 * 256,
            ballast: 64 << 10,
        }
    }

    fn launch(&self) -> LaunchConfig {
        LaunchConfig::cover1(self.n as u64, 256)
    }

    /// Default options with the scripted kill and join. The restored
    /// cluster needs the plan too: the checkpoint carries its cursor.
    fn faulty() -> RunOptions {
        let mut o = RunOptions::default();
        o.runtime.faults = FaultPlan::none().kill(VICTIM, 0.0).join(VICTIM, 0.0);
        o
    }

    /// Host contents of `x`, `y` and the ballast.
    fn inputs(&self, seed: u64) -> [Vec<u8>; 3] {
        let mut rng = SplitMix::new(seed);
        let mut floats = |n: usize| -> Vec<u8> {
            (0..n)
                .flat_map(|_| rng.f32(-10.0, 10.0).to_le_bytes())
                .collect()
        };
        let x = floats(self.n);
        let y = floats(self.n);
        let ballast = (0..self.ballast.div_ceil(8))
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .take(self.ballast)
            .collect();
        [x, y, ballast]
    }
}

fn args(bufs: &[BufferId; 3], n: usize) -> [Arg; 4] {
    [
        Arg::Buffer(bufs[0]),
        Arg::Buffer(bufs[1]),
        Arg::float(1.5),
        Arg::int(n as i64),
    ]
}

/// Final memory of the same launches on a fault-free cluster that is
/// never checkpointed, computed outside every timed region.
pub fn fault_free(cfg: &Config, seed: u64) -> Res<Vec<Vec<u8>>> {
    let ck = compile_source(SAXPY).map_err(|e| format!("compiling saxpy: {e}"))?;
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(cfg.nodes),
        RunOptions::default(),
    );
    let mut bufs = [BufferId(0); 3];
    for (b, data) in bufs.iter_mut().zip(cfg.inputs(seed)) {
        *b = cl.alloc(data.len());
        cl.upload::<u8>(*b, &data).map_err(|e| e.to_string())?;
    }
    for _ in 0..FAULT_LAUNCHES + CONTINUE_LAUNCHES {
        cl.launch(&ck, cfg.launch(), &args(&bufs, cfg.n))
            .map_err(|e| format!("fault-free launch: {e}"))?;
    }
    bufs.iter()
        .map(|&b| cl.download::<u8>(b).map_err(|e| e.to_string()))
        .collect()
}

pub struct State {
    ck: CompiledKernel,
    launch: LaunchConfig,
    n: usize,
    restore_nodes: u32,
    bufs: [BufferId; 3],
    /// The original 8-node cluster, gone once it is checkpointed.
    original: Option<CuccCluster>,
    restored: Option<CuccCluster>,
}

pub fn setup(ctx: &mut Ctx, cfg: &Config) -> Res<State> {
    let rid = ctx.round;
    let (ck, _) = ctx
        .tr
        .call("compile.compile_source", rid, || compile_source(SAXPY));
    let ck = ck.map_err(|e| format!("compiling saxpy: {e}"))?;
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(cfg.nodes),
        Config::faulty(),
    );
    let mut bufs = [BufferId(0); 3];
    for (b, data) in bufs.iter_mut().zip(cfg.inputs(ctx.seed)) {
        *b = cl.alloc(data.len());
        let (r, _) = ctx
            .tr
            .call("runtime.upload", rid, || cl.upload::<u8>(*b, &data));
        ctx.op("upload", r)?;
    }
    Ok(State {
        ck,
        launch: cfg.launch(),
        n: cfg.n,
        restore_nodes: cfg.restore_nodes,
        bufs,
        original: Some(cl),
        restored: None,
    })
}

/// Snapshot of a cluster's simulated clock, wire bytes and phase totals.
fn snapshot(cl: &CuccCluster) -> (f64, u64, f64, f64) {
    let t = cl.session_times();
    (cl.clock(), cl.wire_bytes(), t.allgather, t.retry)
}

/// Count the network figures accrued since `s0`; returns the simulated
/// seconds that passed.
fn count_since(ctx: &mut Ctx, cl: &CuccCluster, s0: (f64, u64, f64, f64)) -> f64 {
    let s1 = snapshot(cl);
    ctx.count("net.wire_bytes", (s1.1 - s0.1) as f64);
    ctx.count("net.allgather_sim_s", s1.2 - s0.2);
    ctx.count("net.retry_sim_s", s1.3 - s0.3);
    s1.0 - s0.0
}

pub fn timed(ctx: &mut Ctx, st: &mut State) -> Res<()> {
    let rid = ctx.round;
    let args = args(&st.bufs, st.n);
    let blocks = st.launch.num_blocks();
    let mut cl = st
        .original
        .take()
        .ok_or("elastic round without a cluster")?;

    let s0 = snapshot(&cl);
    let mut fault_wall = 0.0;
    for i in 0..FAULT_LAUNCHES {
        let (r, wall) = ctx.tr.call("fault.launch", rid * 100 + i as u64, || {
            cl.launch(&st.ck, st.launch, &args)
        });
        let r = ctx.op("fault launch", r)?;
        fault_wall += wall;
        ctx.executed(blocks, wall);
        ctx.count("fault.failures", r.faults.failures as f64);
        ctx.count("fault.reexecuted_blocks", r.faults.reexecuted_blocks as f64);
        ctx.count("fault.degraded", r.faults.degraded as u8 as f64);
        ctx.count("fault.reexec_sim_s", r.times.reexec);
    }
    ctx.sample("fault_launch_s", fault_wall);
    let mut sim = count_since(ctx, &cl, s0);

    let path = ctx
        .out_dir
        .join(format!("elastic-{}-{rid}.ckpt", std::process::id()));
    if ctx.tr.enabled() {
        // The same work as `checkpoint_to`, one public call at a time.
        let open = ctx.tr.begin("state.checkpoint_to", rid);
        let (ckpt, _) = ctx.tr.call("state.checkpoint", rid, || cl.checkpoint());
        let ckpt = ctx.op("checkpoint", ckpt)?;
        let (bytes, _) = ctx.tr.call("state.encode", rid, || ckpt.encode());
        let (w, _) = ctx
            .tr
            .call("state.write", rid, || std::fs::write(&path, &bytes));
        ctx.op("writing the checkpoint", w)?;
        ctx.count("state.image_bytes", bytes.len() as f64);
        ctx.tr.end(open);
    } else {
        let (r, wall) = ctx
            .tr
            .call("state.checkpoint_to", rid, || cl.checkpoint_to(&path));
        ctx.op("checkpoint_to", r)?;
        ctx.sample("checkpoint_s", wall);
    }
    // The original process is gone.
    drop(cl);

    let spec = ClusterSpec::simd_focused().with_nodes(st.restore_nodes);
    let options = Config::faulty();
    let mut cl = if ctx.tr.enabled() {
        // The same work as `restore_from`, one public call at a time.
        let open = ctx.tr.begin("state.restore_from", rid);
        let (bytes, _) = ctx.tr.call("state.read", rid, || std::fs::read(&path));
        let bytes = ctx.op("reading the checkpoint", bytes)?;
        let (ckpt, _) = ctx
            .tr
            .call("state.decode", rid, || Checkpoint::decode(&bytes));
        let ckpt = ctx.op("decoding the checkpoint", ckpt)?;
        let (cl, _) = ctx.tr.call("state.restore", rid, || {
            CuccCluster::restore(spec, options, &ckpt)
        });
        let cl = ctx.op("restore", cl)?;
        ctx.tr.end(open);
        cl
    } else {
        let (r, wall) = ctx.tr.call("state.restore_from", rid, || {
            CuccCluster::restore_from(spec, options, &path)
        });
        ctx.sample("restore_s", wall);
        ctx.op("restore_from", r)?
    };
    std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;

    let s0 = snapshot(&cl);
    for i in 0..CONTINUE_LAUNCHES {
        let req = rid * 100 + (FAULT_LAUNCHES + i) as u64;
        if ctx.tr.enabled() {
            let (plan, _) = ctx
                .tr
                .call("schedule.plan", req, || cl.plan(&st.ck, st.launch, &args));
            plan.map_err(|e| format!("planning after the restore: {e}"))?;
        }
        let (r, wall) = ctx.tr.call("runtime.launch", req, || {
            cl.launch(&st.ck, st.launch, &args)
        });
        ctx.op("launch after the restore", r)?;
        ctx.executed(blocks, wall);
    }
    sim += count_since(ctx, &cl, s0);
    ctx.sim("sim_time_s", sim)?;
    st.restored = Some(cl);
    Ok(())
}

/// `x`, `y` and the ballast, downloaded from the restored cluster.
pub fn outputs(ctx: &mut Ctx, st: &mut State) -> Res<Vec<Vec<u8>>> {
    let rid = ctx.round;
    let cl = st
        .restored
        .as_mut()
        .ok_or("elastic round did not restore")?;
    let mut out = Vec::new();
    for &b in &st.bufs {
        let (r, _) = ctx
            .tr
            .call("runtime.download", rid, || cl.download::<u8>(b));
        out.push(ctx.op("download", r)?);
    }
    Ok(out)
}

pub fn run(ctx: &mut Ctx) -> Res<()> {
    let cfg = Config::bench();
    let reference = fault_free(&cfg, ctx.seed)?;
    ctx.rounds(
        3,
        1,
        |ctx| setup(ctx, &cfg),
        timed,
        |ctx, mut st| gates::elastic(&outputs(ctx, &mut st)?, &reference),
    )
}
