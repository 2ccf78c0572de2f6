//! `serve`: a 1000-job, 8-tenant synthetic stream through one
//! `JobServer::run` under the fair policy with admission control. Each
//! job launches only 4–16 blocks, so fixed per-launch cost dominates.
//! Arrivals follow an open-loop Poisson schedule on the simulated clock,
//! so queues and rejections form.

use crate::gates::{self, ServeOutcome};
use crate::{Ctx, Res};
use cucc_cluster::ClusterSpec;
use cucc_core::{
    synthetic_stream, EngineKind, JobServer, JobSpec, RunOptions, ServeConfig, ServePolicy,
    ServeReport,
};
use cucc_ir::LaunchConfig;
use std::collections::BTreeMap;

pub struct Config {
    jobs: usize,
    tenants: u32,
    nodes: u32,
    /// Mean interarrival gap on the simulated clock, seconds.
    gap: f64,
    queue_depth: usize,
}

impl Config {
    pub fn bench() -> Config {
        Config {
            jobs: 1000,
            tenants: 8,
            nodes: 8,
            gap: 1e-6,
            queue_depth: 8,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Config {
        Config {
            jobs: 60,
            tenants: 3,
            nodes: 4,
            gap: 1e-6,
            queue_depth: 4,
        }
    }

    fn server(&self, engine: EngineKind) -> Res<JobServer> {
        let mut options = RunOptions::default();
        options.runtime.engine = engine;
        JobServer::new(
            ClusterSpec::simd_focused().with_nodes(self.nodes),
            ServeConfig {
                policy: ServePolicy::Fair,
                queue_depth: self.queue_depth,
                options,
            },
        )
        .map_err(|e| format!("building the job server: {e}"))
    }
}

pub struct State {
    server: JobServer,
    stream: Vec<JobSpec>,
    pub report: Option<ServeReport>,
}

/// The tree-walk engine's run of the same stream, outside every timed
/// region.
pub fn reference(cfg: &Config, seed: u64) -> Res<ServeOutcome> {
    let stream = synthetic_stream(cfg.jobs, cfg.tenants, seed, cfg.gap);
    let report = cfg
        .server(EngineKind::TreeWalk)?
        .run(&stream)
        .map_err(|e| format!("tree-walk reference run: {e}"))?;
    Ok(ServeOutcome::of(&report))
}

pub fn setup(ctx: &mut Ctx, cfg: &Config) -> Res<State> {
    let stream = synthetic_stream(cfg.jobs, cfg.tenants, ctx.seed, cfg.gap);
    let rid = ctx.round;
    let (server, _) = ctx.tr.call("serve.new", rid, || {
        cfg.server(RunOptions::default().runtime.engine)
    });
    Ok(State {
        server: server?,
        stream,
        report: None,
    })
}

pub fn timed(ctx: &mut Ctx, st: &mut State) -> Res<()> {
    let rid = ctx.round;
    let (report, wall) = ctx.tr.call("serve.run", rid, || st.server.run(&st.stream));
    // Every job is one attempted operation; `run` itself is not counted
    // on top of them.
    ctx.attempted += st.stream.len() as u64;
    let report = report.map_err(|e| {
        ctx.failed += 1;
        format!("JobServer::run failed: {e}")
    })?;
    ctx.refused += report.rejected as u64;

    // A job of `elems` elements launches `cover1(elems, 128)`; each
    // tenant's jobs share one size.
    let mut blocks_of: BTreeMap<u32, u64> = BTreeMap::new();
    for j in &st.stream {
        blocks_of
            .entry(j.tenant)
            .or_insert_with(|| LaunchConfig::cover1(j.elems as u64, 128).num_blocks());
    }
    let blocks: u64 = report
        .per_tenant
        .iter()
        .map(|t| t.completed as u64 * blocks_of.get(&t.tenant).copied().unwrap_or(0))
        .sum();
    ctx.executed(blocks, wall);
    ctx.sample("jobs_per_s", report.completed as f64 / wall);
    ctx.sim("sim_time_s", report.makespan)?;
    ctx.sim("sim_p99_us", report.p99_total * 1e6)?;

    ctx.count("serve.admitted", report.admitted as f64);
    ctx.count("serve.rejected", report.rejected as f64);
    ctx.count("serve.completed", report.completed as f64);
    ctx.count("schedule.cache_hits", report.cache.hits as f64);
    ctx.count("schedule.cache_misses", report.cache.misses as f64);
    for c in &report.per_class {
        let name = match c.class.label() {
            "interactive" => "serve.sim_queue_p99_us.interactive",
            "batch" => "serve.sim_queue_p99_us.batch",
            _ => "serve.sim_queue_p99_us.best-effort",
        };
        ctx.count(name, c.p99_queue * 1e6);
    }
    let cluster = st.server.cluster();
    let times = cluster.session_times();
    ctx.count("net.wire_bytes", cluster.wire_bytes() as f64);
    ctx.count("net.allgather_sim_s", times.allgather);
    ctx.count("net.retry_sim_s", times.retry);
    st.report = Some(report);
    Ok(())
}

pub fn run(ctx: &mut Ctx) -> Res<()> {
    let cfg = Config::bench();
    let reference = reference(&cfg, ctx.seed)?;
    ctx.rounds(
        3,
        5,
        |ctx| setup(ctx, &cfg),
        timed,
        |_, st| {
            let report = st.report.as_ref().ok_or("serve round produced no report")?;
            gates::serve(&ServeOutcome::of(report), &reference)
        },
    )
}
