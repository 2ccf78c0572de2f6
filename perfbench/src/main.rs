//! Host wall-clock benchmark of the CuCC migration runtime.
//!
//! `cucc-perfbench --workload <serve|bulk|chain|elastic> --seed <n>
//! --seconds <s> --trace <0|1> [--out <dir>]` runs one workload through
//! the runtime's public API in rounds (set-up, timed work, correctness
//! gate) until the timed work has taken `--seconds`, then prints the
//! environment, a metric table and, as its last line, one JSON object
//! with the gated metrics. `--trace 1` alternates untraced and traced
//! rounds, reports per-layer metrics from the traced ones and writes
//! their spans as Chrome trace JSON under `--out`. See `README.md`.

mod bulk;
mod chain;
mod elastic;
mod gates;
mod host;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

pub type Res<T> = Result<T, String>;

/// Rounds stop once this much wall time has passed, whatever `--seconds`
/// and the minimum round count ask for, so a run always ends in time.
const HARD_CAP_S: f64 = 120.0;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall clock (or host CPU/memory accounting).
    Host,
    /// The simulated cluster clock: the paper's numbers.
    Sim,
    /// A dimensionless ratio.
    Ratio,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Ratio => "-",
        }
    }
}

/// How a reported metric is derived from its samples.
#[derive(Debug, Clone, Copy)]
enum Stat {
    Median,
    /// Nearest-rank percentile.
    Pct(f64),
}

/// The end-to-end metrics a workload may report: name, source samples,
/// statistic, clock, unit. A metric is printed when its samples exist.
const E2E: &[(&str, &str, Stat, Clock, &str)] = &[
    ("setup_s", "setup_s", Stat::Median, Clock::Host, "s"),
    ("round_s", "round_s", Stat::Median, Clock::Host, "s"),
    ("cpu_s", "cpu_s", Stat::Median, Clock::Host, "s"),
    (
        "blocks_per_s",
        "blocks_per_s",
        Stat::Median,
        Clock::Host,
        "1/s",
    ),
    ("jobs_per_s", "jobs_per_s", Stat::Median, Clock::Host, "1/s"),
    (
        "launch_p50_us",
        "launch_us",
        Stat::Pct(0.50),
        Clock::Host,
        "us",
    ),
    (
        "launch_p95_us",
        "launch_us",
        Stat::Pct(0.95),
        Clock::Host,
        "us",
    ),
    (
        "replay_p50_us",
        "replay_us",
        Stat::Pct(0.50),
        Clock::Host,
        "us",
    ),
    (
        "replay_p95_us",
        "replay_us",
        Stat::Pct(0.95),
        Clock::Host,
        "us",
    ),
    (
        "fault_launch_s",
        "fault_launch_s",
        Stat::Median,
        Clock::Host,
        "s",
    ),
    (
        "checkpoint_s",
        "checkpoint_s",
        Stat::Median,
        Clock::Host,
        "s",
    ),
    ("restore_s", "restore_s", Stat::Median, Clock::Host, "s"),
];

/// Metrics gated by `BENCHMARK.json` (`--trace 0`), reported on every
/// workload. Round cost is gated as CPU time rather than wall time: on a
/// shared host, CPU time the hypervisor steals moves the wall time of the
/// launch-heavy workloads by far more than any bound could allow, and
/// their CPU time much less (see `README.md`). The wall figures are
/// printed beside it.
const GATED: &[(&str, &str)] = &[("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics (`--trace 1`), reported on every workload; a layer
/// the workload does not call reads 0. Simulated-clock figures carry the
/// units `sim_s` and `sim_us`, so none can be read as host wall time.
const PER_LAYER: &[(&str, &str)] = &[
    ("compile.compile_source_s", "s"),
    ("schedule.plan_s", "s"),
    ("schedule.plan_p50_us", "us"),
    ("schedule.cache_hits", "count"),
    ("schedule.cache_misses", "count"),
    ("schedule.hit_ratio", "ratio"),
    ("runtime.launch_s", "s"),
    ("runtime.execute_self_s", "s"),
    ("runtime.upload_s", "s"),
    ("runtime.download_s", "s"),
    ("exec.blocks_per_s", "1/s"),
    ("exec.ops", "count"),
    ("exec.global_bytes", "bytes"),
    ("host.user_s", "s"),
    ("host.sys_s", "s"),
    ("net.wire_bytes", "bytes"),
    ("net.allgather_sim_s", "sim_s"),
    ("net.retry_sim_s", "sim_s"),
    ("graph.replay_s", "s"),
    ("graph.gathers_elided", "count"),
    ("graph.gathers_narrowed", "count"),
    ("graph.materializations", "count"),
    ("graph.wire_bytes_saved", "bytes"),
    ("serve.run_s", "s"),
    ("serve.per_job_s", "s"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.completed", "count"),
    ("serve.sim_queue_p99_us.interactive", "sim_us"),
    ("serve.sim_queue_p99_us.batch", "sim_us"),
    ("serve.sim_queue_p99_us.best-effort", "sim_us"),
    ("state.checkpoint_s", "s"),
    ("state.encode_s", "s"),
    ("state.write_s", "s"),
    ("state.read_s", "s"),
    ("state.decode_s", "s"),
    ("state.restore_s", "s"),
    ("state.image_bytes", "bytes"),
    ("fault.launch_s", "s"),
    ("fault.failures", "count"),
    ("fault.reexecuted_blocks", "count"),
    ("fault.degraded", "count"),
    ("fault.reexec_sim_s", "sim_s"),
    ("workloads.reference_s", "s"),
    ("e2e.sim_time_s", "sim_s"),
    ("e2e.sim_p99_us", "sim_us"),
    ("e2e.failed_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.round_traced_s", "s"),
    ("trace.round_untraced_s", "s"),
];

/// Median of a sample (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((s.len() as f64) * q).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile.
fn tail_count(n: usize, q: f64) -> usize {
    n - ((n as f64) * q).ceil().clamp(1.0, n as f64) as usize
}

/// SplitMix64: the benchmark's own seeded generator for inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform f32 in `[lo, hi)`.
    pub fn f32(&mut self, lo: f32, hi: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        lo + (hi - lo) * u
    }
}

/// Run state shared by every workload: the tracer, host-wall samples of
/// untraced rounds, layer counters of traced rounds, operation counts and
/// the per-round simulated figures (which must repeat exactly).
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace_run: bool,
    pub out_dir: PathBuf,
    pub tr: Tracer,
    pub round: u64,
    samples: BTreeMap<&'static str, Vec<f64>>,
    counters: BTreeMap<&'static str, f64>,
    sims: BTreeMap<&'static str, f64>,
    traced_rounds: usize,
    round_walls: [Vec<f64>; 2],
    round_blocks: f64,
    round_exec_wall: f64,
    pub attempted: u64,
    pub failed: u64,
    pub refused: u64,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace_run: bool, out_dir: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace_run,
            out_dir,
            tr: Tracer::new(),
            round: 0,
            samples: BTreeMap::new(),
            counters: BTreeMap::new(),
            sims: BTreeMap::new(),
            traced_rounds: 0,
            round_walls: [Vec::new(), Vec::new()],
            round_blocks: 0.0,
            round_exec_wall: 0.0,
            attempted: 0,
            failed: 0,
            refused: 0,
        }
    }

    /// Record a host-wall sample (kept from untraced rounds only).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        if !self.tr.enabled() {
            self.samples.entry(name).or_default().push(v);
        }
    }

    /// Add to a layer counter (kept from traced rounds only).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.tr.enabled() {
            *self.counters.entry(name).or_default() += v;
        }
    }

    /// Blocks one call executed and its wall time.
    pub fn executed(&mut self, blocks: u64, wall: f64) {
        self.round_blocks += blocks as f64;
        self.round_exec_wall += wall;
    }

    /// A simulated per-round figure; every round must reproduce it
    /// bit-for-bit.
    pub fn sim(&mut self, name: &'static str, v: f64) -> Res<()> {
        match self.sims.get(name) {
            Some(&prev) if prev.to_bits() != v.to_bits() => Err(format!(
                "simulated {name} changed between rounds: {prev} then {v}"
            )),
            _ => {
                self.sims.insert(name, v);
                Ok(())
            }
        }
    }

    /// Unwrap one runtime operation's result, counting it as attempted
    /// and, on error, as failed.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Res<T> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what} failed: {e}")
        })
    }

    /// Drive rounds of set-up, timed work and correctness gate until the
    /// timed work has taken `--seconds` and at least `min_rounds` rounds
    /// ran (per mode, in a traced run). Each round sets up `setups` times
    /// and keeps the last state, so cheap set-ups get more samples.
    pub fn rounds<S>(
        &mut self,
        min_rounds: usize,
        setups: usize,
        mut setup: impl FnMut(&mut Ctx) -> Res<S>,
        mut timed: impl FnMut(&mut Ctx, &mut S) -> Res<()>,
        mut check: impl FnMut(&mut Ctx, S) -> Res<()>,
    ) -> Res<()> {
        let start = Instant::now();
        let mut timed_total = 0.0;
        let min_rounds = if self.trace_run {
            2 * min_rounds.max(1)
        } else {
            min_rounds
        };
        loop {
            let traced = self.trace_run && self.round % 2 == 1;
            self.tr.set_enabled(traced);
            let rid = self.round;

            let mut st = None;
            for _ in 0..setups.max(1) {
                let open = self.tr.begin("setup", rid);
                let t0 = Instant::now();
                let s = setup(self);
                let setup_wall = t0.elapsed().as_secs_f64();
                self.tr.end(open);
                st = Some(s?);
                self.sample("setup_s", setup_wall);
            }
            let mut st = st.expect("at least one set-up ran");

            self.round_blocks = 0.0;
            self.round_exec_wall = 0.0;
            let (u0, s0) = host::cpu_times();
            let open = self.tr.begin("round", rid);
            let t0 = Instant::now();
            let r = timed(self, &mut st);
            let wall = t0.elapsed().as_secs_f64();
            self.tr.end(open);
            r?;
            let (u1, s1) = host::cpu_times();
            self.count("host.user_s", u1 - u0);
            self.count("host.sys_s", s1 - s0);
            self.sample("cpu_s", (u1 - u0) + (s1 - s0));
            self.sample("round_s", wall);
            if self.round_exec_wall > 0.0 {
                self.sample("blocks_per_s", self.round_blocks / self.round_exec_wall);
            }
            self.round_walls[traced as usize].push(wall);
            self.traced_rounds += traced as usize;
            timed_total += wall;

            check(self, st)?;
            self.tr.set_enabled(false);
            self.round += 1;
            let enough = self.round as usize >= min_rounds && timed_total >= self.seconds;
            if enough || start.elapsed().as_secs_f64() > HARD_CAP_S {
                return Ok(());
            }
        }
    }

    fn failed_frac(&self) -> f64 {
        (self.failed + self.refused) as f64 / self.attempted.max(1) as f64
    }

    /// The per-layer metrics of the traced rounds, per round.
    fn layer_metrics(&self) -> BTreeMap<&'static str, f64> {
        let agg = self.tr.aggregate();
        let r = self.traced_rounds.max(1) as f64;
        let busy = |n: &str| agg.get(n).map_or(0.0, |a| a.busy);
        let c = |n: &str| self.counters.get(n).copied().unwrap_or(0.0);
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, span) in [
            ("compile.compile_source_s", "compile.compile_source"),
            ("schedule.plan_s", "schedule.plan"),
            ("runtime.launch_s", "runtime.launch"),
            ("runtime.upload_s", "runtime.upload"),
            ("runtime.download_s", "runtime.download"),
            ("graph.replay_s", "graph.replay"),
            ("serve.run_s", "serve.run"),
            ("state.checkpoint_s", "state.checkpoint"),
            ("state.encode_s", "state.encode"),
            ("state.write_s", "state.write"),
            ("state.read_s", "state.read"),
            ("state.decode_s", "state.decode"),
            ("state.restore_s", "state.restore"),
            ("fault.launch_s", "fault.launch"),
            ("workloads.reference_s", "workloads.reference"),
        ] {
            m.insert(name, busy(span) / r);
        }
        // `launch` replans internally, so the traced rounds plan each
        // launch once more up front; the rest of the launch is execution.
        m.insert(
            "runtime.execute_self_s",
            (busy("runtime.launch") - busy("schedule.plan")) / r,
        );
        let plan_durs = agg.get("schedule.plan").map_or(&[][..], |a| &a.durs[..]);
        m.insert("schedule.plan_p50_us", median(plan_durs) * 1e6);
        // 0 where the workload never reaches the layer.
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let (hits, misses) = (c("schedule.cache_hits"), c("schedule.cache_misses"));
        m.insert("schedule.hit_ratio", ratio(hits, hits + misses));
        m.insert(
            "exec.blocks_per_s",
            ratio(c("exec.blocks"), busy("exec.run_range")),
        );
        m.insert(
            "serve.per_job_s",
            ratio(busy("serve.run"), c("serve.completed")),
        );
        for (name, _) in PER_LAYER {
            if !m.contains_key(name) && self.counters.contains_key(name) {
                m.insert(name, c(name) / r);
            }
        }
        m.insert(
            "e2e.sim_time_s",
            self.sims.get("sim_time_s").copied().unwrap_or(0.0),
        );
        m.insert(
            "e2e.sim_p99_us",
            self.sims.get("sim_p99_us").copied().unwrap_or(0.0),
        );
        m.insert("e2e.failed_frac", self.failed_frac());
        let [untraced, traced] = &self.round_walls;
        m.insert("trace.round_untraced_s", median(untraced));
        m.insert("trace.round_traced_s", median(traced));
        m.insert("trace.overhead_s", median(traced) - median(untraced));
        m.insert(
            "trace.unattributed_s",
            agg.get("round").map_or(0.0, |a| a.self_time) / r,
        );
        m
    }

    /// Per-layer table of the traced rounds: busy and self time per span
    /// name, per round.
    fn layer_table(&self) -> String {
        let agg = self.tr.aggregate();
        let r = self.traced_rounds.max(1) as f64;
        let mut rows: Vec<_> = agg.iter().collect();
        rows.sort_by(|a, b| b.1.busy.total_cmp(&a.1.busy));
        let mut out = format!(
            "per-layer host wall, per traced round ({} traced rounds)\n{:<28} {:>8} {:>12} {:>12} {:>12}\n",
            self.traced_rounds, "span", "calls", "busy_s", "self_s", "p50_us"
        );
        for (name, a) in rows {
            out.push_str(&format!(
                "{:<28} {:>8.1} {:>12.6} {:>12.6} {:>12.1}\n",
                name,
                a.count as f64 / r,
                a.busy / r,
                a.self_time / r,
                median(&a.durs) * 1e6
            ));
        }
        let [untraced, traced] = &self.round_walls;
        out.push_str(&format!(
            "round wall: untraced {:.6} s (n={}), traced {:.6} s (n={}), tracing overhead {:+.6} s; \
             unattributed (round self time) {:.6} s\n",
            median(untraced),
            untraced.len(),
            median(traced),
            traced.len(),
            median(traced) - median(untraced),
            agg.get("round").map_or(0.0, |a| a.self_time) / r
        ));
        out
    }

    /// The end-to-end table: every metric the workload produced, with its
    /// clock, unit and sample count.
    fn e2e_table(&self, peak_rss: f64) -> String {
        let mut out = format!(
            "{:<16} {:>5} {:>16} {:>6} {:>7}\n",
            "metric", "clock", "value", "unit", "samples"
        );
        let mut row = |name: &str, clock: Clock, value: f64, unit: &str, n: String| {
            out.push_str(&format!(
                "{name:<16} {:>5} {value:>16.6} {unit:>6} {n:>7}\n",
                clock.label()
            ));
        };
        for &(name, src, stat, clock, unit) in E2E {
            let Some(v) = self.samples.get(src) else {
                continue;
            };
            let (value, note) = match stat {
                Stat::Median => (median(v), String::new()),
                Stat::Pct(q) => {
                    let tail = tail_count(v.len(), q);
                    let note = if tail < 10 { " (<10 beyond)" } else { "" };
                    (percentile(v, q), note.to_string())
                }
            };
            row(name, clock, value, unit, format!("{}{note}", v.len()));
        }
        for (name, unit) in [("sim_time_s", "s"), ("sim_p99_us", "us")] {
            if let Some(&v) = self.sims.get(name) {
                row(name, Clock::Sim, v, unit, "exact".into());
            }
        }
        row(
            "failed_frac",
            Clock::Ratio,
            self.failed_frac(),
            "ratio",
            format!("{}", self.attempted),
        );
        row("peak_rss_mb", Clock::Host, peak_rss, "MiB", "1".into());
        out
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: cucc-perfbench --workload <serve|bulk|chain|elastic> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("creating {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, args.out.clone());
    let (wall0, steal0) = (Instant::now(), host::steal_s());
    let engine = cucc_core::RunOptions::default().runtime.engine;
    let nodes = match args.workload.as_str() {
        "serve" => "8",
        "bulk" | "chain" => "4",
        "elastic" => "8, restored into 4",
        _ => "",
    };
    println!(
        "env {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"profile\": \"{}\", \"engine\": \"{engine}\", \
         \"nodes\": \"{nodes}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    let result = match args.workload.as_str() {
        "serve" => serve::run(&mut ctx),
        "bulk" => bulk::run(&mut ctx),
        "chain" => chain::run(&mut ctx),
        "elastic" => elastic::run(&mut ctx),
        other => {
            eprintln!("unknown workload `{other}` (serve, bulk, chain, elastic)");
            std::process::exit(2);
        }
    };
    let peak_rss = host::peak_rss_mib().unwrap_or(0.0);
    if let Err(e) = result {
        eprintln!("FAILED: {e}");
        println!(
            "{{\"correct\": false, \"attempted\": {}, \"failed\": {}, \"metrics\": {{}}}}",
            ctx.attempted.max(1),
            ctx.failed
        );
        std::process::exit(1);
    }
    println!(
        "host: {:.3} s wall, {:.3} s of CPU time stolen by other guests",
        wall0.elapsed().as_secs_f64(),
        host::steal_s() - steal0
    );
    print!("{}", ctx.e2e_table(peak_rss));
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let layers = ctx.layer_metrics();
        print!("{}", ctx.layer_table());
        let trace_path = args
            .out
            .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&trace_path, ctx.tr.to_chrome_json()) {
            Ok(()) => println!("spans written to {}", trace_path.display()),
            Err(e) => {
                eprintln!("writing {}: {e}", trace_path.display());
                std::process::exit(1);
            }
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let value = |name: &str| match name {
            "peak_rss_mb" => peak_rss,
            other => median(ctx.samples.get(other).map_or(&[][..], |v| &v[..])),
        };
        GATED
            .iter()
            .map(|&(name, unit)| (name, value(name), unit))
            .collect()
    };
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("FAILED: metric {name} is not finite ({v})");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ctx.attempted,
        ctx.failed,
        json_metrics(&metrics)
    );
}
