//! Golden digests of what a launch produces: every `LaunchReport` field,
//! the downloaded memory, the simulated clock, and every timeline span and
//! counter.
//!
//! The runtime derives each report from the timeline window its launch
//! recorded; these digests pin the result bit for bit across the paper's
//! eight kernels, both fidelities, both execution modes, streams, graph
//! replay, and the fault/elasticity scenarios of `bench_fault` and
//! `bench_elastic`. A change to the launch path that moves any simulated
//! number — a phase time, a wire byte, a span start — fails here.
//!
//! Digests are FNV-1a over the raw bits (`f64::to_bits`, little-endian
//! integers, UTF-8 names), kept in four parts so a mismatch says *what*
//! moved: reports, memory, clock, trace.

use cucc::cluster::ClusterSpec;
use cucc::core::{
    compile_source, Checkpoint, CompiledKernel, CuccCluster, EngineKind, GraphCapture,
    LaunchReport, ReplayStats, RunOptions,
};
use cucc::exec::{Arg, BufferId};
use cucc::ir::LaunchConfig;
use cucc::net::FaultPlan;
use cucc::trace::Track;
use cucc::workloads::{perf_suite, setup_args, Scale};

const SAXPY: &str = "__global__ void saxpy(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";

/// Three gathered output regions in one launch: the Allgather phase lays
/// out more than two collectives back to back.
const TRIPLE: &str = "__global__ void triple(float* a, float* b, float* c, float* x, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) {
        a[id] = x[id] * 2.0f;
        b[id] = x[id] + 1.0f;
        c[id] = x[id] - 3.0f;
    }
}";

/// Atomics force the replicated fallback.
const HIST: &str = "__global__ void hist(int* bins, int* data, int n) {
    int id = blockDim.x * blockIdx.x + threadIdx.x;
    if (id < n) atomicAdd(&bins[data[id] % 16], 1);
}";

const PROD: &str = "__global__ void prod(float* x) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    x[id] = x[id] * 3.0f + 1.0f;
}";

const SHIFT: &str = "__global__ void sh(float* y, float* x) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    y[id] = x[id + 64];
}";

const GATHER_ALL: &str = "__global__ void ga(float* z, float* x, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    z[id] = x[(id * id) % n];
}";

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn track_id(t: Track) -> u64 {
    match t {
        Track::Node(i) => u64::from(i),
        Track::Network => 1 << 40,
        Track::Host => 2 << 40,
        Track::Queue => 3 << 40,
        Track::Admit => 4 << 40,
        Track::Place => 5 << 40,
    }
}

/// The four running digests of one scenario.
struct Golden {
    reports: Fnv,
    memory: Fnv,
    clock: Fnv,
    trace: Fnv,
}

impl Golden {
    fn new() -> Golden {
        Golden {
            reports: Fnv::new(),
            memory: Fnv::new(),
            clock: Fnv::new(),
            trace: Fnv::new(),
        }
    }

    fn report(&mut self, r: &LaunchReport) {
        let h = &mut self.reports;
        // The mode carries the plan (integers) and the replication cause
        // (text); its Debug form spells out every field.
        h.str(&format!("{:?}", r.mode));
        for t in [
            r.times.partial,
            r.times.allgather,
            r.times.callback,
            r.times.broadcast,
            r.times.retry,
            r.times.reexec,
        ] {
            h.f64(t);
        }
        let s = &r.node_stats;
        for v in [
            s.int_ops,
            s.float_ops,
            s.global_read_bytes,
            s.global_write_bytes,
            s.global_loads,
            s.global_stores,
            s.shared_bytes,
            s.local_bytes,
            s.global_atomics,
            s.barriers,
            s.active_threads,
            s.blocks,
        ] {
            h.u64(v);
        }
        h.u64(r.wire_bytes);
        h.u64(u64::from(r.faults.failures));
        h.u64(u64::from(r.faults.retries));
        h.u64(r.faults.reexecuted_blocks);
        h.u64(u64::from(r.faults.degraded));
    }

    fn replay(&mut self, s: &ReplayStats) {
        let h = &mut self.reports;
        for v in [
            s.gathers_elided,
            s.gathers_narrowed,
            s.gathers_full,
            s.materializations,
            s.cache_hits,
            s.cache_misses,
            s.wire_bytes,
            s.wire_bytes_saved,
        ] {
            h.u64(v);
        }
        h.f64(s.time);
    }

    fn memory(&mut self, cl: &mut CuccCluster, bufs: &[BufferId]) {
        for &b in bufs {
            let bytes = cl.download::<u8>(b).expect("download");
            self.memory.u64(bytes.len() as u64);
            self.memory.bytes(&bytes);
        }
    }

    /// Fold in the cluster's clock (before and after draining every lane)
    /// and its whole trace.
    fn cluster(&mut self, cl: &mut CuccCluster) {
        self.clock.f64(cl.clock());
        let drained = cl.synchronize().expect("synchronize");
        self.clock.f64(drained);
        let tl = cl.timeline();
        let h = &mut self.trace;
        h.u64(tl.spans().len() as u64);
        for s in tl.spans() {
            h.str(&s.name);
            h.u64(track_id(s.track));
            h.str(s.category.label());
            h.u64(u64::from(s.depth));
            h.f64(s.start);
            h.f64(s.dur);
        }
        h.u64(tl.counters().len() as u64);
        for c in tl.counters() {
            h.str(c.name);
            h.u64(track_id(c.track));
            h.f64(c.t);
            h.u64(c.value);
        }
    }

    fn finish(&self) -> [u64; 4] {
        [self.reports.0, self.memory.0, self.clock.0, self.trace.0]
    }
}

fn options(engine: EngineKind, faults: FaultPlan) -> RunOptions {
    RunOptions::builder().engine(engine).faults(faults).build()
}

fn cluster(nodes: u32, options: RunOptions) -> CuccCluster {
    CuccCluster::with_options(ClusterSpec::simd_focused().with_nodes(nodes), options)
}

fn floats(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ seed) as f32 / u32::MAX as f32 - 0.5)
        .collect()
}

/// The eight evaluation kernels, each on a fresh cluster.
fn perf(nodes: u32, options: RunOptions) -> [u64; 4] {
    let mut g = Golden::new();
    for bench in perf_suite(Scale::Test) {
        let ck = compile_source(&bench.source()).expect("compile");
        let mut cl = cluster(nodes, options.clone());
        let (args, handles) = setup_args(bench.as_ref(), &ck.kernel, &mut cl);
        let report = cl.launch(&ck, bench.launch(), &args).expect("launch");
        g.report(&report);
        g.memory(&mut cl, &handles);
        g.cluster(&mut cl);
    }
    g.finish()
}

fn replicated(engine: EngineKind) -> [u64; 4] {
    let ck = compile_source(HIST).unwrap();
    let n = 4096usize;
    let data: Vec<i32> = (0..n as i32).map(|i| i * 37 % 1000).collect();
    let mut cl = cluster(4, options(engine, FaultPlan::none()));
    let bins = cl.alloc(16 * 4);
    let d = cl.alloc(n * 4);
    cl.upload(d, &data).unwrap();
    let args = [Arg::Buffer(bins), Arg::Buffer(d), Arg::int(n as i64)];
    let mut g = Golden::new();
    for _ in 0..2 {
        let r = cl
            .launch(&ck, LaunchConfig::cover1(n as u64, 256), &args)
            .unwrap();
        assert!(!r.mode.is_three_phase());
        g.report(&r);
    }
    g.memory(&mut cl, &[bins, d]);
    g.cluster(&mut cl);
    g.finish()
}

/// The three-region kernel with a tail block, launched twice.
fn triple(faults: FaultPlan) -> [u64; 4] {
    let ck = compile_source(TRIPLE).unwrap();
    let n = 10 * 256 + 77;
    let mut cl = cluster(3, options(EngineKind::default(), faults));
    let bufs: Vec<BufferId> = (0..4).map(|_| cl.alloc(n * 4)).collect();
    cl.upload(bufs[3], &floats(n, 3)).unwrap();
    let mut args: Vec<Arg> = bufs.iter().map(|&b| Arg::Buffer(b)).collect();
    args.push(Arg::int(n as i64));
    let mut g = Golden::new();
    for _ in 0..2 {
        let r = cl
            .launch(&ck, LaunchConfig::cover1(n as u64, 256), &args)
            .unwrap();
        assert_eq!(r.mode.three_phase().unwrap().plan.buffers.len(), 3);
        g.report(&r);
    }
    g.memory(&mut cl, &bufs);
    g.cluster(&mut cl);
    g.finish()
}

/// Chunked saxpy over two streams: uploads prefetch under compute.
fn streams() -> [u64; 4] {
    let ck = compile_source(SAXPY).unwrap();
    let (chunks, n) = (4usize, 8 * 256usize);
    let mut cl = cluster(4, RunOptions::default());
    let s = [cl.stream_create(), cl.stream_create()];
    let xs: Vec<BufferId> = (0..chunks).map(|_| cl.alloc(n * 4)).collect();
    let ys: Vec<BufferId> = (0..chunks).map(|_| cl.alloc(n * 4)).collect();
    let mut g = Golden::new();
    for i in 0..chunks {
        let st = s[i % 2];
        cl.upload_on(xs[i], &floats(n, i as u32), st).unwrap();
        cl.upload_on(ys[i], &floats(n, 100 + i as u32), st).unwrap();
        let args = [
            Arg::Buffer(xs[i]),
            Arg::Buffer(ys[i]),
            Arg::float(1.25),
            Arg::int(n as i64),
        ];
        let r = cl
            .launch_on(&ck, LaunchConfig::cover1(n as u64, 256), &args, st)
            .unwrap();
        g.report(&r);
        let out = cl.download_on::<u8>(ys[i], st).unwrap();
        g.memory.bytes(&out);
    }
    g.cluster(&mut cl);
    g.memory(&mut cl, &ys);
    g.finish()
}

/// A captured producer → shifted consumer → unknown-footprint consumer
/// chain: the replay elides, narrows and materializes gathers.
fn graph() -> [u64; 4] {
    let prod = compile_source(PROD).unwrap();
    let shift = compile_source(SHIFT).unwrap();
    let gather_all = compile_source(GATHER_ALL).unwrap();
    let elems = 1024usize;
    let launch = LaunchConfig::cover1(elems as u64, 64);
    let mut cl = cluster(4, RunOptions::default());
    let x = cl.alloc((elems + 64) * 4);
    let y = cl.alloc(elems * 4);
    let z = cl.alloc(elems * 4);
    let mut cap = GraphCapture::new();
    let xs = floats(elems + 64, 11);
    cap.upload(x, xs.iter().flat_map(|v| v.to_le_bytes()).collect());
    cap.launch(&prod, launch, &[Arg::Buffer(x)]);
    cap.launch(&shift, launch, &[Arg::Buffer(y), Arg::Buffer(x)]);
    cap.launch(
        &gather_all,
        launch,
        &[Arg::Buffer(z), Arg::Buffer(x), Arg::int(elems as i64)],
    );
    let graph = cap.finish();
    let mut g = Golden::new();
    let mut total = ReplayStats::default();
    for _ in 0..2 {
        let stats = cl.graph_replay(&graph).unwrap();
        g.replay(&stats);
        total.accumulate(&stats);
    }
    assert!(total.gathers_elided > 0, "{total:?}");
    assert!(total.gathers_narrowed > 0, "{total:?}");
    assert!(total.materializations > 0, "{total:?}");
    g.memory(&mut cl, &[x, y, z]);
    g.cluster(&mut cl);
    g.finish()
}

/// `bench_fault`'s launch shape: one saxpy launch under `faults`.
fn fault(nodes: u32, n: usize, faults: FaultPlan) -> (LaunchReport, [u64; 4]) {
    let ck = compile_source(SAXPY).unwrap();
    let mut cl = cluster(nodes, options(EngineKind::default(), faults));
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    cl.upload(x, &floats(n, 1)).unwrap();
    cl.upload(y, &floats(n, 2)).unwrap();
    let args = [
        Arg::Buffer(x),
        Arg::Buffer(y),
        Arg::float(2.0),
        Arg::int(n as i64),
    ];
    let r = cl
        .launch(&ck, LaunchConfig::cover1(n as u64, 256), &args)
        .unwrap();
    let mut g = Golden::new();
    g.report(&r);
    g.memory(&mut cl, &[x, y]);
    g.cluster(&mut cl);
    (r, g.finish())
}

fn saxpy_session(cl: &mut CuccCluster, n: usize) -> [BufferId; 2] {
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    cl.upload(x, &floats(n, 5)).unwrap();
    cl.upload(y, &floats(n, 6)).unwrap();
    [x, y]
}

fn saxpy_launches(
    cl: &mut CuccCluster,
    ck: &CompiledKernel,
    bufs: [BufferId; 2],
    n: usize,
    g: &mut Golden,
    count: usize,
) {
    let args = [
        Arg::Buffer(bufs[0]),
        Arg::Buffer(bufs[1]),
        Arg::float(1.5),
        Arg::int(n as i64),
    ];
    for _ in 0..count {
        let r = cl
            .launch(ck, LaunchConfig::cover1(n as u64, 256), &args)
            .unwrap();
        g.report(&r);
    }
}

/// `bench_elastic`'s kill-then-join session on 8 nodes, then a
/// checkpoint restored into 4 nodes (with the plan, whose cursor the image
/// carries) that runs two more launches.
fn kill_join_checkpoint_restore() -> [u64; 4] {
    let ck = compile_source(SAXPY).unwrap();
    let n = 21 * 8 * 256;
    let plan = FaultPlan::none().kill(7, 0.0).join(7, 0.0);
    let mut cl = cluster(8, options(EngineKind::default(), plan.clone()));
    let bufs = saxpy_session(&mut cl, n);
    let mut g = Golden::new();
    saxpy_launches(&mut cl, &ck, bufs, n, &mut g, 2);
    let image = cl.checkpoint().unwrap().encode();
    g.memory.bytes(&image);
    g.cluster(&mut cl);
    let ckpt = Checkpoint::decode(&image).unwrap();
    let mut restored = CuccCluster::restore(
        ClusterSpec::simd_focused().with_nodes(4),
        options(EngineKind::default(), plan),
        &ckpt,
    )
    .unwrap();
    saxpy_launches(&mut restored, &ck, bufs, n, &mut g, 2);
    g.memory(&mut restored, &bufs);
    g.cluster(&mut restored);
    g.finish()
}

/// A fault-free checkpoint (its image carries no fault cursor) restored
/// into the same and into a different node count without a fault plan.
fn clean_checkpoint_restore() -> [u64; 4] {
    let ck = compile_source(SAXPY).unwrap();
    let n = 12 * 256;
    let mut cl = cluster(4, RunOptions::default());
    let bufs = saxpy_session(&mut cl, n);
    let mut g = Golden::new();
    saxpy_launches(&mut cl, &ck, bufs, n, &mut g, 1);
    let image = cl.checkpoint().unwrap().encode();
    g.memory.bytes(&image);
    g.cluster(&mut cl);
    let ckpt = Checkpoint::decode(&image).unwrap();
    assert!(ckpt.fault_cursor.is_none());
    for nodes in [4, 3] {
        let mut restored = CuccCluster::restore(
            ClusterSpec::simd_focused().with_nodes(nodes),
            RunOptions::default(),
            &ckpt,
        )
        .unwrap();
        saxpy_launches(&mut restored, &ck, bufs, n, &mut g, 1);
        g.memory(&mut restored, &bufs);
        g.cluster(&mut restored);
    }
    g.finish()
}

/// Every scenario's digests, computed now.
fn scenarios() -> Vec<(&'static str, [u64; 4])> {
    let mut out = Vec::new();
    for (engine, label) in [(EngineKind::TreeWalk, "tree"), (EngineKind::Simd, "simd")] {
        for (nodes, n_label) in [(1u32, "1"), (3, "3"), (4, "4")] {
            let name: &'static str = Box::leak(format!("perf/{label}/{n_label}").into_boxed_str());
            out.push((name, perf(nodes, options(engine, FaultPlan::none()))));
        }
    }
    out.push((
        "perf/modeled/4",
        perf(4, RunOptions::builder().modeled().build()),
    ));
    for (engine, label) in [
        (EngineKind::TreeWalk, "replicated/tree"),
        (EngineKind::Bytecode, "replicated/bytecode"),
        (EngineKind::Simd, "replicated/simd"),
    ] {
        out.push((label, replicated(engine)));
    }
    out.push(("triple/clean", triple(FaultPlan::none())));
    out.push((
        "triple/armed-silent",
        triple(FaultPlan::none().kill(2, 1e9)),
    ));
    out.push(("streams/2", streams()));
    out.push(("graph/elide-narrow-materialize", graph()));

    let (r, d) = fault(3, 25 * 256, FaultPlan::none().kill(2, 0.0));
    assert!(r.faults.failures == 1 && !r.faults.degraded);
    out.push(("fault/kill-repartition", d));
    let (r, d) = fault(4, 64 * 256, FaultPlan::none().kill(2, 0.0));
    assert!(r.faults.degraded);
    out.push(("fault/kill-degraded", d));
    let (r, d) = fault(4, 64 * 256, FaultPlan::none().straggle(1, 0.0, 3.0));
    assert!(r.times.partial > 0.0 && r.faults.is_clean());
    out.push(("fault/straggle", d));
    let (r, d) = fault(4, 64 * 256, FaultPlan::none().drop_step(0.0));
    assert_eq!(r.faults.retries, 1);
    out.push(("fault/drop", d));
    out.push((
        "elastic/kill-join-checkpoint-restore",
        kill_join_checkpoint_restore(),
    ));
    out.push((
        "elastic/clean-checkpoint-restore",
        clean_checkpoint_restore(),
    ));
    out
}

/// `[reports, memory, clock, trace]` per scenario.
const GOLDEN: &[(&str, [u64; 4])] = &[
    (
        "perf/tree/1",
        [
            0x851ad4115c801048,
            0xf236400b21df28ad,
            0xb480cb440ce05e21,
            0xc1dd84abc81b159c,
        ],
    ),
    (
        "perf/tree/3",
        [
            0xb1e4dcfac1e934ff,
            0xf236400b21df28ad,
            0xaeb8baa2e74acc52,
            0x026a94b51b85107a,
        ],
    ),
    (
        "perf/tree/4",
        [
            0x0ddc9f439ba8dd8c,
            0xf236400b21df28ad,
            0xaac4aacb9c6e9441,
            0xb72bad68102b3acb,
        ],
    ),
    (
        "perf/simd/1",
        [
            0x851ad4115c801048,
            0xf236400b21df28ad,
            0xb480cb440ce05e21,
            0xc1dd84abc81b159c,
        ],
    ),
    (
        "perf/simd/3",
        [
            0xb1e4dcfac1e934ff,
            0xf236400b21df28ad,
            0xaeb8baa2e74acc52,
            0x026a94b51b85107a,
        ],
    ),
    (
        "perf/simd/4",
        [
            0x0ddc9f439ba8dd8c,
            0xf236400b21df28ad,
            0xaac4aacb9c6e9441,
            0xb72bad68102b3acb,
        ],
    ),
    (
        "perf/modeled/4",
        [
            0x0ddc9f439ba8dd8c,
            0xcf12d1acb9564d91,
            0xaac4aacb9c6e9441,
            0xb72bad68102b3acb,
        ],
    ),
    (
        "replicated/tree",
        [
            0x7705ce5204c07665,
            0x4ef2dda605f1c7bc,
            0x37018cc2423df3b9,
            0xb25a04329022662b,
        ],
    ),
    (
        "replicated/bytecode",
        [
            0x7705ce5204c07665,
            0x4ef2dda605f1c7bc,
            0x37018cc2423df3b9,
            0xb25a04329022662b,
        ],
    ),
    (
        "replicated/simd",
        [
            0x7705ce5204c07665,
            0x4ef2dda605f1c7bc,
            0x37018cc2423df3b9,
            0xb25a04329022662b,
        ],
    ),
    (
        "triple/clean",
        [
            0x803441c352d54005,
            0xfd9c923bfa38428d,
            0xb5130dc53c308b4d,
            0xad557ac985c209d1,
        ],
    ),
    (
        "triple/armed-silent",
        [
            0x803441c352d54005,
            0xfd9c923bfa38428d,
            0xb5130dc53c308b4d,
            0xad557ac985c209d1,
        ],
    ),
    (
        "streams/2",
        [
            0x26793f59cf9e00cd,
            0xbb6132cd59b12d85,
            0x9e21ed2296fb544f,
            0x086f3037ec992461,
        ],
    ),
    (
        "graph/elide-narrow-materialize",
        [
            0x8538c6e27a1bb42b,
            0x7f7c3d2a05ee9d52,
            0xb8129ea6a91e36fd,
            0x33d90989eb771d16,
        ],
    ),
    (
        "fault/kill-repartition",
        [
            0xc5d9e4dd2fe8b68d,
            0x9d8ea471ad64d412,
            0x43343a5d9c865e62,
            0x1c05b3375cd9bcc8,
        ],
    ),
    (
        "fault/kill-degraded",
        [
            0x04b3480a8eb68736,
            0xfd587861127107b2,
            0xfa29fe7fe2fe8a5d,
            0x8195260ccc4cb63c,
        ],
    ),
    (
        "fault/straggle",
        [
            0x95dfc40edebc7ee9,
            0xfd587861127107b2,
            0xf040c945c16a6f2d,
            0x3965065219b54fed,
        ],
    ),
    (
        "fault/drop",
        [
            0x9ca5434cf3e0ad09,
            0xfd587861127107b2,
            0x79ecf2db64e33cd9,
            0x6810797aa5103965,
        ],
    ),
    (
        "elastic/kill-join-checkpoint-restore",
        [
            0xc92e19ae35eaadec,
            0x16e736a2401d2797,
            0x5af8d6f18009abc1,
            0x46c2daecdd52da67,
        ],
    ),
    (
        "elastic/clean-checkpoint-restore",
        [
            0x32545c01f9d56118,
            0x52aae61b191110f4,
            0xdbe10bc10f029dc2,
            0x3aa913e6d1a0b1fb,
        ],
    ),
];

#[test]
fn launch_outputs_match_golden_digests() {
    let got = scenarios();
    let mut table = String::new();
    for (name, d) in &got {
        table += &format!(
            "    (\n        \"{name}\",\n        [\n            {:#018x},\n            {:#018x},\n            {:#018x},\n            {:#018x},\n        ],\n    ),\n",
            d[0], d[1], d[2], d[3]
        );
    }
    let mut diffs = Vec::new();
    for (name, d) in &got {
        let Some((_, want)) = GOLDEN.iter().find(|(n, _)| n == name) else {
            diffs.push(format!("{name}: no golden entry"));
            continue;
        };
        for (part, (g, w)) in ["reports", "memory", "clock", "trace"]
            .iter()
            .zip(d.iter().zip(want))
        {
            if g != w {
                diffs.push(format!("{name}: {part} digest {g:#018x}, golden {w:#018x}"));
            }
        }
    }
    assert_eq!(got.len(), GOLDEN.len(), "scenario count\n{table}");
    assert!(
        diffs.is_empty(),
        "golden digests differ:\n  {}\n\ncomputed table:\n{table}",
        diffs.join("\n  ")
    );
}
