//! Stream/event scheduler properties: random async DAGs must stay
//! byte-identical to default-stream serial execution, hazard-carrying DAGs
//! must serialize to the single-stream layout exactly, and independent
//! streams must genuinely overlap on the simulated clock.

use cucc::cluster::ClusterSpec;
use cucc::core::{compile_source, CompiledKernel, CuccCluster, RunOptions, RuntimeConfig};
use cucc::exec::Arg;
use cucc::ir::LaunchConfig;
use cucc::trace::Track;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const SCALE: &str = "__global__ void scale(float* x, float* y, float a, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) y[id] = a * x[id] + y[id];
}";

const STEP: &str = "__global__ void step(float* data, int n) {
    int id = blockIdx.x * blockDim.x + threadIdx.x;
    if (id < n) data[id] = data[id] * 0.5f + 1.0f;
}";

fn cluster(nodes: u32) -> CuccCluster {
    CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(nodes),
        RuntimeConfig::default(),
    )
}

fn f32_bytes(vals: impl Iterator<Item = f32>) -> Vec<u8> {
    vals.flat_map(|v| v.to_le_bytes()).collect()
}

/// One independent chain of host ops: upload `x`, scale into `y`, read
/// `y` back. Chains touch disjoint buffers, so they are hazard-free
/// against each other.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ChainOp {
    H2d,
    Launch,
    D2h,
}

/// A random interleaving of `chains` chains × 3 ops each, preserving each
/// chain's internal order.
fn interleaving(chains: usize, seed: u64) -> Vec<(usize, ChainOp)> {
    let mut order: Vec<usize> = (0..chains).flat_map(|c| [c, c, c]).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut next = vec![0usize; chains];
    order
        .into_iter()
        .map(|c| {
            let op = [ChainOp::H2d, ChainOp::Launch, ChainOp::D2h][next[c]];
            next[c] += 1;
            (c, op)
        })
        .collect()
}

struct Chain {
    x: cucc::exec::BufferId,
    y: cucc::exec::BufferId,
    data: Vec<u8>,
    n: usize,
}

fn setup_chains(cl: &mut CuccCluster, chains: usize, n: usize, seed: u64) -> Vec<Chain> {
    (0..chains)
        .map(|c| Chain {
            x: cl.alloc(n * 4),
            y: cl.alloc(n * 4),
            data: f32_bytes((0..n).map(|i| ((i + c) as f32 + seed as f32 % 17.0).sin())),
            n,
        })
        .collect()
}

fn chain_args(ch: &Chain) -> [Arg; 4] {
    [
        Arg::Buffer(ch.x),
        Arg::Buffer(ch.y),
        Arg::float(1.5),
        Arg::int(ch.n as i64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any random stream/event DAG over hazard-free chains produces memory
    /// byte-identical to default-stream serial execution, and the
    /// overlapped layout never ends later than the serial one (beyond f64
    /// association noise).
    #[test]
    fn hazard_free_dags_match_serial_memory(
        chains in 1usize..4,
        nodes in 2u32..5,
        n in 512usize..4000,
        num_streams in 1usize..4,
        assign_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        with_events in any::<bool>(),
    ) {
        let ck = compile_source(SCALE).unwrap();
        let ops = interleaving(chains, shuffle_seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(assign_seed);

        // Serial reference on the default stream (sync API).
        let mut serial = cluster(nodes);
        let sc = setup_chains(&mut serial, chains, n, shuffle_seed);
        let mut serial_out: Vec<Vec<u8>> = vec![Vec::new(); chains];
        for &(c, op) in &ops {
            let launch = LaunchConfig::cover1(sc[c].n as u64, 128);
            match op {
                ChainOp::H2d => serial.upload(sc[c].x, &sc[c].data).unwrap(),
                ChainOp::Launch => { serial.launch(&ck, launch, &chain_args(&sc[c])).unwrap(); }
                ChainOp::D2h => serial_out[c] = serial.download::<u8>(sc[c].y).unwrap(),
            }
        }
        let serial_elapsed = serial.clock();

        // Async replay: random chain→stream assignment, random event edges.
        let mut cl = cluster(nodes);
        let ac = setup_chains(&mut cl, chains, n, shuffle_seed);
        let streams: Vec<_> = (0..num_streams).map(|_| cl.stream_create()).collect();
        let assign: Vec<_> = (0..chains).map(|_| streams[rng.gen_range(0..num_streams)]).collect();
        let mut async_out: Vec<Vec<u8>> = vec![Vec::new(); chains];
        let mut last_event = None;
        for &(c, op) in &ops {
            let s = assign[c];
            let launch = LaunchConfig::cover1(ac[c].n as u64, 128);
            match op {
                ChainOp::H2d => cl.upload_on(ac[c].x, &ac[c].data, s).unwrap(),
                ChainOp::Launch => { cl.launch_on(&ck, launch, &chain_args(&ac[c]), s).unwrap(); }
                ChainOp::D2h => async_out[c] = cl.download_on::<u8>(ac[c].y, s).unwrap(),
            }
            if with_events {
                // Random backward-pointing event edges between streams:
                // they add ordering but can never deadlock or change
                // functional results.
                if rng.gen_bool(0.3) {
                    last_event = Some(cl.event_record(s));
                }
                if let Some(ev) = last_event {
                    if rng.gen_bool(0.3) {
                        let waiter = streams[rng.gen_range(0..num_streams)];
                        cl.stream_wait_event(waiter, ev);
                    }
                }
            }
        }
        let async_elapsed = cl.synchronize().unwrap();

        prop_assert_eq!(&async_out, &serial_out);
        for c in 0..chains {
            // d2h_async returned eagerly; the settled memory agrees.
            prop_assert_eq!(&cl.download::<u8>(ac[c].y).unwrap(), &serial_out[c]);
        }
        prop_assert!(
            async_elapsed <= serial_elapsed * (1.0 + 1e-9),
            "async {} > serial {}", async_elapsed, serial_elapsed
        );
    }

    /// Every op of every chain touches one shared buffer: RAW/WAW/WAR
    /// hazards must serialize the DAG to exactly the single-stream layout,
    /// bit-for-bit, whatever the stream assignment.
    #[test]
    fn hazard_carrying_dags_serialize(
        launches in 2usize..6,
        nodes in 2u32..5,
        n in 512usize..3000,
        num_streams in 2usize..4,
        assign_seed in any::<u64>(),
    ) {
        let ck = compile_source(STEP).unwrap();
        let launch = LaunchConfig::cover1(n as u64, 128);
        let init = f32_bytes((0..n).map(|i| i as f32 * 0.25));

        let run = |streams_to_use: usize, seed: u64| {
            let mut cl = cluster(nodes);
            let buf = cl.alloc(n * 4);
            let streams: Vec<_> = (0..streams_to_use).map(|_| cl.stream_create()).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            cl.upload_on(buf, &init, streams[rng.gen_range(0..streams_to_use)]).unwrap();
            for _ in 0..launches {
                let s = streams[rng.gen_range(0..streams_to_use)];
                cl.launch_on(&ck, launch, &[Arg::Buffer(buf), Arg::int(n as i64)], s).unwrap();
            }
            let elapsed = cl.synchronize().unwrap();
            (elapsed, cl.download::<u8>(buf).unwrap())
        };

        let (t_one, mem_one) = run(1, assign_seed);
        let (t_many, mem_many) = run(num_streams, assign_seed);
        prop_assert_eq!(t_one.to_bits(), t_many.to_bits(),
            "hazard DAG must serialize: single-stream {} vs multi-stream {}", t_one, t_many);
        prop_assert_eq!(mem_one, mem_many);
    }
}

/// Helper for the overlap tests: a two-stream h2d+kernel pipeline over
/// independent replicas, vs the same pipeline on the default stream.
fn pipeline_elapsed(ck: &CompiledKernel, streams: usize, replicas: usize) -> (f64, CuccCluster) {
    let n = 32_768usize;
    let data = f32_bytes((0..n).map(|i| i as f32));
    let launch = LaunchConfig::cover1(n as u64, 256);
    let mut cl = cluster(4);
    let ss: Vec<_> = (0..streams).map(|_| cl.stream_create()).collect();
    for r in 0..replicas {
        let x = cl.alloc(n * 4);
        let y = cl.alloc(n * 4);
        let args = [
            Arg::Buffer(x),
            Arg::Buffer(y),
            Arg::float(2.0),
            Arg::int(n as i64),
        ];
        if ss.is_empty() {
            cl.upload(x, &data).unwrap();
            cl.launch(ck, launch, &args).unwrap();
        } else {
            let s = ss[r % ss.len()];
            cl.upload_on(x, &data, s).unwrap();
            cl.launch_on(ck, launch, &args, s).unwrap();
        }
    }
    let elapsed = cl.synchronize().expect("synchronize");
    (elapsed, cl)
}

/// Acceptance criterion: two independent streams overlap on the simulated
/// clock with a ≥1.2× end-to-end win, and the trace shows concurrent
/// spans on distinct lanes.
#[test]
fn two_stream_pipeline_overlaps_at_least_1_2x() {
    let ck = compile_source(SCALE).unwrap();
    let (serial, _) = pipeline_elapsed(&ck, 0, 6);
    let (overlapped, cl) = pipeline_elapsed(&ck, 2, 6);
    let speedup = serial / overlapped;
    assert!(
        speedup >= 1.2,
        "expected >=1.2x from transfer/compute overlap, got {speedup:.3}x \
         (serial {serial:.6}, overlapped {overlapped:.6})"
    );

    // Concurrency is visible in the trace: a host-lane transfer span and a
    // node-lane compute span overlap in simulated time.
    let spans = cl.timeline().spans();
    let concurrent = spans.iter().any(|a| {
        a.track == Track::Host
            && a.dur > 0.0
            && spans.iter().any(|b| {
                matches!(b.track, Track::Node(_))
                    && b.dur > 0.0
                    && a.start < b.end()
                    && b.start < a.end()
            })
    });
    assert!(concurrent, "no concurrent host/node spans in the trace");
}

/// The default stream alone reproduces the serial pipeline's per-replica
/// memory exactly (bit-for-bit guarantee of the refactor).
#[test]
fn default_stream_pipeline_is_serial() {
    let ck = compile_source(SCALE).unwrap();
    let (serial, s_cl) = pipeline_elapsed(&ck, 0, 3);
    let (single, a_cl) = pipeline_elapsed(&ck, 1, 3);
    // One stream still chains physical span ends, so elapsed agrees up to
    // f64 association; span counts and wire traffic agree exactly.
    assert!((serial - single).abs() <= 1e-9 * serial.max(single));
    assert_eq!(s_cl.timeline().spans().len(), a_cl.timeline().spans().len());
    assert_eq!(s_cl.wire_bytes(), a_cl.wire_bytes());
}

/// `launch_on` runs the same pipeline as `launch`, sanitizer included: a
/// stream launch under `--sanitize` leaves a sanitizer report behind.
#[test]
fn stream_launch_runs_the_sanitizer() {
    let ck = compile_source(SCALE).unwrap();
    let n = 1024usize;
    let mut cl = CuccCluster::with_options(
        ClusterSpec::simd_focused().with_nodes(2),
        RunOptions::builder().sanitize(true).build(),
    );
    let x = cl.alloc(n * 4);
    let y = cl.alloc(n * 4);
    let s = cl.stream_create();
    cl.upload_on(x, &vec![1.0f32; n], s).unwrap();
    let args = [
        Arg::Buffer(x),
        Arg::Buffer(y),
        Arg::float(2.0),
        Arg::int(n as i64),
    ];
    cl.launch_on(&ck, LaunchConfig::cover1(n as u64, 256), &args, s)
        .unwrap();
    let report = cl.sanitize_report().expect("stream launch was sanitized");
    assert!(report.races.is_empty() && report.oob.is_empty());
}
