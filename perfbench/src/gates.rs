//! Correctness gates. Each compares one round's outputs against an
//! independent reference; a failed gate fails the run before any number
//! is reported.

use crate::Res;
use cucc_ir::Scalar;
use std::collections::BTreeMap;

/// Bulk: every buffer a kernel left behind matches its `reference()`,
/// within the kernel's own tolerance.
pub fn bulk(
    kernel: &str,
    got: &[Vec<u8>],
    want: &[Vec<u8>],
    elem: Option<Scalar>,
    tol: f64,
) -> Res<()> {
    if got.len() != want.len() {
        return Err(format!(
            "bulk gate: {kernel}: {} buffers, want {}",
            got.len(),
            want.len()
        ));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        cucc_workloads::buffers_close(g, w, elem, tol)
            .map_err(|e| format!("bulk gate: {kernel} buffer {i}: {e}"))?;
    }
    Ok(())
}

fn same(what: &str, a: &[Vec<u8>], b: &[Vec<u8>]) -> Res<()> {
    if a.len() != b.len() {
        return Err(format!("{what}: {} buffers vs {}", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            let at = x.iter().zip(y).position(|(p, q)| p != q);
            return Err(format!(
                "{what}: buffer {i} differs (len {} vs {}, first byte {at:?})",
                x.len(),
                y.len()
            ));
        }
    }
    Ok(())
}

/// Chain: the replayed graph's memory equals both the uncaptured launches'
/// memory and a result computed on the host.
pub fn chain(replayed: &[Vec<u8>], uncaptured: &[Vec<u8>], host: &[Vec<u8>]) -> Res<()> {
    same("chain gate: replay vs uncaptured", replayed, uncaptured)?;
    same("chain gate: replay vs host", replayed, host)
}

/// Elastic: the memory after kill, join, checkpoint and restore equals the
/// fault-free run's.
pub fn elastic(got: &[Vec<u8>], fault_free: &[Vec<u8>]) -> Res<()> {
    same("elastic gate: vs fault-free run", got, fault_free)
}

/// What the serve gate compares between a timed run and the tree-walk
/// reference run of the same stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    pub digests: BTreeMap<u32, u64>,
    pub p99_total: f64,
    pub rejected: usize,
    pub submitted: usize,
}

impl ServeOutcome {
    pub fn of(r: &cucc_core::ServeReport) -> ServeOutcome {
        ServeOutcome {
            digests: r.digests.clone(),
            p99_total: r.p99_total,
            rejected: r.rejected,
            submitted: r.submitted,
        }
    }
}

/// Serve: per-tenant digests, simulated p99 and the refused fraction
/// equal the tree-walk engine's run of the same stream.
pub fn serve(got: &ServeOutcome, reference: &ServeOutcome) -> Res<()> {
    if got.digests != reference.digests {
        return Err(format!(
            "serve gate: tenant digests differ: {:x?} vs {:x?}",
            got.digests, reference.digests
        ));
    }
    if got.p99_total.to_bits() != reference.p99_total.to_bits() {
        return Err(format!(
            "serve gate: simulated p99 {} vs {}",
            got.p99_total, reference.p99_total
        ));
    }
    if (got.rejected, got.submitted) != (reference.rejected, reference.submitted) {
        return Err(format!(
            "serve gate: refused {}/{} vs {}/{}",
            got.rejected, got.submitted, reference.rejected, reference.submitted
        ));
    }
    Ok(())
}

/// Each gate, fed a real workload's outputs, passes them and trips once
/// one byte of one buffer is corrupted.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    fn ctx() -> Ctx {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out).unwrap();
        Ctx::new(7, 0.0, false, out)
    }

    fn corrupt(bufs: &mut [Vec<u8>]) {
        let last = bufs.last_mut().expect("a buffer");
        let mid = last.len() / 2;
        last[mid] ^= 0x40;
    }

    #[test]
    fn bulk_gate_trips_on_a_corrupted_buffer() {
        let mut ctx = ctx();
        let cfg = crate::bulk::Config::tiny();
        let mut st = crate::bulk::setup(&mut ctx, &cfg).unwrap();
        crate::bulk::timed(&mut ctx, &mut st).unwrap();
        let mut outs = crate::bulk::outputs(&mut ctx, &mut st).unwrap();
        for (k, got) in st.kernels.iter().zip(&outs) {
            bulk(&k.name, got, &k.reference, k.elem, k.tol).unwrap();
        }
        let k = &st.kernels[0];
        corrupt(&mut outs[0]);
        assert!(bulk(&k.name, &outs[0], &k.reference, k.elem, k.tol).is_err());
    }

    #[test]
    fn chain_gate_trips_on_a_corrupted_buffer() {
        let mut ctx = ctx();
        let mut st = crate::chain::setup(&mut ctx, 1).unwrap();
        crate::chain::timed(&mut ctx, &mut st).unwrap();
        let (mut replayed, mut uncaptured, host) =
            crate::chain::outputs(&mut ctx, &mut st).unwrap();
        chain(&replayed, &uncaptured, &host).unwrap();
        corrupt(&mut uncaptured);
        assert!(chain(&replayed, &uncaptured, &host).is_err());
        corrupt(&mut replayed);
        assert!(chain(&replayed, &uncaptured, &host).is_err());
    }

    #[test]
    fn elastic_gate_trips_on_a_corrupted_buffer() {
        let mut ctx = ctx();
        let cfg = crate::elastic::Config::tiny();
        let fault_free = crate::elastic::fault_free(&cfg, 7).unwrap();
        let mut st = crate::elastic::setup(&mut ctx, &cfg).unwrap();
        crate::elastic::timed(&mut ctx, &mut st).unwrap();
        let mut got = crate::elastic::outputs(&mut ctx, &mut st).unwrap();
        elastic(&got, &fault_free).unwrap();
        corrupt(&mut got);
        assert!(elastic(&got, &fault_free).is_err());
    }

    #[test]
    fn serve_gate_trips_on_a_corrupted_buffer() {
        let cfg = crate::serve::Config::tiny();
        let reference = crate::serve::reference(&cfg, 7).unwrap();
        let mut ctx = ctx();
        let mut st = crate::serve::setup(&mut ctx, &cfg).unwrap();
        crate::serve::timed(&mut ctx, &mut st).unwrap();
        let got = ServeOutcome::of(st.report.as_ref().unwrap());
        serve(&got, &reference).unwrap();
        // A corrupted byte in one tenant's working set changes its digest.
        let mut bad = got.clone();
        let tenant = *bad.digests.keys().next().unwrap();
        *bad.digests.get_mut(&tenant).unwrap() ^= 0x40;
        assert!(serve(&bad, &reference).is_err());
        let mut bad = got;
        bad.rejected += 1;
        assert!(serve(&bad, &reference).is_err());
    }
}
