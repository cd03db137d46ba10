//! Seeded ORANGES GDV snapshot sequences, kept as one base image plus
//! per-checkpoint deltas so a 23 MB x 32 sequence costs one buffer, not 32.
//!
//! A replay mutates one working buffer in place, the way an application's
//! GDV array evolves between checkpoints; each step applies a few changed
//! runs (a memcpy far below one checkpoint's cost).

use ckpt_graph::{gorder, PaperGraph};
use ckpt_oranges::OrangesRun;

/// Delta granularity: a changed run is a multiple of this many bytes.
const BLOCK: usize = 64;

/// One snapshot sequence: snapshot `k` is `base` with `deltas[0..k]` applied.
#[derive(Clone, PartialEq)]
pub struct Sequence {
    base: Vec<u8>,
    deltas: Vec<Vec<(usize, Vec<u8>)>>,
}

impl Sequence {
    pub fn len(&self) -> usize {
        self.deltas.len() + 1
    }

    /// A working buffer holding snapshot 0.
    pub fn start(&self) -> Vec<u8> {
        self.base.clone()
    }

    /// Advance `buf` from snapshot `k - 1` to snapshot `k` (`k >= 1`).
    pub fn advance(&self, buf: &mut [u8], k: usize) {
        for (at, run) in &self.deltas[k - 1] {
            buf[*at..*at + run.len()].copy_from_slice(run);
        }
    }

    /// Concatenate sequences of equal length snapshot by snapshot, each
    /// part starting on a `align`-byte boundary (zero padding between).
    pub fn concat(parts: &[&Sequence], align: usize) -> Sequence {
        let n = parts[0].len();
        assert!(parts.iter().all(|p| p.len() == n), "equal-length parts");
        let mut base = Vec::new();
        let mut offsets = Vec::new();
        for p in parts {
            base.resize(base.len().div_ceil(align) * align, 0);
            offsets.push(base.len());
            base.extend_from_slice(&p.base);
        }
        let deltas = (0..n - 1)
            .map(|k| {
                parts
                    .iter()
                    .zip(&offsets)
                    .flat_map(|(p, off)| {
                        p.deltas[k].iter().map(move |(at, r)| (at + off, r.clone()))
                    })
                    .collect()
            })
            .collect();
        Sequence { base, deltas }
    }
}

/// Changed `BLOCK`-granular runs between two equal-length snapshots.
fn delta(prev: &[u8], next: &[u8]) -> Vec<(usize, Vec<u8>)> {
    let mut runs: Vec<(usize, Vec<u8>)> = Vec::new();
    for (i, (a, b)) in prev.chunks(BLOCK).zip(next.chunks(BLOCK)).enumerate() {
        if a == b {
            continue;
        }
        let at = i * BLOCK;
        match runs.last_mut() {
            Some((start, run)) if *start + run.len() == at => run.extend_from_slice(b),
            _ => runs.push((at, b.to_vec())),
        }
    }
    runs
}

/// ORANGES over `graph` (about `n_vertices`, Gorder-relabelled after a
/// seeded scramble), captured at `n_checkpoints` evenly spaced points of
/// the run: the paper's checkpoint schedule (ICPP'23 §3.2).
pub fn gdv_sequence(
    graph: PaperGraph,
    n_vertices: usize,
    n_checkpoints: usize,
    seed: u64,
) -> Sequence {
    let g = graph.generate(n_vertices, seed);
    let mut perm: Vec<u32> = (0..g.n_vertices() as u32).collect();
    // Fisher-Yates with a splitmix64 stream: inputs arrive with arbitrary
    // vertex ids, which Gorder then localises (§3.2).
    let mut s = seed ^ 0x5ca3_3b1e;
    for i in (1..perm.len()).rev() {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        perm.swap(i, (z % (i as u64 + 1)) as usize);
    }
    let g = gorder::reorder(&g.permute(&perm));
    let mut run = OrangesRun::new(&g);
    let mut base: Option<Vec<u8>> = None;
    let mut prev: Vec<u8> = Vec::new();
    let mut deltas = Vec::with_capacity(n_checkpoints.saturating_sub(1));
    run.run_with_checkpoints_par(n_checkpoints, |bytes, _| {
        match &base {
            None => base = Some(bytes.to_vec()),
            Some(_) => deltas.push(delta(&prev, bytes)),
        }
        prev.clear();
        prev.extend_from_slice(bytes);
    });
    Sequence {
        base: base.expect("at least one checkpoint"),
        deltas,
    }
}
