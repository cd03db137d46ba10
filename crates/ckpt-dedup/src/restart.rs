//! Single-pass parallel restart: last-writer-wins restore without
//! materializing intermediate checkpoints. This is the production restore
//! path (the runtime's restart, `ckpt restore`, the benchmarks); the
//! sequential replay in [`crate::restore`] is kept only as its reference.
//!
//! The sequential [`restore_record`](crate::restore::restore_record) replays
//! a record front-to-back, cloning and patching every version on the way to
//! the one that is actually wanted — O(chain length × checkpoint size) bytes
//! moved for a single restore. This module walks the chain the other way,
//! starting from the target checkpoint. Every target chunk is a *waiter*
//! linked on the source chunk whose content it currently needs. A record that
//! does not cover that chunk leaves the waiter alone (a fixed duplicate
//! simply carries to older records at no cost), so visiting a record only
//! walks the chunks its region tables cover: a payload cover *finalizes* the
//! waiters there, a shifted duplicate relinks them onto its source chunk
//! (possibly in an older record). Each visited record then contributes
//! exactly one parallel copy wave for the chunks it finalized. Total bytes
//! moved: one checkpoint's worth, regardless of chain length; resolution work
//! per record is proportional to what that record covers.
//!
//! **Determinism:** each target chunk is finalized exactly once, at the one
//! record that supplies it, so the copy destinations are disjoint and the
//! restored bytes are identical at any thread count — and identical to the
//! sequential replay (the waiter walk computes exactly the provenance the
//! sequential clone-and-patch loop realizes in place).
//!
//! Chains whose head is a **rebase record** (see
//! [`Checkpointer::rebase_checkpoint`](crate::methods::Checkpointer::rebase_checkpoint))
//! short-circuit: a self-contained record finalizes every remaining chunk,
//! so older records are never visited — the chain-compaction payoff.

use crate::chunking::Chunking;
use crate::diff::{bitmap, Diff, MethodKind};
use crate::restore::{decoded_payload, RestoreError};
use crate::tree::TreeShape;
use crate::util::SharedSliceMut;
use gpu_sim::{ArenaLease, Device, KernelCost};

/// End of a waiter list / chunk outside the visited record's cover table.
const NIL: u32 = u32::MAX;

/// Counters describing one single-pass restore.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartStats {
    /// Records the resolution walk actually visited (≤ chain length; a
    /// self-contained rebase record stops the walk).
    pub records_visited: u32,
    /// Chunk copies emitted across all per-record waves.
    pub regions_copied: u64,
    /// Payload bytes copied into the restored buffer.
    pub bytes_copied: u64,
    /// Chunks that resolved to the zero prefix below the record base.
    pub zero_chunks: u64,
}

/// Does this diff reference no earlier checkpoint? Structural check used to
/// recognize rebase records: a self-contained record is a legal chain base.
pub fn is_self_contained(diff: &Diff) -> bool {
    let ck = Chunking::new(diff.data_len as usize, diff.chunk_size as usize);
    let n = ck.n_chunks();
    match diff.kind {
        MethodKind::Full => true,
        MethodKind::Basic => (0..n).all(|c| bitmap::get(&diff.bitmap, c)),
        MethodKind::List | MethodKind::Tree => {
            if diff
                .shift_regions
                .iter()
                .any(|s| s.ref_ckpt != diff.ckpt_id)
            {
                return false;
            }
            // Every chunk must be covered by a payload or shift region;
            // an uncovered chunk would inherit from the previous version.
            let shape = TreeShape::new(n);
            let mut covered = vec![false; n];
            for &node in &diff.first_regions {
                let (clo, chi) = shape.chunk_range(node as usize);
                covered[clo..chi].fill(true);
            }
            for s in &diff.shift_regions {
                let (clo, chi) = shape.chunk_range(s.node as usize);
                covered[clo..chi].fill(true);
            }
            covered.into_iter().all(|c| c)
        }
    }
}

/// Where a record takes the content of the chunks one cover spans.
#[derive(Clone, Copy)]
pub(crate) enum Source {
    /// The decoded payload, from this byte offset on.
    Payload(u64),
    /// Source chunks from `slo` on, as of record position `ref_pos`.
    Shift { slo: u32, ref_pos: u32 },
}

/// One interval of a record's cover table: chunks `clo..chi` and their
/// source. A record's covers are sorted by `clo` and pairwise disjoint.
#[derive(Clone, Copy)]
pub(crate) struct Cover {
    pub(crate) clo: u32,
    pub(crate) chi: u32,
    pub(crate) src: Source,
}

/// Build the cover table of `diff` (payload offsets in bytes) for a chain
/// based at `base`: its region tables as sorted, disjoint chunk intervals.
/// The one decoder of region tables behind the restart engine and
/// [`RecordReader`](crate::random_access::RecordReader); malformed tables
/// are typed here (`PayloadTruncated`, `ForwardReference`, `RefBelowBase`,
/// `SpanMismatch`, `OverlappingRegions`).
pub(crate) fn cover_table(
    ck: &Chunking,
    shape: &TreeShape,
    base: u32,
    diff: &Diff,
    payload_len: usize,
) -> Result<Vec<Cover>, RestoreError> {
    let n = ck.n_chunks();
    let truncated = RestoreError::PayloadTruncated {
        ckpt_id: diff.ckpt_id,
    };
    // Payload covers take consecutive payload bytes in table order.
    let mut cursor = 0usize;
    let mut payload_cover = |clo: usize, chi: usize| {
        let (a, b) = ck.byte_range_of_chunks(clo, chi);
        if cursor + (b - a) > payload_len {
            return Err(truncated.clone());
        }
        let cover = Cover {
            clo: clo as u32,
            chi: chi as u32,
            src: Source::Payload(cursor as u64),
        };
        cursor += b - a;
        Ok(cover)
    };
    match diff.kind {
        MethodKind::Full => {
            if payload_len != ck.data_len() {
                return Err(truncated);
            }
            Ok(vec![Cover {
                clo: 0,
                chi: n as u32,
                src: Source::Payload(0),
            }])
        }
        MethodKind::Basic => {
            // Each run of changed chunks is one payload cover.
            let mut covers = Vec::new();
            let mut c = 0;
            while c < n {
                if !bitmap::get(&diff.bitmap, c) {
                    c += 1;
                    continue;
                }
                let clo = c;
                while c < n && bitmap::get(&diff.bitmap, c) {
                    c += 1;
                }
                covers.push(payload_cover(clo, c)?);
            }
            Ok(covers)
        }
        MethodKind::List | MethodKind::Tree => {
            let mut covers =
                Vec::with_capacity(diff.first_regions.len() + diff.shift_regions.len());
            for &node in &diff.first_regions {
                let (clo, chi) = shape.chunk_range(node as usize);
                covers.push(payload_cover(clo, chi)?);
            }
            for s in &diff.shift_regions {
                if s.ref_ckpt > diff.ckpt_id {
                    return Err(RestoreError::ForwardReference {
                        ckpt_id: diff.ckpt_id,
                        ref_ckpt: s.ref_ckpt,
                    });
                }
                let Some(ref_pos) = s.ref_ckpt.checked_sub(base) else {
                    return Err(RestoreError::RefBelowBase {
                        ckpt_id: diff.ckpt_id,
                        ref_ckpt: s.ref_ckpt,
                        base,
                    });
                };
                let (clo, chi) = shape.chunk_range(s.node as usize);
                let (slo, shi) = shape.chunk_range(s.ref_node as usize);
                let (da, db) = ck.byte_range_of_chunks(clo, chi);
                let (sa, sb) = ck.byte_range_of_chunks(slo, shi);
                if db - da != sb - sa {
                    return Err(RestoreError::SpanMismatch {
                        node: s.node,
                        ref_node: s.ref_node,
                    });
                }
                covers.push(Cover {
                    clo: clo as u32,
                    chi: chi as u32,
                    src: Source::Shift {
                        slo: slo as u32,
                        ref_pos,
                    },
                });
            }
            covers.sort_unstable_by_key(|cv| cv.clo);
            if covers.windows(2).any(|w| w[0].chi > w[1].clo) {
                return Err(RestoreError::OverlappingRegions {
                    ckpt_id: diff.ckpt_id,
                });
            }
            Ok(covers)
        }
    }
}

/// How one waiter's chase through the visited record ended.
enum Step {
    /// Finalized: the content is `chunks` chunks past byte `off` of the
    /// payload.
    Payload { off: u64, chunks: u32 },
    /// Finalized: the zero prefix below the record base.
    Zero,
    /// Same-record shifts ran out of fuel (a cycle).
    Cycle,
    /// Relinked onto the source chunk it needs next.
    Waiting,
}

/// Per-chunk resolution state, indexed by chunk id (16 B per chunk,
/// arena-leased so steady-state restores allocate nothing).
///
/// Target chunk `w` sits on source chunk `s`'s list (`head[s]`, then
/// `next[w]`) while it needs the content `s` holds in the newest record at or
/// below position `pos[w]` that covers `s`.
struct Waiters {
    head: ArenaLease<u32>,
    next: ArenaLease<u32>,
    pos: ArenaLease<u32>,
    /// Chunk → index into the visited record's cover table, `NIL` outside
    /// it. Filled and cleared over that record's covers only, and only when
    /// it has same-record shifts to chase.
    cover_of: ArenaLease<u32>,
}

impl Waiters {
    fn wait(&mut self, w: u32, pos: u32, s: u32) {
        self.pos[w as usize] = pos;
        self.next[w as usize] = self.head[s as usize];
        self.head[s as usize] = w;
    }

    /// Resolve waiter `w`, which needs chunk `cur` of record position `j`,
    /// covered there by `covers[k]`. Same-record shifts are chased in O(1)
    /// per hop through `cover_of`, at most `fuel` hops.
    fn chase(
        &mut self,
        w: u32,
        mut k: usize,
        mut cur: u32,
        j: u32,
        covers: &[Cover],
        mut fuel: usize,
    ) -> Step {
        loop {
            let cv = covers[k];
            let (slo, ref_pos) = match cv.src {
                Source::Payload(off) => {
                    return Step::Payload {
                        off,
                        chunks: cur - cv.clo,
                    }
                }
                Source::Shift { slo, ref_pos } => (slo, ref_pos),
            };
            let src = slo + (cur - cv.clo);
            if ref_pos != j {
                self.wait(w, ref_pos, src);
                return Step::Waiting;
            }
            if fuel == 0 {
                return Step::Cycle;
            }
            fuel -= 1;
            cur = src;
            match self.cover_of[cur as usize] {
                // Uncovered: a fixed duplicate of the previous version.
                NIL if j == 0 => return Step::Zero,
                NIL => {
                    self.wait(w, j - 1, cur);
                    return Step::Waiting;
                }
                next => k = next as usize,
            }
        }
    }
}

/// Incremental single-pass restore of one target version.
///
/// Feed records newest→oldest starting with the target itself;
/// [`feed`](Self::feed) returns `true` once every chunk is resolved (always
/// by the time record position 0 has been fed). The incremental shape lets a
/// driver overlap fetching record *j−1* from storage with resolving record
/// *j* — the runtime crate's prefetching engine does exactly that.
pub struct SinglePassRestore {
    device: Device,
    kind: MethodKind,
    ck: Chunking,
    shape: TreeShape,
    base: u32,
    /// Record position the next `feed` must carry (`ckpt_id == base + pos`).
    next_pos: u32,
    buf: Vec<u8>,
    waiters: Waiters,
    /// Target chunks not yet finalized.
    remaining: usize,
    done: bool,
    stats: RestartStats,
}

impl SinglePassRestore {
    /// Start a restore of `target` (the newest record that matters) for a
    /// chain whose first surviving checkpoint id is `base`. The target diff
    /// itself must then be the first record fed.
    pub fn begin(device: &Device, base: u32, target: &Diff) -> Result<Self, RestoreError> {
        let Some(target_pos) = target.ckpt_id.checked_sub(base) else {
            return Err(RestoreError::OutOfOrder {
                index: 0,
                ckpt_id: target.ckpt_id,
            });
        };
        let ck = Chunking::new(target.data_len as usize, target.chunk_size as usize);
        let shape = TreeShape::new(ck.n_chunks());
        let n = ck.n_chunks();
        let arena = device.arena();
        let mut waiters = Waiters {
            head: arena.lease("restart/head", n),
            next: arena.lease("restart/next", n),
            pos: arena.lease("restart/pos", n),
            cover_of: arena.lease("restart/cover_of", n),
        };
        {
            // Leases carry stale pool contents; seed the lists: every chunk
            // waits on itself at the target position.
            let head = SharedSliceMut::new(waiters.head.as_mut_slice());
            let next = SharedSliceMut::new(waiters.next.as_mut_slice());
            let pos = SharedSliceMut::new(waiters.pos.as_mut_slice());
            let cover_of = SharedSliceMut::new(waiters.cover_of.as_mut_slice());
            device.parallel_for(
                "restart_seed_resolution",
                n,
                KernelCost::stream(16 * n as u64),
                |c| unsafe {
                    // SAFETY: chunk index owned by this thread.
                    head.write(c, c as u32);
                    next.write(c, NIL);
                    pos.write(c, target_pos);
                    cover_of.write(c, NIL);
                },
            );
        }
        Ok(SinglePassRestore {
            device: device.clone(),
            kind: target.kind,
            ck,
            shape,
            base,
            next_pos: target_pos,
            buf: vec![0u8; ck.data_len()],
            waiters,
            remaining: n,
            done: false,
            stats: RestartStats::default(),
        })
    }

    /// True once every chunk has a resolved source.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Record position expected by the next [`feed`](Self::feed).
    pub fn next_position(&self) -> Option<u32> {
        (!self.done).then_some(self.next_pos)
    }

    /// Visit the next record (position [`next_position`](Self::next_position),
    /// newest first). Returns `true` when every chunk is resolved and the
    /// remaining (older) records are not needed.
    pub fn feed(&mut self, diff: &Diff) -> Result<bool, RestoreError> {
        if self.done {
            return Ok(true);
        }
        let j = self.next_pos;
        if diff.ckpt_id != self.base + j {
            return Err(RestoreError::OutOfOrder {
                index: j as usize,
                ckpt_id: diff.ckpt_id,
            });
        }
        if diff.kind != self.kind {
            return Err(RestoreError::MixedKinds {
                expected: self.kind,
                found: diff.kind,
            });
        }
        if diff.data_len as usize != self.ck.data_len()
            || diff.chunk_size as usize != self.ck.chunk_size()
        {
            return Err(RestoreError::GeometryChanged);
        }

        let payload = decoded_payload(diff)?;
        let covers = cover_table(&self.ck, &self.shape, self.base, diff, payload.len())?;
        self.stats.records_visited += 1;

        let n_shifts = covers
            .iter()
            .filter(|cv| matches!(cv.src, Source::Shift { .. }))
            .count();
        let chases = covers
            .iter()
            .any(|cv| matches!(cv.src, Source::Shift { ref_pos, .. } if ref_pos == j));
        let wt = &mut self.waiters;
        if chases {
            for (k, cv) in covers.iter().enumerate() {
                wt.cover_of[cv.clo as usize..cv.chi as usize].fill(k as u32);
            }
        }

        // Walk the covered chunks that have waiters. Waiters parked on an
        // older position skip this record; the rest resolve here.
        let chunk_size = self.ck.chunk_size() as u64;
        let mut finalized: Vec<(u32, u64)> = Vec::with_capacity(self.remaining);
        let (mut zeroed, mut cycles, mut walked) = (0u64, 0usize, 0u64);
        for (k, cv) in covers.iter().enumerate() {
            for s in cv.clo..cv.chi {
                let mut w = std::mem::replace(&mut wt.head[s as usize], NIL);
                while w != NIL {
                    walked += 1;
                    let after = wt.next[w as usize];
                    if wt.pos[w as usize] < j {
                        wt.wait(w, wt.pos[w as usize], s);
                    } else {
                        match wt.chase(w, k, s, j, &covers, n_shifts + 1) {
                            Step::Payload { off, chunks } => {
                                finalized.push((w, off + u64::from(chunks) * chunk_size));
                            }
                            Step::Zero => zeroed += 1,
                            Step::Cycle => cycles += 1,
                            Step::Waiting => {}
                        }
                    }
                    w = after;
                }
            }
        }
        if chases {
            for cv in &covers {
                wt.cover_of[cv.clo as usize..cv.chi as usize].fill(NIL);
            }
        }
        self.device.parallel_for(
            "restart_resolve",
            0,
            KernelCost::stream(16 * walked),
            |_| {},
        );
        if cycles > 0 {
            return Err(RestoreError::UnresolvableShifts {
                ckpt_id: diff.ckpt_id,
                remaining: cycles,
            });
        }

        // One parallel copy wave for everything this record supplies.
        let bytes = copy_wave(&self.ck, &mut self.buf, &payload, &finalized);
        self.device.parallel_for(
            "restart_copy_wave",
            0,
            KernelCost::copy(bytes as u64),
            |_| {},
        );
        self.stats.regions_copied += finalized.len() as u64;
        self.stats.bytes_copied += bytes as u64;

        self.remaining -= finalized.len() + zeroed as usize;
        self.stats.zero_chunks += zeroed;
        if j == 0 {
            // Whatever still waits is uncovered all the way down: the zero
            // prefix sequential replay starts from.
            self.stats.zero_chunks += self.remaining as u64;
            self.remaining = 0;
        }
        self.done = self.remaining == 0;
        if !self.done {
            self.next_pos = j - 1;
        }
        Ok(self.done)
    }

    /// The restored bytes and walk statistics. Errors if records stopped
    /// being fed before every chunk was resolved.
    pub fn finish(self) -> Result<(Vec<u8>, RestartStats), RestoreError> {
        if !self.done {
            return Err(RestoreError::UnresolvableShifts {
                ckpt_id: self.base + self.next_pos,
                remaining: self.remaining,
            });
        }
        Ok((self.buf, self.stats))
    }
}

/// Copy each finalized `(target chunk, payload byte offset)` from `payload`
/// into `buf`; returns the bytes copied. The walk emits targets in source
/// order, so instead of sorting them a counting pass buckets them by chunk
/// range: each bucket then owns one disjoint span of `buf`, and the spans
/// copy on the thread pool.
fn copy_wave(ck: &Chunking, buf: &mut [u8], payload: &[u8], finalized: &[(u32, u64)]) -> usize {
    use rayon::prelude::*;
    /// Chunk-range buckets per wave, and the bytes below which one thread
    /// copies everything (the split/scheduling overhead wins).
    const BUCKETS: usize = 64;
    const PAR_MIN_BYTES: usize = 64 * 1024;

    let copy = |span: &mut [u8], base: usize, &(w, src): &(u32, u64)| {
        let (a, b) = ck.byte_range(w as usize);
        let src = src as usize;
        span[a - base..b - base].copy_from_slice(&payload[src..src + (b - a)]);
        b - a
    };
    if finalized.len() * ck.chunk_size() < PAR_MIN_BYTES {
        return finalized.iter().map(|f| copy(buf, 0, f)).sum();
    }
    let per = ck.n_chunks().div_ceil(BUCKETS);
    let mut starts = [0usize; BUCKETS + 1];
    for &(w, _) in finalized {
        starts[w as usize / per + 1] += 1;
    }
    for b in 0..BUCKETS {
        starts[b + 1] += starts[b];
    }
    let mut slot = starts;
    let mut bucketed = vec![(0u32, 0u64); finalized.len()];
    for &f in finalized {
        let b = f.0 as usize / per;
        bucketed[slot[b]] = f;
        slot[b] += 1;
    }
    let span_bytes = per * ck.chunk_size();
    buf.par_chunks_mut(span_bytes)
        .enumerate()
        .map(|(b, span)| {
            bucketed[starts[b]..starts[b + 1]]
                .iter()
                .map(|f| copy(span, b * span_bytes, f))
                .sum::<usize>()
        })
        .sum()
}

/// Restore version `target_index` of a (possibly compacted, base-offset)
/// record in a single pass. Bit-identical to
/// [`restore_record_from`](crate::restore::restore_record_from)'s
/// corresponding version at any thread count.
pub fn restore_version_single_pass(
    device: &Device,
    base: u32,
    diffs: &[Diff],
    target_index: usize,
) -> Result<(Vec<u8>, RestartStats), RestoreError> {
    let Some(target) = diffs.get(target_index) else {
        return Err(RestoreError::OutOfOrder {
            index: target_index,
            ckpt_id: base + target_index as u32,
        });
    };
    let mut sp = SinglePassRestore::begin(device, base, target)?;
    for d in diffs[..=target_index].iter().rev() {
        if sp.feed(d)? {
            break;
        }
    }
    sp.finish()
}

/// Restore the latest version of a record in a single pass.
pub fn restore_latest_single_pass(
    device: &Device,
    base: u32,
    diffs: &[Diff],
) -> Result<(Vec<u8>, RestartStats), RestoreError> {
    if diffs.is_empty() {
        return Err(RestoreError::UnresolvableShifts {
            ckpt_id: base,
            remaining: 0,
        });
    }
    restore_version_single_pass(device, base, diffs, diffs.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::ShiftRegion;
    use crate::methods::tree::{TreeCheckpointer, TreeConfig};
    use crate::methods::Checkpointer;
    use crate::restore::{restore_record, restore_record_from};

    fn tree_diff(ckpt_id: u32, data_len: u64) -> Diff {
        Diff {
            kind: MethodKind::Tree,
            ckpt_id,
            data_len,
            chunk_size: 32,
            first_regions: Vec::new(),
            shift_regions: Vec::new(),
            bitmap: Vec::new(),
            payload_codec: 0,
            payload: Vec::new(),
        }
    }

    fn snapshots(n: usize, len: usize) -> Vec<Vec<u8>> {
        let mut data: Vec<u8> = (0..len).map(|i| ((i * 31) % 251) as u8).collect();
        let mut out = vec![data.clone()];
        for k in 1..n {
            for j in 0..len / 64 {
                let at = (k * 911 + j * 53) % len;
                data[at] = data[at].wrapping_add(1);
            }
            out.push(data.clone());
        }
        out
    }

    #[test]
    fn single_pass_matches_sequential_tree_chain() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(6, 8192);
        let diffs: Vec<Diff> = snaps.iter().map(|s| m.checkpoint(s).diff).collect();
        let seq = restore_record(&diffs).unwrap();
        for (t, expect) in seq.iter().enumerate() {
            let (par, _) = restore_version_single_pass(&device, 0, &diffs, t).unwrap();
            assert_eq!(&par, expect, "version {t}");
        }
    }

    #[test]
    fn rebase_record_short_circuits_the_walk() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(6, 8192);
        let mut diffs = Vec::new();
        for (k, s) in snaps.iter().enumerate() {
            let out = if k == 3 {
                m.rebase_checkpoint(s)
            } else {
                m.checkpoint(s)
            };
            diffs.push(out.diff);
        }
        assert!(
            is_self_contained(&diffs[3]),
            "rebase must be self-contained"
        );
        let seq = restore_record(&diffs).unwrap();
        let (par, stats) = restore_latest_single_pass(&device, 0, &diffs).unwrap();
        assert_eq!(par, seq[5]);
        assert!(
            stats.records_visited <= 3,
            "walk must stop at the rebase record, visited {}",
            stats.records_visited
        );
    }

    #[test]
    fn compacted_chain_restores_from_base() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(6, 8192);
        let mut diffs = Vec::new();
        for (k, s) in snaps.iter().enumerate() {
            let out = if k == 3 {
                m.rebase_checkpoint(s)
            } else {
                m.checkpoint(s)
            };
            diffs.push(out.diff);
        }
        // Garbage-collect below the rebase: only records 3.. survive.
        let tail = &diffs[3..];
        let seq = restore_record_from(3, tail).unwrap();
        assert_eq!(seq[0], snaps[3]);
        assert_eq!(seq[2], snaps[5]);
        let (par, _) = restore_latest_single_pass(&device, 3, tail).unwrap();
        assert_eq!(par, snaps[5]);
    }

    #[test]
    fn self_containment_detection() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(3, 4096);
        let d0 = m.checkpoint(&snaps[0]).diff;
        let d1 = m.checkpoint(&snaps[1]).diff;
        // Checkpoint 0 references nothing earlier; an incremental later
        // checkpoint of a sparse update is dominated by fixed duplicates.
        assert!(is_self_contained(&d0));
        assert!(!is_self_contained(&d1));
    }

    #[test]
    fn ref_below_base_is_typed() {
        let mut d = tree_diff(5, 64);
        d.first_regions = vec![1]; // chunk 0
        d.payload = vec![0; 32];
        d.shift_regions = vec![ShiftRegion {
            node: 2,
            ref_node: 1,
            ref_ckpt: 2, // below base 5
        }];
        let device = Device::a100();
        let err = restore_latest_single_pass(&device, 5, std::slice::from_ref(&d)).unwrap_err();
        assert!(matches!(
            err,
            RestoreError::RefBelowBase {
                ref_ckpt: 2,
                base: 5,
                ..
            }
        ));
    }

    #[test]
    fn same_record_shift_chain_and_cycles() {
        // Mirror restore.rs's chain test: 5 -> 4 -> 3(payload).
        let mut d = tree_diff(0, 128);
        d.first_regions = vec![3, 6];
        d.shift_regions = vec![
            ShiftRegion {
                node: 5,
                ref_node: 4,
                ref_ckpt: 0,
            },
            ShiftRegion {
                node: 4,
                ref_node: 3,
                ref_ckpt: 0,
            },
        ];
        d.payload = [[7u8; 32], [9u8; 32]].concat();
        let device = Device::a100();
        let (v, _) = restore_latest_single_pass(&device, 0, std::slice::from_ref(&d)).unwrap();
        assert_eq!(&v[0..96], &[7u8; 96][..]);
        assert_eq!(&v[96..128], &[9u8; 32][..]);

        let mut cyc = tree_diff(0, 128);
        cyc.first_regions = vec![3, 6];
        cyc.payload = vec![0; 64];
        cyc.shift_regions = vec![
            ShiftRegion {
                node: 4,
                ref_node: 5,
                ref_ckpt: 0,
            },
            ShiftRegion {
                node: 5,
                ref_node: 4,
                ref_ckpt: 0,
            },
        ];
        let err = restore_latest_single_pass(&device, 0, std::slice::from_ref(&cyc)).unwrap_err();
        assert!(matches!(err, RestoreError::UnresolvableShifts { .. }));
    }

    #[test]
    fn overlapping_regions_are_typed_in_every_engine() {
        // 4 chunks: the root payload region covers all of them, and a
        // same-record shift also claims chunk 1 (leaf 4) — or a second
        // payload region claims chunk 3 (leaf 6) again.
        let mut shift_over_payload = tree_diff(0, 128);
        shift_over_payload.first_regions = vec![0];
        shift_over_payload.payload = [vec![2u8; 32], vec![1u8; 96]].concat();
        shift_over_payload.shift_regions = vec![ShiftRegion {
            node: 4,
            ref_node: 3,
            ref_ckpt: 0,
        }];
        let mut payload_over_payload = tree_diff(0, 128);
        payload_over_payload.first_regions = vec![0, 6];
        payload_over_payload.payload = vec![1u8; 160];
        let device = Device::a100();
        for d in [shift_over_payload, payload_over_payload] {
            let overlap = RestoreError::OverlappingRegions { ckpt_id: 0 };
            assert_eq!(
                restore_record(std::slice::from_ref(&d)).unwrap_err(),
                overlap
            );
            assert_eq!(
                restore_latest_single_pass(&device, 0, std::slice::from_ref(&d)).unwrap_err(),
                overlap
            );
            assert_eq!(
                crate::RecordReader::build(std::slice::from_ref(&d))
                    .err()
                    .unwrap(),
                overlap
            );
        }
    }

    #[test]
    fn early_stop_without_resolution_errors() {
        let device = Device::a100();
        let mut m = TreeCheckpointer::new(device.clone(), TreeConfig::new(64));
        let snaps = snapshots(3, 4096);
        let diffs: Vec<Diff> = snaps.iter().map(|s| m.checkpoint(s).diff).collect();
        let mut sp = SinglePassRestore::begin(&device, 0, &diffs[2]).unwrap();
        let done = sp.feed(&diffs[2]).unwrap();
        assert!(!done, "incremental tail cannot be self-sufficient");
        let err = sp.finish().unwrap_err();
        assert!(matches!(err, RestoreError::UnresolvableShifts { .. }));
    }
}
