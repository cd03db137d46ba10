//! Random-access reconstruction: read any byte range of any checkpoint
//! version directly from the diff record, without materializing whole
//! checkpoints.
//!
//! The paper's §5 lists "scalable reconstruction techniques that efficiently
//! collect scattered compact regions from multiple previous checkpoints" as
//! future work. This module implements one: each version is indexed by the
//! restart engine's cover table (the crate's one decoder of region tables,
//! so both reject malformed records with the same typed errors). A read of
//! `(version, byte range)` walks the cover that holds each position —
//!
//! * **first occurrence** → the bytes come from that diff's payload;
//! * **shifted duplicate** → the read is redirected to the referenced
//!   checkpoint at the referenced node's range;
//! * **not covered (fixed duplicate)** → the read is redirected to the same
//!   range of the previous version —
//!
//! recursing until every sub-range lands in payload bytes. Cost is
//! proportional to the bytes read times the redirection depth, never to the
//! checkpoint size, which is what makes selective restarts and lineage
//! queries cheap on multi-gigabyte records.

use crate::chunking::Chunking;
use crate::diff::{Diff, MethodKind};
use crate::restart::{cover_table, Cover, Source};
use crate::restore::{decoded_payload, RestoreError};
use crate::tree::TreeShape;

/// One version's cover table and decoded payload.
struct VersionIndex {
    covers: Vec<Cover>,
    /// Decoded payload (decompressed once at index build).
    payload: Vec<u8>,
}

/// Random-access reader over an ordered record of diffs.
pub struct RecordReader {
    data_len: usize,
    chunk_size: usize,
    versions: Vec<VersionIndex>,
    /// Defensive bound on redirect depth (see [`Self::read_at`]).
    max_fuel: usize,
}

impl RecordReader {
    /// Build the index from an ordered record whose ids start at 0 (same
    /// validation rules as [`crate::restore::restore_record`]). Malformed
    /// region tables are rejected here with the restart engine's typed
    /// errors. Supports every method.
    pub fn build(diffs: &[Diff]) -> Result<RecordReader, RestoreError> {
        let mut versions = Vec::with_capacity(diffs.len());
        let mut geometry: Option<(usize, usize, MethodKind)> = None;
        for (index, diff) in diffs.iter().enumerate() {
            if diff.ckpt_id as usize != index {
                return Err(RestoreError::OutOfOrder {
                    index,
                    ckpt_id: diff.ckpt_id,
                });
            }
            match geometry {
                None => {
                    geometry = Some((diff.data_len as usize, diff.chunk_size as usize, diff.kind))
                }
                Some((len, cs, kind)) => {
                    if kind != diff.kind {
                        return Err(RestoreError::MixedKinds {
                            expected: kind,
                            found: diff.kind,
                        });
                    }
                    if len != diff.data_len as usize || cs != diff.chunk_size as usize {
                        return Err(RestoreError::GeometryChanged);
                    }
                }
            }
            let ck = Chunking::new(diff.data_len as usize, diff.chunk_size as usize);
            let payload = decoded_payload(diff)?.into_owned();
            let covers = cover_table(&ck, &TreeShape::new(ck.n_chunks()), 0, diff, payload.len())?;
            versions.push(VersionIndex { covers, payload });
        }
        let (data_len, chunk_size) = geometry.map_or((0, 1), |(l, cs, _)| (l, cs));
        // Redirect chains are acyclic on well-formed records; their depth is
        // bounded by the versions traversed times the tree height (nested
        // same-checkpoint twins resolve one level at a time — highly
        // self-similar data genuinely reaches that bound).
        let n_chunks = data_len.div_ceil(chunk_size).max(1);
        let height = usize::BITS as usize - n_chunks.leading_zeros() as usize + 1;
        let max_fuel = (diffs.len() + 1) * (2 * height + 6);
        Ok(RecordReader {
            data_len,
            chunk_size,
            versions,
            max_fuel,
        })
    }

    /// Number of indexed versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Length of every version's buffer.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Read `version`'s bytes `[offset, offset + out.len())` into `out`.
    pub fn read_at(&self, version: u32, offset: usize, out: &mut [u8]) -> Result<(), RestoreError> {
        if version as usize >= self.versions.len() {
            return Err(RestoreError::ForwardReference {
                ckpt_id: version,
                ref_ckpt: version,
            });
        }
        if offset
            .checked_add(out.len())
            .is_none_or(|end| end > self.data_len)
        {
            return Err(RestoreError::PayloadTruncated { ckpt_id: version });
        }
        // Redirection depth is bounded by the acyclicity of references, but a
        // corrupt record could loop; cap defensively.
        self.read_inner(version, offset, out, self.max_fuel)
    }

    /// Convenience: read a whole version.
    pub fn read_version(&self, version: u32) -> Result<Vec<u8>, RestoreError> {
        let mut out = vec![0u8; self.data_len];
        self.read_at(version, 0, &mut out)?;
        Ok(out)
    }

    fn read_inner(
        &self,
        version: u32,
        offset: usize,
        out: &mut [u8],
        fuel: usize,
    ) -> Result<(), RestoreError> {
        if fuel == 0 {
            return Err(RestoreError::UnresolvableShifts {
                ckpt_id: version,
                remaining: 1,
            });
        }
        let vi = &self.versions[version as usize];
        let cs = self.chunk_size;
        let end = offset + out.len();
        let mut pos = offset;
        while pos < end {
            // The cover holding `pos`'s chunk, else the next one after it.
            let c = (pos / cs) as u32;
            let k = vi.covers.partition_point(|cv| cv.chi <= c);
            let next = vi.covers.get(k);
            let dst_at = pos - offset;
            match next.filter(|cv| cv.clo <= c) {
                Some(cv) => {
                    let into = pos - cv.clo as usize * cs;
                    let run = ((cv.chi as usize * cs).min(self.data_len)).min(end) - pos;
                    let dst = &mut out[dst_at..dst_at + run];
                    match cv.src {
                        Source::Payload(off) => {
                            let src = off as usize + into;
                            dst.copy_from_slice(&vi.payload[src..src + run]);
                        }
                        Source::Shift { slo, ref_pos } => {
                            self.read_inner(ref_pos, slo as usize * cs + into, dst, fuel - 1)?;
                        }
                    }
                    pos += run;
                }
                None => {
                    // A gap: fixed-duplicate bytes from the previous version.
                    let gap_end = next
                        .map_or(self.data_len, |cv| cv.clo as usize * cs)
                        .min(end);
                    let dst = &mut out[dst_at..gap_end - offset];
                    if version == 0 {
                        // Gaps in version 0 are zero bytes (the initial
                        // buffer before any region wrote it).
                        dst.fill(0);
                    } else {
                        self.read_inner(version - 1, pos, dst, fuel - 1)?;
                    }
                    pos = gap_end;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::tree::{TreeCheckpointer, TreeConfig};
    use crate::methods::Checkpointer;
    use crate::restore::restore_record;
    use gpu_sim::Device;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn record(seed: u64, n_versions: usize) -> (Vec<Vec<u8>>, Vec<Diff>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = 96 * 64;
        let mut data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..9u8)).collect();
        let mut m = TreeCheckpointer::new(Device::a100(), TreeConfig::new(64));
        let mut snaps = Vec::new();
        let mut diffs = Vec::new();
        for _ in 0..n_versions {
            snaps.push(data.clone());
            diffs.push(m.checkpoint(&data).diff);
            // Sparse writes + a block move.
            for _ in 0..20 {
                let at = rng.gen_range(0..len);
                data[at] = rng.gen_range(0..9u8);
            }
            let src = rng.gen_range(0..len / 64 - 4) * 64;
            let dst = rng.gen_range(0..len / 64 - 4) * 64;
            let tmp = data[src..src + 4 * 64].to_vec();
            data[dst..dst + 4 * 64].copy_from_slice(&tmp);
        }
        (snaps, diffs)
    }

    #[test]
    fn whole_version_reads_match_full_restore() {
        let (snaps, diffs) = record(1, 6);
        let reader = RecordReader::build(&diffs).unwrap();
        let full = restore_record(&diffs).unwrap();
        for v in 0..diffs.len() as u32 {
            assert_eq!(reader.read_version(v).unwrap(), full[v as usize]);
            assert_eq!(full[v as usize], snaps[v as usize]);
        }
    }

    #[test]
    fn random_range_reads_match() {
        let (snaps, diffs) = record(2, 5);
        let reader = RecordReader::build(&diffs).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            let v = rng.gen_range(0..diffs.len()) as u32;
            let off = rng.gen_range(0..reader.data_len());
            let len = rng.gen_range(0..=(reader.data_len() - off).min(500));
            let mut out = vec![0u8; len];
            reader.read_at(v, off, &mut out).unwrap();
            assert_eq!(
                out,
                &snaps[v as usize][off..off + len],
                "v{v} off {off} len {len}"
            );
        }
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let (_, diffs) = record(3, 2);
        let reader = RecordReader::build(&diffs).unwrap();
        let mut out = vec![0u8; 16];
        assert!(reader.read_at(5, 0, &mut out).is_err()); // no such version
        assert!(reader.read_at(0, reader.data_len() - 8, &mut out).is_err()); // past end

        // `offset + len` overflows usize: rejected, buffer untouched.
        let mut two = [9u8, 9];
        assert_eq!(
            reader.read_at(0, usize::MAX, &mut two),
            Err(RestoreError::PayloadTruncated { ckpt_id: 0 })
        );
        assert_eq!(two, [9, 9]);
    }

    #[test]
    fn works_for_full_and_basic_records() {
        use crate::methods::basic::BasicCheckpointer;
        use crate::methods::full::FullCheckpointer;
        let (snaps, _) = record(4, 4);
        for kind in 0..2 {
            let mut m: Box<dyn Checkpointer> = if kind == 0 {
                Box::new(FullCheckpointer::new(Device::a100(), 64))
            } else {
                Box::new(BasicCheckpointer::new(Device::a100(), 64))
            };
            let diffs: Vec<_> = snaps.iter().map(|s| m.checkpoint(s).diff).collect();
            let reader = RecordReader::build(&diffs).unwrap();
            for (v, snap) in snaps.iter().enumerate() {
                assert_eq!(
                    &reader.read_version(v as u32).unwrap(),
                    snap,
                    "kind {kind} v{v}"
                );
            }
        }
    }

    #[test]
    fn works_with_compressed_payloads() {
        let mut data = vec![7u8; 64 * 64];
        let cfg = TreeConfig::new(64).with_payload_codec("zstd");
        let mut m = TreeCheckpointer::new(Device::a100(), cfg);
        let d0 = m.checkpoint(&data).diff;
        data[100] = 1;
        let d1 = m.checkpoint(&data).diff;
        let reader = RecordReader::build(&[d0, d1]).unwrap();
        assert_eq!(reader.read_version(1).unwrap(), data);
        let mut byte = [0u8; 1];
        reader.read_at(1, 100, &mut byte).unwrap();
        assert_eq!(byte[0], 1);
    }

    #[test]
    fn corrupt_cyclic_record_exhausts_fuel_instead_of_hanging() {
        use crate::diff::ShiftRegion;
        // Hand-built degenerate record: version 0 where node 1 references
        // node 2 and node 2 references node 1 (cycle).
        let d = Diff {
            kind: MethodKind::Tree,
            ckpt_id: 0,
            data_len: 128,
            chunk_size: 64,
            first_regions: vec![],
            shift_regions: vec![
                ShiftRegion {
                    node: 1,
                    ref_node: 2,
                    ref_ckpt: 0,
                },
                ShiftRegion {
                    node: 2,
                    ref_node: 1,
                    ref_ckpt: 0,
                },
            ],
            bitmap: vec![],
            payload_codec: 0,
            payload: vec![],
        };
        let reader = RecordReader::build(&[d]).unwrap();
        let mut out = vec![0u8; 128];
        assert!(matches!(
            reader.read_at(0, 0, &mut out),
            Err(RestoreError::UnresolvableShifts { .. })
        ));
    }
}
