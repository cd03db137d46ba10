//! Deflate-like and Zstd-like codecs: LZ77 parsing plus a canonical-Huffman
//! entropy stage over the literal stream.
//!
//! Both share one container format and differ only in their match-finder
//! tuning, mirroring the real algorithms' relationship (Zstd searches a much
//! larger window more thoroughly, so it finds more redundancy at higher
//! compute cost):
//!
//! ```text
//! varint raw_len | varint n_seq
//! varint lit_block_len | huffman(literal bytes)
//! per sequence: varint lit_len, varint match_len, varint offset
//! ```

use crate::huffman;
use crate::lz::{copy_match, find_sequences, get_varint, put_varint, MatchConfig};
use crate::{Codec, CorruptStream};

fn compress_with(cfg: &MatchConfig, data: &[u8]) -> Vec<u8> {
    let seqs = find_sequences(data, cfg);

    // Literal stream: concatenation of all sequences' literal runs.
    let mut literals = Vec::new();
    for s in &seqs {
        literals.extend_from_slice(&data[s.lit_start..s.lit_start + s.lit_len]);
    }
    let lit_block = huffman::encode(&literals);

    let mut out = Vec::with_capacity(lit_block.len() + seqs.len() * 4 + 16);
    put_varint(&mut out, data.len() as u64);
    put_varint(&mut out, seqs.len() as u64);
    put_varint(&mut out, lit_block.len() as u64);
    out.extend_from_slice(&lit_block);
    for s in &seqs {
        put_varint(&mut out, s.lit_len as u64);
        put_varint(&mut out, s.match_len as u64);
        put_varint(&mut out, s.offset as u64);
    }
    out
}

fn decompress_with(data: &[u8]) -> Result<Vec<u8>, CorruptStream> {
    let mut pos = 0usize;
    let raw_len = get_varint(data, &mut pos)? as usize;
    let n_seq = get_varint(data, &mut pos)? as usize;
    let lit_block_len = get_varint(data, &mut pos)? as usize;
    if pos + lit_block_len > data.len() {
        return Err(CorruptStream("literal block truncated"));
    }
    let literals = huffman::decode(&data[pos..pos + lit_block_len])?;
    pos += lit_block_len;

    let mut out = Vec::with_capacity(raw_len);
    let mut lit_pos = 0usize;
    for _ in 0..n_seq {
        let lit_len = get_varint(data, &mut pos)? as usize;
        let match_len = get_varint(data, &mut pos)? as usize;
        let offset = get_varint(data, &mut pos)? as usize;
        if lit_pos + lit_len > literals.len() {
            return Err(CorruptStream("literal stream exhausted"));
        }
        out.extend_from_slice(&literals[lit_pos..lit_pos + lit_len]);
        lit_pos += lit_len;
        if match_len > 0 {
            if offset == 0 || offset > out.len() {
                return Err(CorruptStream("offset out of range"));
            }
            if out.len() + match_len > raw_len {
                return Err(CorruptStream("match overruns block"));
            }
            copy_match(&mut out, offset, match_len);
        }
    }
    if out.len() != raw_len {
        return Err(CorruptStream("length mismatch"));
    }
    Ok(out)
}

/// Deflate-like codec (32 KiB window LZSS + Huffman literals).
#[derive(Debug, Clone, Copy)]
pub struct DeflateLike {
    cfg: MatchConfig,
}

impl Default for DeflateLike {
    fn default() -> Self {
        DeflateLike {
            cfg: MatchConfig::deflate(),
        }
    }
}

impl Codec for DeflateLike {
    fn name(&self) -> &'static str {
        "deflate"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        compress_with(&self.cfg, data)
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CorruptStream> {
        decompress_with(data)
    }

    fn flops_per_byte(&self) -> f64 {
        20.0
    }
}

/// Zstd-like codec (1 MiB window, deep chains + Huffman literals).
#[derive(Debug, Clone, Copy)]
pub struct ZstdLike {
    cfg: MatchConfig,
}

impl Default for ZstdLike {
    fn default() -> Self {
        ZstdLike {
            cfg: MatchConfig::zstd(),
        }
    }
}

impl Codec for ZstdLike {
    fn name(&self) -> &'static str {
        "zstd"
    }

    fn compress(&self, data: &[u8]) -> Vec<u8> {
        compress_with(&self.cfg, data)
    }

    fn decompress(&self, data: &[u8]) -> Result<Vec<u8>, CorruptStream> {
        decompress_with(data)
    }

    fn flops_per_byte(&self) -> f64 {
        12.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn text_round_trip_both() {
        let data =
            b"the paper proposes a merkle tree based incremental checkpointing method ".repeat(200);
        for codec in [&DeflateLike::default() as &dyn Codec, &ZstdLike::default()] {
            let packed = codec.compress(&data);
            assert!(
                packed.len() < data.len() / 8,
                "{}: {}",
                codec.name(),
                packed.len()
            );
            assert_eq!(codec.decompress(&packed).unwrap(), data);
        }
    }

    #[test]
    fn zstd_beats_deflate_beyond_deflate_window() {
        // Redundancy at > 32 KiB distance is invisible to the deflate-like
        // window but visible to the zstd-like one.
        let block: Vec<u8> = (0..48_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 9) as u8)
            .collect();
        let mut data = block.clone();
        data.extend_from_slice(&block);
        let d = DeflateLike::default().compress(&data).len();
        let z = ZstdLike::default().compress(&data).len();
        assert!(z < d * 3 / 4, "zstd {z} vs deflate {d}");
        assert_eq!(
            ZstdLike::default()
                .decompress(&ZstdLike::default().compress(&data))
                .unwrap(),
            data
        );
    }

    #[test]
    fn entropy_stage_helps_on_skewed_literals() {
        // Incompressible by LZ (no repeats) but highly skewed bytes.
        let data: Vec<u8> = (0..30_000u32)
            .map(|i| {
                let r = i.wrapping_mul(2654435761) >> 24;
                if r < 200 {
                    b'a'
                } else {
                    (r % 256) as u8
                }
            })
            .collect();
        let packed = DeflateLike::default().compress(&data);
        assert!(packed.len() < data.len() * 2 / 3, "packed {}", packed.len());
        assert_eq!(DeflateLike::default().decompress(&packed).unwrap(), data);
    }

    #[test]
    fn corrupt_container_rejected() {
        let data = b"abc".repeat(100);
        let packed = DeflateLike::default().compress(&data);
        assert!(DeflateLike::default().decompress(&packed[..5]).is_err());
        let mut broken = packed.clone();
        let n = broken.len();
        broken.truncate(n - 2);
        assert!(DeflateLike::default().decompress(&broken).is_err());
    }

    proptest! {
        #[test]
        fn round_trip_any(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            for codec in [&DeflateLike::default() as &dyn Codec, &ZstdLike::default()] {
                let packed = codec.compress(&data);
                prop_assert_eq!(codec.decompress(&packed).unwrap(), data.clone());
            }
        }

        #[test]
        fn round_trip_structured(vals in prop::collection::vec(0u32..50, 0..1024)) {
            let data: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
            for codec in [&DeflateLike::default() as &dyn Codec, &ZstdLike::default()] {
                let packed = codec.compress(&data);
                prop_assert_eq!(codec.decompress(&packed).unwrap(), data.clone());
            }
        }
    }
}
