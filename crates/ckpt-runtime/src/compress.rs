//! Post-dedup object compression for the flush path.
//!
//! De-duplicated records still carry first-occurrence chunk payloads that
//! compress well, and at scale the modeled SSD/PFS write time — not host
//! hashing — dominates end-to-end checkpoint latency. This module shrinks
//! bytes-on-wire *inside the flusher*, off the producer's critical path:
//! the submit fast path stages raw bytes in host memory exactly as before,
//! and the background drain compresses each object on the shared
//! work-stealing pool (a [`ckpt_compress::blocks`] container, so one
//! object fans out across workers) before it hops to the SSD or PFS.
//!
//! # Policy
//!
//! [`CompressionPolicy`] picks the codec per object:
//!
//! * `Off` — codec 0 everywhere; byte-identical to the pre-compression
//!   runtime.
//! * `Fixed(codec)` — every object through one codec, still with the
//!   store fallback when the container would not shrink it.
//! * `Adaptive` — trial-encode the object's first [`SAMPLE_LEN`] bytes
//!   with the candidates (`ZstdLike`, `Lz4Like`, `Cascaded`) and pick the
//!   one maximizing estimated bytes saved per unit of encode cost,
//!   `(1 − ratio) / flops_per_byte` (ties to the earlier entry of
//!   [`ADAPTIVE_CANDIDATES`]) — not simply the best ratio. If the winner's
//!   sample ratio is not under [`STORE_RATIO`], store uncompressed.
//!
//! Adaptive selection is cheap without changing its answer. Candidates are
//! probed cheapest first, and probing stops once a candidate's ceiling
//! score `1 / flops_per_byte` (a ratio of 0, which no real encoding
//! reaches) does not exceed the best score so far: it could not win. When
//! the sample is the whole object (at most [`SAMPLE_LEN`] bytes, so one
//! container block), the winner's probe output *is* the block encoding and
//! the container is written from it instead of compressing the object
//! again.
//!
//! Either way an object whose container fails to shrink below its raw size
//! (frame extension included) is stored with codec 0 — compression can
//! reorder the flush economics but never inflate a tier.

use crate::tier::StoredObject;
use ckpt_compress::blocks::{compress_blocks, write_container, DEFAULT_BLOCK_SIZE};
use ckpt_compress::{codec_by_id, Codec};
use ckpt_dedup::frame::FRAME_EXT_LEN;
use ckpt_telemetry::{Counter, Gauge, Registry};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Sampled prefix per object for adaptive codec selection.
pub const SAMPLE_LEN: usize = 64 * 1024;

// A payload that fits the sample is one container block, so the winning
// probe output is that block's encoding.
const _: () = assert!(SAMPLE_LEN <= DEFAULT_BLOCK_SIZE);

/// Sample compression ratio (compressed/raw) above which adaptive mode
/// stores the object uncompressed: the modeled write-time win would not
/// cover the decode cost on restore.
pub const STORE_RATIO: f64 = 0.95;

/// Objects smaller than this skip selection and compression outright: the
/// frame extension plus container overhead eats the win.
pub const MIN_COMPRESS_LEN: usize = 1024;

/// Candidate codec ids for adaptive selection: ZstdLike (6), Lz4Like (1),
/// Cascaded (3). Equal scores go to the earlier entry; probing runs in
/// ascending `flops_per_byte` order (see [`probe_order`]).
pub const ADAPTIVE_CANDIDATES: [u8; 3] = [6, 1, 3];

/// [`ADAPTIVE_CANDIDATES`] as `(index, codec)`, cheapest encode first.
fn probe_order() -> &'static [(usize, Box<dyn Codec>)] {
    static ORDER: OnceLock<Vec<(usize, Box<dyn Codec>)>> = OnceLock::new();
    ORDER.get_or_init(|| {
        let mut order: Vec<_> = ADAPTIVE_CANDIDATES
            .iter()
            .map(|&id| codec_by_id(id).expect("registered candidate"))
            .enumerate()
            .collect();
        order.sort_by(|a, b| a.1.flops_per_byte().total_cmp(&b.1.flops_per_byte()));
        order
    })
}

/// Per-object codec selection for the flush path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompressionPolicy {
    /// No compression (the pre-compression runtime, byte for byte).
    #[default]
    Off,
    /// One codec for every object (by wire id, see
    /// [`ckpt_compress::codec_by_id`]).
    Fixed(u8),
    /// Sample-based per-object selection among [`ADAPTIVE_CANDIDATES`].
    Adaptive,
}

impl CompressionPolicy {
    /// Parse a CLI/bench spelling: `off`, `adaptive`, or a codec name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" | "none" => Some(CompressionPolicy::Off),
            "adaptive" => Some(CompressionPolicy::Adaptive),
            name => ckpt_compress::codec_id(name).map(CompressionPolicy::Fixed),
        }
    }

    pub fn label(&self) -> String {
        match self {
            CompressionPolicy::Off => "off".into(),
            CompressionPolicy::Adaptive => "adaptive".into(),
            CompressionPolicy::Fixed(id) => codec_by_id(*id)
                .map(|c| c.name().to_string())
                .unwrap_or_else(|| format!("codec{id}")),
        }
    }
}

/// `compress/*` telemetry. Every metric registers lazily on its first
/// event, so runs with compression off (or no compressed frames read)
/// export exactly the pre-existing schema.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `compress/bytes_in` | counter | uncompressed bytes entering the encoder |
/// | `compress/bytes_out` | counter | stored bytes leaving it (incl. store fallbacks) |
/// | `compress/ratio_pct` | gauge | cumulative `100·bytes_out/bytes_in` |
/// | `compress/select_ns` | counter | adaptive sampling time (every probe) |
/// | `compress/encode_ns` | counter | container encode time (pool-parallel); near zero when the container reuses the winning probe |
/// | `compress/decode_ns` | counter | container decode time on reads |
/// | `compress/objects/<codec>` | counter | objects stored per codec (`store` = fallback) |
pub struct CompressMetrics {
    registry: Option<Arc<Registry>>,
    bytes_in: OnceLock<Arc<Counter>>,
    bytes_out: OnceLock<Arc<Counter>>,
    ratio_pct: OnceLock<Arc<Gauge>>,
    select_ns: OnceLock<Arc<Counter>>,
    encode_ns: OnceLock<Arc<Counter>>,
    decode_ns: OnceLock<Arc<Counter>>,
}

impl CompressMetrics {
    pub fn bound(registry: Arc<Registry>) -> Self {
        CompressMetrics {
            registry: Some(registry),
            ..Self::detached()
        }
    }

    /// A sink that counts nothing (chains built without telemetry).
    pub fn detached() -> Self {
        CompressMetrics {
            registry: None,
            bytes_in: OnceLock::new(),
            bytes_out: OnceLock::new(),
            ratio_pct: OnceLock::new(),
            select_ns: OnceLock::new(),
            encode_ns: OnceLock::new(),
            decode_ns: OnceLock::new(),
        }
    }

    fn lazy<'a>(
        &'a self,
        slot: &'a OnceLock<Arc<Counter>>,
        name: &'static str,
    ) -> Option<&'a Arc<Counter>> {
        self.registry
            .as_ref()
            .map(|r| slot.get_or_init(|| r.counter(name)))
    }

    fn on_select(&self, ns: u64) {
        if let Some(c) = self.lazy(&self.select_ns, "compress/select_ns") {
            c.add(ns);
        }
    }

    fn on_encode(&self, codec_label: &str, bytes_in: u64, bytes_out: u64, ns: u64) {
        let Some(reg) = self.registry.as_ref() else {
            return;
        };
        let b_in = self
            .bytes_in
            .get_or_init(|| reg.counter("compress/bytes_in"));
        let b_out = self
            .bytes_out
            .get_or_init(|| reg.counter("compress/bytes_out"));
        b_in.add(bytes_in);
        b_out.add(bytes_out);
        if let Some(c) = self.lazy(&self.encode_ns, "compress/encode_ns") {
            c.add(ns);
        }
        reg.counter(&format!("compress/objects/{codec_label}"))
            .inc();
        let total_in = b_in.get().max(1);
        self.ratio_pct
            .get_or_init(|| reg.gauge("compress/ratio_pct"))
            .set((b_out.get() * 100 / total_in) as i64);
    }

    /// Record one container decode (called from the tier read path).
    pub fn on_decode(&self, ns: u64) {
        if let Some(c) = self.lazy(&self.decode_ns, "compress/decode_ns") {
            c.add(ns);
        }
    }
}

/// The flusher's encoder: applies a [`CompressionPolicy`] to raw staged
/// payloads, producing [`StoredObject`]s ready for the lower tiers.
pub struct CompressionEngine {
    policy: CompressionPolicy,
    metrics: Arc<CompressMetrics>,
}

impl CompressionEngine {
    pub fn new(policy: CompressionPolicy, metrics: Arc<CompressMetrics>) -> Self {
        CompressionEngine { policy, metrics }
    }

    pub fn policy(&self) -> CompressionPolicy {
        self.policy
    }

    pub fn enabled(&self) -> bool {
        self.policy != CompressionPolicy::Off
    }

    /// Encode one raw payload according to the policy. Infallible: any
    /// path that cannot shrink the payload falls back to codec 0.
    pub fn encode(&self, payload: Vec<u8>) -> StoredObject {
        let (codec_id, probe) = match self.policy {
            CompressionPolicy::Off => return StoredObject::raw(payload),
            _ if payload.len() < MIN_COMPRESS_LEN => (None, None),
            CompressionPolicy::Fixed(id) => {
                (Some(id).filter(|id| codec_by_id(*id).is_some()), None)
            }
            CompressionPolicy::Adaptive => match self.select(&payload) {
                Some((id, packed)) => (Some(id), Some(packed)),
                None => (None, None),
            },
        };
        let Some(codec_id) = codec_id else {
            self.metrics
                .on_encode("store", payload.len() as u64, payload.len() as u64, 0);
            return StoredObject::raw(payload);
        };
        let codec = codec_by_id(codec_id).expect("validated codec id");
        let t0 = Instant::now();
        let container = match probe {
            // The sample was the whole payload: one block, already encoded.
            Some(packed) if payload.len() <= SAMPLE_LEN => {
                write_container(&payload, DEFAULT_BLOCK_SIZE, &[packed])
            }
            _ => compress_blocks(&*codec, &payload, DEFAULT_BLOCK_SIZE),
        };
        let ns = t0.elapsed().as_nanos() as u64;
        // Object-level store fallback: the container (plus the frame's
        // uncompressed-length extension) must beat the raw payload.
        if container.len() + FRAME_EXT_LEN >= payload.len() {
            self.metrics
                .on_encode("store", payload.len() as u64, payload.len() as u64, ns);
            return StoredObject::raw(payload);
        }
        self.metrics.on_encode(
            codec.name(),
            payload.len() as u64,
            (container.len() + FRAME_EXT_LEN) as u64,
            ns,
        );
        StoredObject {
            codec: codec_id,
            uncompressed_len: payload.len() as u64,
            payload: container,
        }
    }

    /// Adaptive selection: score `(1 − ratio) / flops_per_byte` — estimated
    /// bytes saved per unit encode cost — on a prefix sample. Returns the
    /// winner with its encoding of the sample, or `None` when storing wins.
    ///
    /// Probes run cheapest first. A sample is never empty and no encoding
    /// of it is empty, so every ratio is above 0 and every score below its
    /// ceiling `1 / flops_per_byte`; once that ceiling is no higher than the
    /// best score, the candidate (and every costlier one after it) loses.
    fn select(&self, payload: &[u8]) -> Option<(u8, Vec<u8>)> {
        let t0 = Instant::now();
        let sample = &payload[..payload.len().min(SAMPLE_LEN)];
        let mut best: Option<(usize, f64, f64, Vec<u8>)> = None; // (index, score, ratio, probe)
        for (index, codec) in probe_order() {
            let cost = codec.flops_per_byte().max(1.0);
            if best.as_ref().is_some_and(|b| 1.0 / cost <= b.1) {
                break;
            }
            let packed = codec.compress(sample);
            let ratio = packed.len() as f64 / sample.len().max(1) as f64;
            let score = (1.0 - ratio) / cost;
            if best
                .as_ref()
                .is_none_or(|b| score > b.1 || (score == b.1 && *index < b.0))
            {
                best = Some((*index, score, ratio, packed));
            }
        }
        self.metrics.on_select(t0.elapsed().as_nanos() as u64);
        best.filter(|b| b.2 < STORE_RATIO)
            .map(|(index, _, _, packed)| (ADAPTIVE_CANDIDATES[index], packed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(policy: CompressionPolicy) -> (CompressionEngine, Arc<Registry>) {
        let reg = Arc::new(Registry::new());
        let metrics = Arc::new(CompressMetrics::bound(Arc::clone(&reg)));
        (CompressionEngine::new(policy, metrics), reg)
    }

    fn counters(vals: &[u32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    /// The exhaustive selection the pruned one must agree with: every
    /// candidate probed in [`ADAPTIVE_CANDIDATES`] order, strict `>` on the
    /// score.
    fn exhaustive_select(payload: &[u8]) -> Option<u8> {
        let sample = &payload[..payload.len().min(SAMPLE_LEN)];
        let mut best: Option<(u8, f64, f64)> = None; // (id, score, ratio)
        for id in ADAPTIVE_CANDIDATES {
            let codec = codec_by_id(id).expect("registered candidate");
            let packed = codec.compress(sample);
            let ratio = packed.len() as f64 / sample.len().max(1) as f64;
            let score = (1.0 - ratio) / codec.flops_per_byte().max(1.0);
            if best.is_none_or(|(_, s, _)| score > s) {
                best = Some((id, score, ratio));
            }
        }
        best.filter(|&(_, _, ratio)| ratio < STORE_RATIO)
            .map(|(id, _, _)| id)
    }

    /// What adaptive `encode` stored before pruning and probe reuse: the
    /// exhaustive choice through `compress_blocks`, with both fallbacks.
    fn exhaustive_encode(payload: &[u8]) -> (u8, Vec<u8>) {
        let Some(id) = exhaustive_select(payload).filter(|_| payload.len() >= MIN_COMPRESS_LEN)
        else {
            return (0, payload.to_vec());
        };
        let container = compress_blocks(&*codec_by_id(id).unwrap(), payload, DEFAULT_BLOCK_SIZE);
        if container.len() + FRAME_EXT_LEN >= payload.len() {
            (0, payload.to_vec())
        } else {
            (id, container)
        }
    }

    #[test]
    fn pruned_selection_and_reused_probes_store_identical_bytes() {
        let words = |len: usize, f: &dyn Fn(u32) -> u32| -> Vec<u8> {
            (0..len.div_ceil(4) as u32)
                .flat_map(|i| f(i).to_le_bytes())
                .take(len)
                .collect()
        };
        let mixed = |len: usize| -> Vec<u8> {
            let mut d = words(len / 3, &|i| i / 5);
            d.extend(std::iter::repeat_n(0xAB, len / 3));
            d.extend(noise(len - d.len(), len as u64 | 1));
            d
        };
        // Repeats at odd periods (an LZ win, not a lane win).
        let text = |len: usize| -> Vec<u8> {
            (0..)
                .flat_map(|i: u32| format!("rank {} ckpt {} ok; ", i % 37, i % 11).into_bytes())
                .take(len)
                .collect()
        };
        // No repeats but skewed bytes (only the entropy stage wins).
        let skewed = |len: usize| -> Vec<u8> {
            noise(len, 0xfeed)
                .iter()
                .map(|&b| b'a' + (b & 15))
                .collect()
        };
        // Counter blocks between copies of one noise block: cascaded
        // compresses it to ~60% and lz4 much further, so the winner is the
        // second probe and pruning must not skip it.
        let blend = |len: usize| -> Vec<u8> {
            let block = noise(1536, 0xb1e2d);
            let mut d = Vec::with_capacity(len + 2560);
            while d.len() < len {
                d.extend(words(1024, &|i| i / 16 + d.len() as u32));
                d.extend_from_slice(&block);
            }
            d.truncate(len);
            d
        };
        let (eng, _reg) = engine(CompressionPolicy::Adaptive);
        let mut picked = std::collections::BTreeSet::new();
        for len in [
            MIN_COMPRESS_LEN - 1,
            MIN_COMPRESS_LEN,
            MIN_COMPRESS_LEN + 3,
            5_000,
            SAMPLE_LEN - 1,
            SAMPLE_LEN,
            SAMPLE_LEN + 1,
            DEFAULT_BLOCK_SIZE + 7,
            2 * DEFAULT_BLOCK_SIZE + SAMPLE_LEN,
        ] {
            for (kind, data) in [
                ("noise", noise(len, 0x5eed ^ len as u64)),
                ("counters", words(len, &|i| i / 9)),
                ("slow counters", words(len, &|i| 1_000 + i / 200)),
                (
                    "steps",
                    words(len, &|i| i.wrapping_mul(2_654_435_761) >> 28),
                ),
                ("runs", (0..len).map(|i| (i / 700) as u8).collect()),
                ("mixed", mixed(len)),
                ("text", text(len)),
                ("skewed", skewed(len)),
                ("blend", blend(len)),
            ] {
                let chosen = eng.select(&data).map(|(id, _)| id);
                assert_eq!(chosen, exhaustive_select(&data), "{kind}, len {len}");
                picked.insert(chosen);
                let (codec, payload) = exhaustive_encode(&data);
                let obj = eng.encode(data.clone());
                assert_eq!(obj.codec, codec, "{kind}, len {len}");
                assert!(
                    obj.payload == payload,
                    "{kind}, len {len}: container differs"
                );
                assert_eq!(obj.decode().unwrap(), data);
            }
        }
        // The inputs exercise store and every candidate.
        assert_eq!(
            picked,
            [None, Some(1), Some(3), Some(6)].into(),
            "{picked:?}"
        );
    }

    #[test]
    fn off_policy_is_a_passthrough_with_no_metrics() {
        let (eng, reg) = engine(CompressionPolicy::Off);
        let data = counters(&(0..100_000).map(|i| i / 9).collect::<Vec<_>>());
        let obj = eng.encode(data.clone());
        assert_eq!(obj.codec, 0);
        assert_eq!(obj.payload, data);
        // Lazy metrics: the schema must not grow when compression is off.
        assert!(!reg.snapshot_json().contains("compress/"));
    }

    #[test]
    fn fixed_policy_compresses_and_counts() {
        let (eng, reg) = engine(CompressionPolicy::Fixed(6));
        let data = counters(&(0..100_000).map(|i| i / 9).collect::<Vec<_>>());
        let obj = eng.encode(data.clone());
        assert_eq!(obj.codec, 6);
        assert_eq!(obj.uncompressed_len, data.len() as u64);
        assert!(obj.payload.len() < data.len() / 2);
        assert_eq!(obj.decode().unwrap(), data);
        let json = reg.snapshot_json();
        for key in [
            "compress/bytes_in",
            "compress/bytes_out",
            "compress/ratio_pct",
            "compress/encode_ns",
            "compress/objects/zstd",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(reg.gauge("compress/ratio_pct").get() < 100);
    }

    #[test]
    fn incompressible_objects_fall_back_to_store() {
        let (eng, reg) = engine(CompressionPolicy::Fixed(6));
        let noise = noise(50_000, 0x1234_5678);
        let obj = eng.encode(noise.clone());
        assert_eq!(obj.codec, 0, "noise must not be stored compressed");
        assert_eq!(obj.payload, noise);
        assert_eq!(reg.counter("compress/objects/store").get(), 1);
    }

    #[test]
    fn adaptive_picks_a_codec_on_counters_and_store_on_noise() {
        let (eng, _reg) = engine(CompressionPolicy::Adaptive);
        let data = counters(&(0..200_000).map(|i| i / 11).collect::<Vec<_>>());
        let obj = eng.encode(data.clone());
        assert_ne!(obj.codec, 0, "counter lanes are compressible");
        assert_eq!(obj.decode().unwrap(), data);

        let noise = noise(200_000, 0x9e37_79b9);
        let obj = eng.encode(noise.clone());
        assert_eq!(obj.codec, 0);
        assert_eq!(obj.payload, noise);
    }

    #[test]
    fn tiny_objects_skip_compression() {
        let (eng, reg) = engine(CompressionPolicy::Adaptive);
        let obj = eng.encode(vec![0u8; MIN_COMPRESS_LEN - 1]);
        assert_eq!(obj.codec, 0);
        assert_eq!(reg.counter("compress/objects/store").get(), 1);
        assert_eq!(reg.counter("compress/select_ns").get(), 0);
    }

    #[test]
    fn policy_parsing_round_trips() {
        assert_eq!(
            CompressionPolicy::parse("off"),
            Some(CompressionPolicy::Off)
        );
        assert_eq!(
            CompressionPolicy::parse("adaptive"),
            Some(CompressionPolicy::Adaptive)
        );
        assert_eq!(
            CompressionPolicy::parse("zstd"),
            Some(CompressionPolicy::Fixed(6))
        );
        assert_eq!(CompressionPolicy::parse("nope"), None);
        assert_eq!(CompressionPolicy::Fixed(6).label(), "zstd");
        assert_eq!(CompressionPolicy::Adaptive.label(), "adaptive");
    }
}
