//! Serial replay of one epoch through each layer's public functions, in
//! the flusher's order, so off-path time can be attributed per layer:
//! hash, checkpoint, encode, rank-dedup encode, host store, host read,
//! compress, redundancy encode, SSD store, SSD read, PFS store, then the
//! restores (rank-loss rebuild, record fetch, single-pass resolve/copy).
//!
//! Every step runs inside its own span, so a step's self time is its span.
//! The record fetch (`collect_record`) verifies, decodes and resolves
//! inside the program, which has no hook to split it; container decode
//! time is measured by a separate `StoredObject::decode` pass instead.
//! The spans must add up to the replay's wall time within
//! [`RECONCILE_BOUND`].

use crate::inputs::Sequence;
use crate::stats::Samples;
use crate::workload::{decode_pass, Spec, Tally, CHUNK};
use ckpt_dedup::prelude::*;
use ckpt_dedup::Diff;
use ckpt_hash::{Hasher128, Murmur3};
use ckpt_runtime::{
    collect_record, CompressMetrics, CompressionEngine, RankDedupConfig, RankDedupEngine,
    RankDedupMetrics, RedundancyMetrics, RedundancyPolicy, RedundancyStore, TierChain,
};
use ckpt_telemetry::Registry;
use gpu_sim::Device;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Largest share of the replay's wall time that may fall outside every
/// layer span before the per-layer attribution counts as failed.
pub const RECONCILE_BOUND: f64 = 0.05;

#[derive(Default)]
struct Spans(BTreeMap<&'static str, f64>);

impl Spans {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        *self.0.entry(name).or_default() += t.elapsed().as_secs_f64() * 1e3;
        out
    }

    fn add(&mut self, name: &'static str, ms: f64) {
        *self.0.entry(name).or_default() += ms;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Replay one epoch of `spec` serially; per-layer self times (ms per
/// replayed epoch) and the reconciliation land in `trace`. Restores are
/// byte-compared and counted in `tally` like any other.
pub fn replay(spec: &Spec, seqs: &[Sequence], trace: &mut Samples, tally: &mut Tally) -> f64 {
    let registry = Arc::new(Registry::new());
    let mut tiers = TierChain::new();
    let store = (spec.redundancy != RedundancyPolicy::Off).then(|| {
        Arc::new(RedundancyStore::new(
            spec.redundancy,
            RedundancyMetrics::bound(Arc::clone(&registry)),
        ))
    });
    if let Some(s) = &store {
        tiers.attach_redundancy(Arc::clone(s));
    }
    let engine = spec.rank_dedup.then(|| {
        RankDedupEngine::new(
            RankDedupConfig {
                ranks: spec.ranks,
                chunk_len: CHUNK,
            },
            RankDedupMetrics::bound(Arc::clone(&registry)),
        )
    });
    if let Some(e) = &engine {
        tiers.attach_rank_dedup(Arc::clone(e.index()));
    }
    let compressor = CompressionEngine::new(
        spec.compression,
        Arc::new(CompressMetrics::bound(Arc::clone(&registry))),
    );
    let mut methods: Vec<TreeCheckpointer> = (0..spec.ranks)
        .map(|_| TreeCheckpointer::new(Device::a100(), TreeConfig::new(CHUNK)))
        .collect();
    let mut bufs: Vec<Vec<u8>> = seqs.iter().map(Sequence::start).collect();
    let device = Device::a100();
    let mut sp = Spans::default();
    let mut hashed_bytes = 0u64;

    let t0 = Instant::now();
    for k in 0..spec.n_ckpts {
        for (r, method) in methods.iter_mut().enumerate() {
            let id = (r as u32, k as u32);
            let buf = &mut bufs[r];
            if k > 0 {
                sp.time("replay.advance", || seqs[r].advance(buf, k));
            }
            sp.time("ckpt-hash.murmur3", || black_box(Murmur3.hash(buf)));
            hashed_bytes += buf.len() as u64;
            let out = sp.time("ckpt-dedup.checkpoint", || method.checkpoint(buf));
            let bytes = sp.time("ckpt-dedup.encode", || out.diff.encode());
            let bytes = sp.time("rankdedup.encode", || match &engine {
                Some(e) => e.encode(id, bytes),
                None => bytes,
            });
            let staged = sp.time("runtime.submit", || tiers.host.put(id, bytes));
            tally.op(staged.is_ok(), || {
                format!("{}: replay host put of {id:?} refused", spec.name)
            });
            let Some(raw) = sp.time("tier.verify", || {
                tiers.host.inspect_object(id).into_object()
            }) else {
                continue;
            };
            let obj = sp.time("compress.encode", || compressor.encode(raw.payload));
            sp.time("redundancy.encode", || {
                if let Some(s) = &store {
                    s.encode_member(id, &obj);
                }
            });
            sp.time("tier.store", || {
                let _ = tiers.ssd.store_object(id, obj);
                tiers.host.evict(id);
            });
            let Some(obj) = sp.time("tier.verify", || tiers.ssd.inspect_object(id).into_object())
            else {
                continue;
            };
            sp.time("tier.store", || {
                let _ = tiers.pfs.store_object(id, obj);
                tiers.ssd.evict(id);
            });
        }
    }
    if let Some(e) = &engine {
        sp.time("rankdedup.quiesce", || e.quiesce());
    }
    let last = spec.n_ckpts as u32 - 1;
    if let Some(lost) = spec.lost_rank {
        sp.time("replay.wipe", || {
            tiers.host.wipe_rank(lost);
            tiers.ssd.wipe_rank(lost);
            tiers.pfs.wipe_rank(lost);
        });
    }
    let rebuilt = sp.time("redundancy.reconstruct", || {
        spec.lost_rank
            .map(|lost| tiers.locate((lost, last)).is_some())
    });
    if let Some(ok) = rebuilt {
        tally.op(ok, || {
            format!(
                "{}: replay could not rebuild the lost rank's last object",
                spec.name
            )
        });
    }
    for rank in 0..spec.ranks {
        let t = Instant::now();
        let decode_ms = decode_pass(&tiers, rank);
        sp.add("compress.decode", decode_ms);
        sp.add(
            "replay.decode_pass",
            t.elapsed().as_secs_f64() * 1e3 - decode_ms,
        );
        let record = sp.time("restore.fetch", || collect_record(&tiers, rank));
        let restored = sp.time("restore.resolve_copy", || {
            let (base, encoded) = record.ok()?;
            let diffs = encoded
                .iter()
                .map(|e| Diff::decode(e))
                .collect::<Result<Vec<_>, _>>()
                .ok()?;
            restore_latest_single_pass(&device, base, &diffs).ok()
        });
        let ok = sp.time("replay.check", || {
            restored.is_some_and(|(data, _)| data == bufs[rank as usize])
        });
        tally.op(ok, || {
            format!("{}: replay restore of rank {rank} differs", spec.name)
        });
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let attributed: f64 = sp.0.values().sum();
    let unattributed = (wall_ms - attributed) / wall_ms;
    let murmur_ms = sp.get("ckpt-hash.murmur3");
    trace.push(
        "ckpt-hash.murmur3_gbps",
        hashed_bytes as f64 / (murmur_ms / 1e3) / 1e9,
    );
    for (metric, span) in [
        ("rankdedup.encode_ms", "rankdedup.encode"),
        ("runtime.submit_ms", "runtime.submit"),
        ("compress.encode_ms", "compress.encode"),
        ("redundancy.encode_ms", "redundancy.encode"),
        ("redundancy.reconstruct_ms", "redundancy.reconstruct"),
        ("tier.store_ms", "tier.store"),
        ("tier.verify_ms", "tier.verify"),
        ("restore.fetch_ms", "restore.fetch"),
        ("restore.resolve_copy_ms", "restore.resolve_copy"),
    ] {
        trace.push(metric, sp.get(span));
    }
    trace.push("replay.wall_ms", wall_ms);
    trace.push("replay.unattributed_frac", unattributed);
    unattributed
}
