//! The three workloads and the epoch that drives one through the public
//! API the way an application does: `Checkpointer::checkpoint`, then
//! `CheckpointPipeline::submit_with` with `Diff::encode` in the closure,
//! into an `AsyncRuntime` with `time_scale = 0`, then durability, checks
//! and restores.

use crate::inputs::{gdv_sequence, Sequence};
use crate::stats::Samples;
use ckpt_dedup::prelude::*;
use ckpt_graph::PaperGraph;
use ckpt_runtime::tier::ObjectId;
use ckpt_runtime::{
    restore_rank_latest_parallel, AsyncRuntime, CheckpointPipeline, CompressionPolicy, FaultKind,
    FaultPlan, ObjectStatus, RankDedupConfig, RankDedupEngine, RankDedupMetrics, RedundancyPolicy,
    TierChain,
};
use ckpt_telemetry::Registry;
use gpu_sim::Device;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Tree chunk size and rank-dedup grid, in bytes (the paper's 128 B).
pub const CHUNK: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GdvTree,
    ClusterStack,
    Restart,
}

/// One workload's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub ranks: u32,
    pub n_ckpts: usize,
    pub compression: CompressionPolicy,
    pub redundancy: RedundancyPolicy,
    pub rank_dedup: bool,
    /// Rank whose host, SSD and PFS copies are wiped after the drain; it
    /// must come back from its redundancy group.
    pub lost_rank: Option<u32>,
    /// Test-sized inputs.
    pub tiny: bool,
    /// Flip one bit of the second object stored on the PFS in every epoch
    /// (the correctness gate must count it as a failure).
    pub pfs_bitflip: bool,
}

pub const NAMES: [&str; 3] = ["gdv-tree", "cluster-stack", "restart"];

impl Spec {
    pub fn named(name: &str, tiny: bool) -> Option<Spec> {
        let base = Spec {
            kind: Kind::GdvTree,
            name: "gdv-tree",
            ranks: 1,
            n_ckpts: if tiny { 6 } else { 24 },
            compression: CompressionPolicy::Off,
            redundancy: RedundancyPolicy::Off,
            rank_dedup: false,
            lost_rank: None,
            tiny,
            pfs_bitflip: false,
        };
        Some(match name {
            "gdv-tree" => base,
            "cluster-stack" => Spec {
                kind: Kind::ClusterStack,
                name: "cluster-stack",
                ranks: 4,
                n_ckpts: if tiny { 4 } else { 12 },
                compression: CompressionPolicy::Adaptive,
                redundancy: RedundancyPolicy::Xor { group_size: 4 },
                rank_dedup: true,
                lost_rank: Some(0),
                ..base
            },
            "restart" => Spec {
                kind: Kind::Restart,
                name: "restart",
                n_ckpts: if tiny { 8 } else { 32 },
                compression: CompressionPolicy::Adaptive,
                ..base
            },
            _ => return None,
        })
    }

    /// Per-rank snapshot sequences generated from `seed`.
    ///
    /// `gdv-tree` and `restart`: MessageRace, ~80k vertices, 23.4 MB per
    /// snapshot (nearly 3x the 8 MiB of L2 on two cores). `cluster-stack`:
    /// per rank a chunk-aligned shared MessageRace region (1.75 MB,
    /// identical on every rank) plus a private AsiaOsm tail (0.9 MB) from
    /// a per-rank seed, so 2.6 MB per rank and 10.5 MB per checkpoint step.
    pub fn generate(&self, seed: u64) -> Vec<Sequence> {
        let scale = |full: usize, tiny: usize| if self.tiny { tiny } else { full };
        match self.kind {
            Kind::GdvTree | Kind::Restart => vec![gdv_sequence(
                PaperGraph::MessageRace,
                scale(80_000, 1_500),
                self.n_ckpts,
                seed,
            )],
            Kind::ClusterStack => {
                let shared = gdv_sequence(
                    PaperGraph::MessageRace,
                    scale(6_000, 600),
                    self.n_ckpts,
                    seed,
                );
                (0..self.ranks as u64)
                    .map(|r| {
                        let tail = gdv_sequence(
                            PaperGraph::AsiaOsm,
                            scale(3_000, 300),
                            self.n_ckpts,
                            seed.wrapping_add(101 * (r + 1)),
                        );
                        Sequence::concat(&[&shared, &tail], CHUNK)
                    })
                    .collect()
            }
        }
    }

    /// Ranks restored normally at epoch end (all but the lost one).
    fn surviving_ranks(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.ranks).filter(move |r| Some(*r) != self.lost_rank)
    }

    /// A fresh runtime configured for this workload, plus its registry.
    pub fn runtime(&self) -> Arc<AsyncRuntime> {
        let registry = Arc::new(Registry::new());
        let engine = self.rank_dedup.then(|| {
            RankDedupEngine::new(
                RankDedupConfig {
                    ranks: self.ranks,
                    chunk_len: CHUNK,
                },
                RankDedupMetrics::bound(Arc::clone(&registry)),
            )
        });
        let tiers = if self.pfs_bitflip {
            TierChain::with_faults(
                FaultPlan::builder()
                    .on_put("pfs", 1, FaultKind::BitFlip { bit: 4099 })
                    .build(),
            )
        } else {
            TierChain::new()
        };
        Arc::new(AsyncRuntime::with_rank_dedup(
            tiers,
            0.0,
            registry,
            self.compression,
            self.redundancy,
            engine,
        ))
    }
}

/// Ops attempted and failed, with a printed reason per failure. Ops are
/// checkpoints submitted and restores.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(what());
        }
    }
}

/// What one write epoch leaves behind.
pub struct Written {
    pub rt: Arc<AsyncRuntime>,
    /// Each rank's final snapshot (what a restore must return).
    pub finals: Vec<Vec<u8>>,
    /// Seconds from the first `checkpoint` until every object is durable
    /// (plus rank-dedup quiesce and redundancy durability when on).
    pub durable_s: f64,
    /// Uncompressed snapshot bytes checkpointed this epoch.
    pub logical_bytes: u64,
    /// Checkpoints submitted this epoch.
    pub submitted: u64,
    /// Submissions the pipeline aborted.
    pub aborted: u64,
    /// Submitted objects that failed a check, with the first reason.
    pub bad: BTreeMap<ObjectId, String>,
}

impl Written {
    /// Logical bytes over bytes resident on the PFS and group tier.
    pub fn stored_ratio(&self) -> f64 {
        let tiers = self.rt.tiers();
        let group = tiers
            .redundancy()
            .map_or(0, |r| r.group_tier().used_bytes());
        self.logical_bytes as f64 / (tiers.pfs.used_bytes() + group).max(1) as f64
    }

    /// Count this epoch's checkpoint ops into `tally`: one per submission,
    /// failed when aborted, undrainable or not recovered as `Verified`.
    pub fn settle(&mut self, spec: &Spec, tally: &mut Tally) {
        tally.attempted += self.submitted;
        let failed = (self.aborted + self.bad.len() as u64).min(self.submitted);
        tally.failed += failed;
        if self.aborted > 0 {
            tally.reasons.push(format!(
                "{}: {} submissions aborted",
                spec.name, self.aborted
            ));
        }
        tally
            .reasons
            .extend(std::mem::take(&mut self.bad).into_values());
        self.submitted = 0;
        self.aborted = 0;
    }

    pub fn shutdown(self) {
        if let Ok(rt) = Arc::try_unwrap(self.rt) {
            rt.shutdown();
        }
    }
}

/// Samples of one epoch's end-to-end quantities.
pub const BLOCK_MS: &str = "ckpt_block_ms";
pub const DURABLE_GBPS: &str = "durable_gbps";
pub const RESTORE_MS: &str = "restore_ms";
pub const RANK_LOSS_RESTORE_MS: &str = "rank_loss_restore_ms";
pub const STORED_RATIO: &str = "stored_ratio";

/// Checkpoint every snapshot of every rank, checkpoint-major, through one
/// pipeline into a fresh runtime, and wait until all of it is durable.
/// With `trace`, spans around each public call land in it.
pub fn write_epoch(
    spec: &Spec,
    seqs: &[Sequence],
    e2e: &mut Samples,
    mut trace: Option<&mut Samples>,
) -> Written {
    let rt = spec.runtime();
    let devices: Vec<Device> = (0..spec.ranks).map(|_| Device::a100()).collect();
    let mut methods: Vec<TreeCheckpointer> = devices
        .iter()
        .map(|d| TreeCheckpointer::new(d.clone(), TreeConfig::new(CHUNK)))
        .collect();
    let mut bufs: Vec<Vec<u8>> = seqs.iter().map(Sequence::start).collect();
    let encode_ms: Arc<Mutex<Vec<f64>>> = Arc::default();
    let pipe = CheckpointPipeline::new(Arc::clone(&rt));
    let mut ids = Vec::new();
    let mut logical_bytes = 0u64;
    let (mut hashed_chunks, mut changed_chunks, mut diff_bytes) = (0u64, 0u64, 0u64);

    let t0 = Instant::now();
    for k in 0..spec.n_ckpts {
        for (r, method) in methods.iter_mut().enumerate() {
            if k > 0 {
                seqs[r].advance(&mut bufs[r], k);
            }
            let id = (r as u32, k as u32);
            let tb = Instant::now();
            let out = method.checkpoint(&bufs[r]);
            let t_ckpt = tb.elapsed().as_secs_f64() * 1e3;
            let diff = out.diff;
            let ts = Instant::now();
            if trace.is_some() {
                let times = Arc::clone(&encode_ms);
                pipe.submit_with(
                    id.0,
                    id.1,
                    Box::new(move || {
                        let te = Instant::now();
                        let bytes = diff.encode();
                        let ms = te.elapsed().as_secs_f64() * 1e3;
                        times.lock().expect("encode timing lock").push(ms);
                        bytes
                    }),
                );
            } else {
                pipe.submit_with(id.0, id.1, Box::new(move || diff.encode()));
            }
            let t_submit = ts.elapsed().as_secs_f64() * 1e3;
            e2e.push(BLOCK_MS, tb.elapsed().as_secs_f64() * 1e3);
            ids.push(id);
            let s = out.stats;
            logical_bytes += s.uncompressed_bytes;
            let n_chunks = s.uncompressed_bytes.div_ceil(CHUNK as u64);
            hashed_chunks += n_chunks;
            changed_chunks += n_chunks - s.n_fixed_chunks.min(n_chunks);
            diff_bytes += s.stored_bytes;
            if let Some(t) = trace.as_deref_mut() {
                t.push("ckpt-dedup.checkpoint_ms", t_ckpt);
                t.push("pipeline.enqueue_wait_ms", t_submit);
                t.push("gpu-sim.checkpoint_modeled_ms", s.modeled_sec * 1e3);
                for stage in &out.breakdown.stages {
                    if let Some(name) = reported_stage(stage.name) {
                        t.push(name, stage.measured_sec * 1e3);
                    }
                }
            }
        }
    }
    let td = Instant::now();
    rt.wait_durable(&ids);
    let drain_ms = td.elapsed().as_secs_f64() * 1e3;
    rt.wait_redundancy_durable(&ids);
    let tq = Instant::now();
    if let Some(engine) = rt.rank_dedup() {
        engine.quiesce();
    }
    let quiesce_ms = tq.elapsed().as_secs_f64() * 1e3;
    let durable_s = t0.elapsed().as_secs_f64();

    let pstats = pipe.close();
    let bad = rt
        .undrainable()
        .into_iter()
        .map(|id| (id, format!("{}: object {id:?} is undrainable", spec.name)))
        .collect();
    let written = Written {
        rt,
        finals: bufs,
        durable_s,
        logical_bytes,
        submitted: ids.len() as u64,
        aborted: pstats.aborted,
        bad,
    };
    e2e.push(DURABLE_GBPS, logical_bytes as f64 / durable_s / 1e9);
    e2e.push(STORED_RATIO, written.stored_ratio());

    if let Some(t) = trace {
        let tiers = written.rt.tiers();
        let reg = written.rt.telemetry();
        let counter = |name: &str| reg.counter(name).get() as f64;
        t.extend(
            "ckpt-dedup.encode_ms",
            encode_ms.lock().expect("encode timing lock").drain(..),
        );
        t.push(
            "ckpt-dedup.changed_chunk_frac",
            changed_chunks as f64 / hashed_chunks.max(1) as f64,
        );
        t.push("ckpt-dedup.diff_bytes", diff_bytes as f64);
        t.push("runtime.drain_wait_ms", drain_ms);
        t.push("rankdedup.quiesce_ms", quiesce_ms);
        t.push("rankdedup.remote_refs", counter("rankdedup/remote_refs"));
        t.push("rankdedup.orphans", counter("rankdedup/orphans"));
        let bytes_in = counter("compress/bytes_in");
        t.push(
            "compress.out_frac",
            if bytes_in > 0.0 {
                counter("compress/bytes_out") / bytes_in
            } else {
                1.0
            },
        );
        t.push(
            "compress.raw_fallback_frac",
            if spec.compression == CompressionPolicy::Off {
                0.0
            } else {
                counter("compress/objects/store") / ids.len() as f64
            },
        );
        t.push(
            "redundancy.group_bytes",
            tiers
                .redundancy()
                .map_or(0, |r| r.group_tier().used_bytes()) as f64,
        );
        t.push(
            "tier.bytes_written",
            (tiers.host.bytes_written() + tiers.ssd.bytes_written() + tiers.pfs.bytes_written())
                as f64,
        );
        t.push(
            "tier.busy_modeled_ms",
            (tiers.host.modeled_busy_sec()
                + tiers.ssd.modeled_busy_sec()
                + tiers.pfs.modeled_busy_sec())
                * 1e3,
        );
        t.push("runtime.retries", counter("runtime/retries"));
        t.push(
            "gpu-sim.kernels_launched",
            devices
                .iter()
                .map(|d| d.metrics().kernels_launched())
                .sum::<u64>() as f64,
        );
        t.push(
            "gpu-sim.device_bytes_read",
            devices
                .iter()
                .map(|d| d.metrics().device_bytes_read())
                .sum::<u64>() as f64,
        );
    }
    written
}

/// Program-reported `CheckpointOutput::breakdown` stages, by metric name.
fn reported_stage(stage: &str) -> Option<&'static str> {
    Some(match stage {
        "leaf_hash" => "ckpt-dedup.reported.leaf_hash_ms",
        "first_ocur_wave" => "ckpt-dedup.reported.first_ocur_wave_ms",
        "shift_dupl_wave" => "ckpt-dedup.reported.shift_dupl_wave_ms",
        "metadata_compact" => "ckpt-dedup.reported.metadata_compact_ms",
        "gather_serialize" => "ckpt-dedup.reported.gather_serialize_ms",
        _ => return None,
    })
}

/// Every object the runtime knows must recover as `Verified`.
pub fn check_recovery(spec: &Spec, written: &mut Written) {
    let report = written.rt.recover_report();
    let mut unseen: std::collections::BTreeSet<ObjectId> = (0..spec.ranks)
        .flat_map(|r| (0..spec.n_ckpts as u32).map(move |k| (r, k)))
        .collect();
    for rank in &report.ranks {
        for obj in &rank.objects {
            let id = (rank.rank, obj.ckpt_id);
            unseen.remove(&id);
            if obj.status != ObjectStatus::Verified {
                written.bad.entry(id).or_insert_with(|| {
                    format!(
                        "{}: object {id:?} recovered as {}",
                        spec.name,
                        obj.status.name()
                    )
                });
            }
        }
    }
    for id in unseen {
        written
            .bad
            .entry(id)
            .or_insert_with(|| format!("{}: object {id:?} unknown to recovery", spec.name));
    }
}

/// Restore `rank`'s latest version and byte-compare it; returns ms.
pub fn restore_and_check(
    spec: &Spec,
    written: &Written,
    device: &Device,
    rank: u32,
    trace: Option<&mut Samples>,
    tally: &mut Tally,
) -> f64 {
    let rt = &written.rt;
    let t = Instant::now();
    let out = restore_rank_latest_parallel(
        rt.tiers(),
        device,
        rank,
        trace.is_some().then_some(&**rt.telemetry()),
    );
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let want = &written.finals[rank as usize];
    match &out {
        Ok(o) => tally.op(o.data == *want && o.version as usize + 1 == spec.n_ckpts, || {
            format!(
                "{}: rank {rank} restored version {} ({} bytes) differs from the generated snapshot",
                spec.name,
                o.version,
                o.data.len()
            )
        }),
        Err(e) => tally.op(false, || format!("{}: rank {rank} restore failed: {e}", spec.name)),
    }
    if let (Some(t), Ok(o)) = (trace, &out) {
        t.push("compress.decode_ms", decode_pass(rt.tiers(), rank));
        t.push("restore.records_visited", o.stats.records_visited as f64);
        t.push("restore.bytes_copied", o.stats.bytes_copied as f64);
    }
    ms
}

/// Milliseconds `StoredObject::decode` takes over `rank`'s PFS objects:
/// the container decodes a restore of that rank performs. The program's
/// restore path has no decode hook, so this is a separate, timed pass.
pub fn decode_pass(tiers: &TierChain, rank: u32) -> f64 {
    let mut ms = 0.0;
    for id in tiers.pfs.resident() {
        if id.0 != rank {
            continue;
        }
        if let Some(obj) = tiers.pfs.inspect_object(id).into_object() {
            let t = Instant::now();
            let _ = std::hint::black_box(obj.decode());
            ms += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    ms
}

/// The writer workloads' epoch: write, check recovery, lose a rank if the
/// workload does, restore every rank byte-compared, tear down. Returns the
/// seconds until everything was durable.
pub fn writer_epoch(
    spec: &Spec,
    seqs: &[Sequence],
    e2e: &mut Samples,
    mut trace: Option<&mut Samples>,
    tally: &mut Tally,
) -> f64 {
    let mut written = write_epoch(spec, seqs, e2e, trace.as_deref_mut());
    check_recovery(spec, &mut written);
    written.settle(spec, tally);
    let device = Device::a100();
    if let Some(lost) = spec.lost_rank {
        let tiers = written.rt.tiers();
        tiers.host.wipe_rank(lost);
        tiers.ssd.wipe_rank(lost);
        tiers.pfs.wipe_rank(lost);
        let ms = restore_and_check(spec, &written, &device, lost, None, tally);
        e2e.push(RANK_LOSS_RESTORE_MS, ms);
    }
    for rank in spec.surviving_ranks() {
        let ms = restore_and_check(spec, &written, &device, rank, trace.as_deref_mut(), tally);
        e2e.push(RESTORE_MS, ms);
    }
    let durable_s = written.durable_s;
    written.shutdown();
    durable_s
}
