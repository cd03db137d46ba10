//! `ckpt` — de-duplicated checkpoint records on the command line.
//!
//! ```text
//! ckpt create  --out <dir> [--method tree|list|basic|full] [--chunk N]
//!              [--compress off|adaptive|zstd|lz4|...]
//!              [--payload-compress zstd|lz4|...] [--stats] <snapshot files...>
//! ckpt info    <dir>
//! ckpt stats   <dir>
//! ckpt restore <dir> --version K --out <file> [--stats]
//! ckpt verify  <dir> <original snapshot files...>
//! ```
//!
//! A record directory holds one `NNNN.ckpt` file per version: the encoded
//! diff wire format of `ckpt_dedup::Diff`, wrapped in an integrity frame
//! (`ckpt_dedup::frame`) whose checksum is verified on every read. Legacy
//! unframed records are still readable (detected by the magic sniff). All
//! snapshots must have equal length (the engine checkpoints a fixed-size
//! buffer, like the paper's GDV array).
//!
//! `--compress` applies the runtime's frame-level compression stage to each
//! record file: the encoded diff goes through the
//! [`CompressionPolicy`](ckpt_runtime::CompressionPolicy) (`adaptive`
//! samples each object and picks a codec; a codec name fixes one; `off` is
//! the default) and is stored in a compressed frame whose checksum covers
//! the compressed bytes. `info`/`stats`/`verify` read the codec flag and
//! decompress transparently. `--payload-compress` is the older, orthogonal
//! dedup-layer knob: it compresses first-occurrence chunk payloads *inside*
//! the diff (`Diff::payload_codec`) before it is ever framed.
//!
//! A *compacted* record (chain-compaction GC deleted the files below a
//! rebase point) starts at `NNNN.ckpt` for some `NNNN > 0`; every command
//! detects the base automatically and requires the head record to be
//! self-contained. `--version` always takes absolute checkpoint ids.
//!
//! `ckpt restore` uses the single-pass restart engine: one newest-to-oldest
//! walk resolves every chunk's provenance, then each resolved chunk is
//! copied exactly once — bit-identical to the sequential reference replay
//! (which `ckpt verify` runs) at any thread count. `--parallel` is still
//! accepted and changes nothing.
//!
//! `ckpt verify <dir>` with no originals runs in *integrity mode*: every
//! frame is checksum-verified and the whole restore chain replayed, without
//! needing the original snapshots.
//!
//! `--stats` (on `create` and `restore`) and the `stats` subcommand emit a
//! one-line JSON telemetry report on stdout, prefixed with `stats: `. The
//! schema is stable: `{"command", "method", ..., "breakdowns": [...],
//! "metrics": {"counters", "gauges", "histograms", "spans"}}` (see
//! `DESIGN.md` § Observability).

use gpu_dedup_ckpt::compress::codec_by_id;
use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::dedup::{
    decode_frame_expecting, decode_payload, encode_frame, encode_frame_compressed, looks_framed,
    looks_rankdedup, Diff, RankDedupRecord,
};
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::runtime::{
    resolve_record, CompressMetrics, CompressionEngine, CompressionPolicy, RankDedupConfig,
    RankDedupEngine, RankDedupMetrics, RedundancyMetrics, RedundancyPolicy, RedundancyStore,
    StoredObject,
};
use gpu_dedup_ckpt::telemetry::{JsonWriter, Registry, StageBreakdown};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

type ObjectId = (u32, u32);

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ckpt create  --out <dir> [--method tree|list|basic|full] [--chunk N] \
         [--compress off|adaptive|<codec>] [--payload-compress <codec>] \
         [--redundancy off|partner|xor:<k>] [--ranks R] [--rank-dedup] \
         [--verify-collisions] [--stats] <snapshots...>\n  \
         ckpt info    <dir>\n  ckpt stats   <dir>\n  \
         ckpt restore <dir> --version K --out <file> [--stats]\n  \
         ckpt verify  <dir> [--json] [<snapshots...>]   (no snapshots: integrity-only mode)\n\n\
         --redundancy splits the snapshots across R ranks (default: the group \
         size), writes rank####/ record subdirs plus a group/ directory of \
         partner copies or XOR parity stripes, and makes verify/stats \
         group-aware: a rank whose directory is absent is reported per object \
         as reconstructable-from-group or LOST, never silently skipped. \
         --rank-dedup shares one content-addressed index across the ranks, \
         storing a chunk first seen by any rank exactly once cluster-wide; \
         verify resolves the cross-rank references and types a dangling one \
         as LOST, never a wrong payload. verify exits 0 clean, 3 when every \
         fault is group-repairable, 4 when anything is LOST."
    );
    ExitCode::from(2)
}

/// The display name of a frame codec id (`raw` for 0).
fn codec_name(codec: u8) -> String {
    if codec == 0 {
        "raw".into()
    } else {
        codec_by_id(codec)
            .map(|c| c.name().to_string())
            .unwrap_or_else(|| format!("codec{codec}"))
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--stats` is a global flag: strip it wherever it appears.
    let stats = args.iter().any(|a| a == "--stats");
    args.retain(|a| a != "--stats");
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "create" => cmd_create(rest, stats),
        "info" => cmd_info(rest),
        "stats" => cmd_stats(rest),
        "restore" => cmd_restore(rest, stats),
        "verify" => cmd_verify(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("ckpt: {e}");
            match e.downcast_ref::<CliExit>() {
                Some(x) => ExitCode::from(x.code),
                None => ExitCode::FAILURE,
            }
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Missing or malformed command-line operands.
const EXIT_USAGE: u8 = 2;
/// Verification found damage the redundancy group can still repair.
const EXIT_REPAIRABLE: u8 = 3;
/// Verification found at least one unrecoverable (LOST) object.
const EXIT_LOST: u8 = 4;

/// An error that carries a stable process exit code. Generic errors keep
/// exiting 1; usage errors exit 2; the verify matrix distinguishes
/// corrupt-but-repairable (3) from lost (4).
#[derive(Debug)]
struct CliExit {
    code: u8,
    msg: String,
}

impl std::fmt::Display for CliExit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for CliExit {}

fn exit_with(code: u8, msg: impl Into<String>) -> Box<dyn std::error::Error> {
    Box::new(CliExit {
        code,
        msg: msg.into(),
    })
}

fn diff_path(dir: &Path, version: usize) -> PathBuf {
    dir.join(format!("{version:04}.ckpt"))
}

/// Unwrap a checkpoint file's integrity frame — verifying the checksum
/// (over the *stored* bytes, compressed or not) and transparently
/// decompressing compressed frames — falling back to the raw bytes for
/// legacy unframed records. Returns the frame codec id (0 for uncompressed
/// or legacy) and the decoded diff payload. Flat CLI records use rank 0
/// and the version number as checkpoint id; clustered records carry their
/// real rank in the frame.
fn unframe_as(
    bytes: &[u8],
    rank: u32,
    version: usize,
    path: &Path,
) -> Result<(u8, Vec<u8>), String> {
    if looks_framed(bytes) {
        decode_payload(bytes, Some((rank, version as u32)))
            .map(|(header, payload)| (header.codec, payload))
            .map_err(|e| format!("{}: corrupt frame: {e}", path.display()))
    } else {
        Ok((0, bytes.to_vec()))
    }
}

/// The lowest `NNNN.ckpt` version present in a record directory: 0 for a
/// full record, the rebase point for a chain whose prefix was compacted
/// away by GC.
fn record_base(dir: &Path) -> Result<usize, Box<dyn std::error::Error>> {
    let mut base: Option<usize> = None;
    let entries =
        std::fs::read_dir(dir).map_err(|_| format!("no checkpoints found in {}", dir.display()))?;
    for entry in entries {
        let name = entry?.file_name();
        let Some(stem) = name.to_str().and_then(|n| n.strip_suffix(".ckpt")) else {
            continue;
        };
        if let Ok(v) = stem.parse::<usize>() {
            base = Some(base.map_or(v, |b: usize| b.min(v)));
        }
    }
    base.ok_or_else(|| format!("no checkpoints found in {}", dir.display()).into())
}

/// Load the record's diffs in version order, verifying integrity frames
/// and transparently decompressing compressed frames. Returns
/// `(base, diffs, frame_codecs)` where `base` is the first surviving
/// version (a compacted record starts at its rebase point, whose head
/// record must be self-contained) and `frame_codecs[k]` is the frame-level
/// codec id version `base + k` was stored with (0 = uncompressed).
type LoadedRecord = (usize, Vec<Diff>, Vec<u8>);

fn load_record(dir: &Path) -> Result<LoadedRecord, Box<dyn std::error::Error>> {
    // A cluster rank subdir's frames carry their real rank id; flat
    // records use rank 0.
    load_record_as(dir, dir_rank(dir).unwrap_or(0))
}

/// The rank number of a `rank####/` record subdirectory, if `dir` is one.
fn dir_rank(dir: &Path) -> Option<u32> {
    let digits = dir.file_name()?.to_str()?.strip_prefix("rank")?;
    (digits.len() == 4 && digits.bytes().all(|b| b.is_ascii_digit()))
        .then(|| digits.parse().ok())
        .flatten()
}

fn load_record_as(dir: &Path, rank: u32) -> Result<LoadedRecord, Box<dyn std::error::Error>> {
    let base = record_base(dir)?;
    let mut diffs = Vec::new();
    let mut codecs = Vec::new();
    // Lazily opened on the first rank-dedup record: resolving cross-rank
    // references needs the cluster root and its redundancy group.
    let mut cluster: Option<Option<ClusterContext>> = None;
    for version in base.. {
        let path = diff_path(dir, version);
        if !path.exists() {
            break;
        }
        let bytes = std::fs::read(&path)?;
        let (codec, payload) = unframe_as(&bytes, rank, version, &path)?;
        let payload = if looks_rankdedup(&payload) {
            let ctx = cluster
                .get_or_insert_with(|| ClusterContext::open(dir).ok().flatten())
                .as_ref()
                .ok_or_else(|| {
                    format!(
                        "{}: rank-dedup record outside a cluster root",
                        path.display()
                    )
                })?;
            ctx.resolve((rank, version as u32), &payload).map_err(|e| {
                exit_with(
                    EXIT_LOST,
                    format!(
                        "{}: LOST  rank-dedup resolution failed: {e}",
                        path.display()
                    ),
                )
            })?
        } else {
            payload
        };
        codecs.push(codec);
        diffs.push(Diff::decode(&payload).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    if base > 0 && !is_self_contained(&diffs[0]) {
        return Err(format!(
            "record is compacted at v{base:04} but that record is not self-contained \
             (not a rebase point); the chain cannot replay"
        )
        .into());
    }
    Ok((base, diffs, codecs))
}

/// Print the one-line JSON telemetry report: the command-specific header
/// fields, per-checkpoint stage breakdowns, and the registry snapshot.
fn emit_stats_report(
    command: &str,
    header: &[(&str, u64)],
    method: Option<&str>,
    breakdowns: &[StageBreakdown],
    registry: &Registry,
) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command").string(command);
    if let Some(m) = method {
        w.key("method").string(m);
    }
    for (k, v) in header {
        w.key(k).u64(*v);
    }
    w.key("breakdowns").begin_array();
    for b in breakdowns {
        b.write_json(&mut w);
    }
    w.end_array();
    w.key("metrics");
    registry.write_json(&mut w);
    w.end_object();
    println!("stats: {}", w.finish());
}

fn cmd_create(args: &[String], stats: bool) -> CliResult {
    let mut out_dir: Option<PathBuf> = None;
    let mut method = "tree".to_string();
    let mut chunk = 128usize;
    let mut compress: Option<String> = None;
    let mut payload_compress: Option<String> = None;
    let mut redundancy = RedundancyPolicy::Off;
    let mut ranks: Option<usize> = None;
    let mut verify_collisions = false;
    let mut rank_dedup = false;
    let mut snapshots: Vec<PathBuf> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--redundancy" => {
                let spec = args.get(i + 1).ok_or("--redundancy needs a value")?;
                redundancy = RedundancyPolicy::parse(spec).ok_or_else(|| {
                    format!("unknown --redundancy policy '{spec}' (off|partner|xor:<k>)")
                })?;
                i += 2;
            }
            "--ranks" => {
                let r: usize = args.get(i + 1).ok_or("--ranks needs a value")?.parse()?;
                if r == 0 {
                    return Err("--ranks must be at least 1".into());
                }
                ranks = Some(r);
                i += 2;
            }
            "--out" => {
                out_dir = Some(PathBuf::from(args.get(i + 1).ok_or("--out needs a value")?));
                i += 2;
            }
            "--method" => {
                method = args.get(i + 1).ok_or("--method needs a value")?.clone();
                i += 2;
            }
            "--chunk" => {
                chunk = args.get(i + 1).ok_or("--chunk needs a value")?.parse()?;
                i += 2;
            }
            "--compress" => {
                compress = Some(args.get(i + 1).ok_or("--compress needs a value")?.clone());
                i += 2;
            }
            "--payload-compress" => {
                payload_compress = Some(
                    args.get(i + 1)
                        .ok_or("--payload-compress needs a value")?
                        .clone(),
                );
                i += 2;
            }
            "--verify-collisions" => {
                verify_collisions = true;
                i += 1;
            }
            "--rank-dedup" => {
                rank_dedup = true;
                i += 1;
            }
            other => {
                snapshots.push(PathBuf::from(other));
                i += 1;
            }
        }
    }
    let out_dir = out_dir.ok_or("missing --out <dir>")?;
    if snapshots.is_empty() {
        return Err("no snapshot files given".into());
    }
    std::fs::create_dir_all(&out_dir)?;

    // `--compress` is the frame-level stage (post-dedup, per record file);
    // `--payload-compress` the dedup-layer knob (inside the diff).
    let policy = match &compress {
        None => CompressionPolicy::Off,
        Some(spec) => CompressionPolicy::parse(spec)
            .ok_or_else(|| format!("unknown --compress policy '{spec}' (off|adaptive|<codec>)"))?,
    };

    if redundancy != RedundancyPolicy::Off || ranks.is_some() {
        // A rank count defaults to one full redundancy group.
        let n_ranks = ranks.unwrap_or(redundancy.group_size().max(1) as usize);
        return cmd_create_cluster(CreateCluster {
            out_dir,
            method,
            chunk,
            policy,
            payload_compress,
            verify_collisions,
            redundancy,
            rank_dedup,
            n_ranks,
            snapshots,
            stats,
        });
    }
    if rank_dedup {
        return Err("--rank-dedup needs a clustered record (--ranks and/or --redundancy)".into());
    }

    let device = Device::a100();
    let mut cfg = TreeConfig::new(chunk);
    if let Some(codec) = &payload_compress {
        cfg = cfg.with_payload_codec(codec);
    }
    if verify_collisions {
        cfg = cfg.with_collision_verification();
    }
    let mut ckpt: Box<dyn Checkpointer> = match method.as_str() {
        "tree" => Box::new(TreeCheckpointer::new(device.clone(), cfg)),
        "list" => Box::new(ListCheckpointer::new(device.clone(), cfg)),
        "basic" => Box::new(BasicCheckpointer::new(device.clone(), chunk)),
        "full" => Box::new(FullCheckpointer::new(device.clone(), chunk)),
        other => return Err(format!("unknown method '{other}'").into()),
    };

    let registry = Arc::new(Registry::new());
    let metrics = Arc::new(if stats {
        CompressMetrics::bound(registry.clone())
    } else {
        CompressMetrics::detached()
    });
    let engine = CompressionEngine::new(policy, metrics);
    let mut breakdowns = Vec::new();
    let mut total_in = 0u64;
    let mut total_out = 0u64;
    for (version, path) in snapshots.iter().enumerate() {
        let data = std::fs::read(path)?;
        let mut span = stats.then(|| registry.span("cli/checkpoint"));
        let out = ckpt.checkpoint(&data);
        if let Some(s) = span.as_mut() {
            s.add_modeled_sec(out.stats.modeled_sec);
        }
        drop(span);
        let encoded = out.diff.encode();
        let encoded_len = encoded.len();
        // The on-disk file is the encoded diff, run through the frame-level
        // compression policy and wrapped in an integrity frame; sizes
        // reported below are stored payload sizes (the 32-byte header is
        // bookkeeping, not checkpoint data).
        let object = engine.encode(encoded);
        let stored_len = object.payload.len();
        let framed = if object.codec == 0 {
            encode_frame(0, version as u32, &object.payload)
        } else {
            encode_frame_compressed(
                0,
                version as u32,
                object.codec,
                object.uncompressed_len,
                &object.payload,
            )
        };
        std::fs::write(diff_path(&out_dir, version), framed)?;
        total_in += data.len() as u64;
        total_out += stored_len as u64;
        println!(
            "v{version:04}  {:>12} -> {:>12} bytes  (ratio {:>8.2}x)  {}{}",
            data.len(),
            stored_len,
            out.stats.ratio(),
            path.display(),
            if object.codec != 0 {
                format!(
                    "  [frame {}: {encoded_len} -> {stored_len} B]",
                    codec_name(object.codec)
                )
            } else {
                String::new()
            },
        );
        if stats {
            registry
                .histogram("cli/snapshot_bytes")
                .record(data.len() as u64);
            // Payload units (pre-compression), comparable across policies;
            // the `compress/*` counters carry the post-compression story.
            registry
                .histogram("cli/encoded_bytes")
                .record(encoded_len as u64);
            breakdowns.push(out.breakdown);
        }
    }
    println!(
        "record: {} versions, {total_in} -> {total_out} bytes ({:.2}x), modeled device time {:.3} ms",
        snapshots.len(),
        total_in as f64 / total_out.max(1) as f64,
        device.metrics().modeled_sec() * 1e3,
    );
    if stats {
        registry.counter("cli/versions").add(snapshots.len() as u64);
        // Steady-state memory counters: device-arena lease traffic and
        // historical-record reset/rebuild counts for the whole record.
        let mem = ckpt.memory_stats();
        registry
            .counter("alloc/device_bytes_leased")
            .add(mem.device_bytes_leased);
        registry
            .counter("alloc/device_bytes_allocated")
            .add(mem.device_bytes_allocated);
        registry.counter("alloc/arena_hits").add(mem.arena_hits);
        registry.counter("alloc/arena_misses").add(mem.arena_misses);
        registry
            .counter("map/generation_bumps")
            .add(mem.map_generation_bumps);
        registry
            .counter("map/rehash_rebuilds")
            .add(mem.map_rehash_rebuilds);
        emit_stats_report(
            "create",
            &[
                ("versions", snapshots.len() as u64),
                ("input_bytes", total_in),
                ("stored_bytes", total_out),
            ],
            Some(ckpt.name()),
            &breakdowns,
            &registry,
        );
    }
    Ok(())
}

/// Per-rank record subdirectory of a clustered record root.
fn rank_dir(root: &Path, rank: u32) -> PathBuf {
    root.join(format!("rank{rank:04}"))
}

/// On-disk name of one exported group object (partner copy or parity
/// stripe), keyed by `(hosting_rank, ckpt_id)`.
fn group_object_path(root: &Path, key: ObjectId) -> PathBuf {
    root.join("group")
        .join(format!("h{:04}_c{:04}.grp", key.0, key.1))
}

/// Whether a record root uses the clustered multi-rank layout. Any
/// surviving `rank####/` subdirectory counts — a cluster that lost rank 0
/// *and* its group tier must still verify as a cluster, with the absent
/// members typed, not fall back to the flat-record path.
fn is_cluster_dir(dir: &Path) -> bool {
    if dir.join("group").join("MANIFEST").exists() {
        return true;
    }
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.flatten().any(|e| {
        e.path().is_dir()
            && e.file_name()
                .to_str()
                .and_then(|n| n.strip_prefix("rank"))
                .is_some_and(|n| n.len() == 4 && n.chars().all(|c| c.is_ascii_digit()))
    })
}

/// Read one member's stored object back from its rank directory: the
/// framed file, checksum-verified, with the *stored* (possibly compressed)
/// payload kept intact so group checksums line up with what was encoded.
fn read_member_object(root: &Path, id: ObjectId) -> Option<StoredObject> {
    let path = rank_dir(root, id.0).join(format!("{:04}.ckpt", id.1));
    let bytes = std::fs::read(&path).ok()?;
    let (header, payload) = decode_frame_expecting(&bytes, Some(id)).ok()?;
    Some(if header.codec == 0 {
        StoredObject::raw(payload.to_vec())
    } else {
        StoredObject::encoded(header.codec, header.uncompressed_len, payload.to_vec())
    })
}

/// The cluster root a record directory belongs to: the directory itself
/// when it is a cluster root, its parent when it is a `rank####/` record
/// subdir, `None` for a flat record.
fn cluster_root_of(dir: &Path) -> Option<PathBuf> {
    if is_cluster_dir(dir) {
        return Some(dir.to_path_buf());
    }
    dir_rank(dir)
        .and_then(|_| dir.parent())
        .map(Path::to_path_buf)
}

/// Load the record root's redundancy group (manifest + exported group
/// objects) when one exists, ready to reconstruct lost members.
fn load_group_store(root: &Path) -> Result<Option<RedundancyStore>, Box<dyn std::error::Error>> {
    let manifest_path = root.join("group").join("MANIFEST");
    if !manifest_path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&manifest_path)?;
    let store = RedundancyStore::from_manifest(&text).ok_or("group/MANIFEST is malformed")?;
    for entry in std::fs::read_dir(root.join("group"))? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(stem) = name.strip_suffix(".grp") else {
            continue;
        };
        let key: ObjectId = (|| {
            let (h, c) = stem.strip_prefix('h')?.split_once("_c")?;
            Some((h.parse().ok()?, c.parse().ok()?))
        })()
        .ok_or_else(|| format!("unparseable group object name '{name}'"))?;
        let bytes = std::fs::read(&path)?;
        let (header, payload) = decode_frame_expecting(&bytes, Some(key))
            .map_err(|e| format!("{}: corrupt group frame: {e}", path.display()))?;
        let obj = if header.codec == 0 {
            StoredObject::raw(payload.to_vec())
        } else {
            StoredObject::encoded(header.codec, header.uncompressed_len, payload.to_vec())
        };
        store
            .group_tier()
            .store_object(key, obj)
            .map_err(|_| format!("{}: group store refused the object", path.display()))?;
    }
    Ok(Some(store))
}

/// The decoded stored payload of one cluster member, for rank-dedup
/// reference resolution: the rank's file when it verifies, else a group
/// reconstruction — so a chunk on a lost rank still resolves through its
/// parity group. `None` is a typed dangling reference upstream.
fn fetch_member_payload(
    root: &Path,
    store: Option<&RedundancyStore>,
    id: ObjectId,
) -> Option<Vec<u8>> {
    if let Some(obj) = read_member_object(root, id) {
        if let Ok(payload) = obj.decode() {
            return Some(payload);
        }
    }
    let store = store?;
    let fetch = |mid: ObjectId| read_member_object(root, mid);
    store.reconstruct(id, &fetch).ok()?.decode().ok()
}

/// Cluster context for resolving rank-dedup records outside the runtime:
/// the record root plus its (lazily loaded) redundancy group.
struct ClusterContext {
    root: PathBuf,
    store: Option<RedundancyStore>,
}

impl ClusterContext {
    fn open(dir: &Path) -> Result<Option<Self>, Box<dyn std::error::Error>> {
        let Some(root) = cluster_root_of(dir) else {
            return Ok(None);
        };
        let store = load_group_store(&root)?;
        Ok(Some(ClusterContext { root, store }))
    }

    fn resolve(&self, id: ObjectId, payload: &[u8]) -> Result<Vec<u8>, String> {
        let fetch = |mid: ObjectId| fetch_member_payload(&self.root, self.store.as_ref(), mid);
        resolve_record(id, payload, &fetch).map_err(|e| e.to_string())
    }
}

struct CreateCluster {
    out_dir: PathBuf,
    method: String,
    chunk: usize,
    policy: CompressionPolicy,
    payload_compress: Option<String>,
    verify_collisions: bool,
    redundancy: RedundancyPolicy,
    rank_dedup: bool,
    n_ranks: usize,
    snapshots: Vec<PathBuf>,
    stats: bool,
}

/// `ckpt create --redundancy ... [--ranks R]`: the snapshots are split
/// into `R` contiguous per-rank sequences, each rank de-duplicates its own
/// record into `rank####/`, and every framed record file is additionally
/// partner-copied or XOR-parity-encoded across the rank's group into
/// `group/` (plus a `group/MANIFEST` naming policy and members).
fn cmd_create_cluster(c: CreateCluster) -> CliResult {
    let n = c.snapshots.len();
    if n < c.n_ranks {
        return Err(format!("{n} snapshots cannot be split across {} ranks", c.n_ranks).into());
    }
    let group_size = c.redundancy.group_size().max(1) as usize;
    if c.redundancy != RedundancyPolicy::Off && !c.n_ranks.is_multiple_of(group_size) {
        return Err(format!(
            "--ranks {} is not a multiple of the {} group size {group_size}",
            c.n_ranks,
            c.redundancy.label()
        )
        .into());
    }
    let registry = Arc::new(Registry::new());
    let engine = CompressionEngine::new(
        c.policy,
        Arc::new(if c.stats {
            CompressMetrics::bound(registry.clone())
        } else {
            CompressMetrics::detached()
        }),
    );
    let store = (c.redundancy != RedundancyPolicy::Off).then(|| {
        RedundancyStore::new(
            c.redundancy,
            if c.stats {
                RedundancyMetrics::bound(registry.clone())
            } else {
                RedundancyMetrics::detached()
            },
        )
    });
    // The cluster dedup index: one inline engine shared by every rank, so
    // stored-byte totals are deterministic. Ranks encode in order, so later
    // ranks reference chunks the earlier ones claimed.
    let dedup = c.rank_dedup.then(|| {
        RankDedupEngine::new(
            RankDedupConfig {
                ranks: c.n_ranks as u32,
                chunk_len: c.chunk,
            },
            if c.stats {
                RankDedupMetrics::bound(registry.clone())
            } else {
                RankDedupMetrics::detached()
            },
        )
    });

    // Contiguous split: the first `n % ranks` ranks take one extra.
    let base_len = n / c.n_ranks;
    let extra = n % c.n_ranks;
    let mut next = 0usize;
    let mut total_in = 0u64;
    let mut total_out = 0u64;
    for rank in 0..c.n_ranks as u32 {
        let take = base_len + usize::from((rank as usize) < extra);
        let slice = &c.snapshots[next..next + take];
        next += take;
        let rdir = rank_dir(&c.out_dir, rank);
        std::fs::create_dir_all(&rdir)?;
        let device = Device::a100();
        let mut cfg = TreeConfig::new(c.chunk);
        if let Some(codec) = &c.payload_compress {
            cfg = cfg.with_payload_codec(codec);
        }
        if c.verify_collisions {
            cfg = cfg.with_collision_verification();
        }
        let mut ckpt: Box<dyn Checkpointer> = match c.method.as_str() {
            "tree" => Box::new(TreeCheckpointer::new(device.clone(), cfg)),
            "list" => Box::new(ListCheckpointer::new(device.clone(), cfg)),
            "basic" => Box::new(BasicCheckpointer::new(device.clone(), c.chunk)),
            "full" => Box::new(FullCheckpointer::new(device.clone(), c.chunk)),
            other => return Err(format!("unknown method '{other}'").into()),
        };
        for (version, path) in slice.iter().enumerate() {
            let data = std::fs::read(path)?;
            let out = ckpt.checkpoint(&data);
            // Dedup against the cluster index *before* frame compression,
            // so cross-rank references survive any codec.
            let staged = match &dedup {
                Some(e) => e.encode((rank, version as u32), out.diff.encode()),
                None => out.diff.encode(),
            };
            let object = engine.encode(staged);
            if let Some(store) = &store {
                store.encode_member((rank, version as u32), &object);
            }
            let framed = if object.codec == 0 {
                encode_frame(rank, version as u32, &object.payload)
            } else {
                encode_frame_compressed(
                    rank,
                    version as u32,
                    object.codec,
                    object.uncompressed_len,
                    &object.payload,
                )
            };
            total_in += data.len() as u64;
            total_out += object.payload.len() as u64;
            std::fs::write(diff_path(&rdir, version), framed)?;
        }
        println!(
            "rank{rank:04}: {take} versions  ({} .. {})",
            slice
                .first()
                .map(|p| p.display().to_string())
                .unwrap_or_default(),
            slice
                .last()
                .map(|p| p.display().to_string())
                .unwrap_or_default(),
        );
    }

    if let Some(store) = &store {
        let gdir = c.out_dir.join("group");
        std::fs::create_dir_all(&gdir)?;
        let mut group_bytes = 0u64;
        let mut group_objects = 0u64;
        for key in store.group_tier().resident() {
            let obj = store
                .group_tier()
                .inspect_object(key)
                .into_object()
                .ok_or("group object failed verification during export")?;
            let framed = if obj.codec == 0 {
                encode_frame(key.0, key.1, &obj.payload)
            } else {
                encode_frame_compressed(key.0, key.1, obj.codec, obj.uncompressed_len, &obj.payload)
            };
            group_bytes += framed.len() as u64;
            group_objects += 1;
            std::fs::write(group_object_path(&c.out_dir, key), framed)?;
        }
        std::fs::write(gdir.join("MANIFEST"), store.export_manifest())?;
        println!(
            "group: policy {}, {} ranks in groups of {group_size}, \
             {group_objects} objects ({group_bytes} B)",
            c.redundancy.label(),
            c.n_ranks,
        );
    }
    if let Some(e) = &dedup {
        println!(
            "rank-dedup: {} first-occurrence claims shared across {} ranks",
            e.index().claim_count(),
            c.n_ranks,
        );
    }
    println!(
        "cluster record: {} ranks, {n} versions, {total_in} -> {total_out} bytes ({:.2}x)",
        c.n_ranks,
        total_in as f64 / total_out.max(1) as f64,
    );
    if c.stats {
        registry.counter("cli/versions").add(n as u64);
        registry.counter("cli/ranks").add(c.n_ranks as u64);
        emit_stats_report(
            "create",
            &[
                ("versions", n as u64),
                ("ranks", c.n_ranks as u64),
                ("input_bytes", total_in),
                ("stored_bytes", total_out),
            ],
            Some(&c.method),
            &[],
            &registry,
        );
    }
    Ok(())
}

/// Group-aware verification of a clustered record: every present rank
/// directory is integrity-verified like a flat record, and every rank
/// whose directory is *absent* is checked object by object against the
/// redundancy group — reported as reconstructable or LOST, never silently
/// skipped.
fn verify_cluster(dir: &Path, json: bool) -> CliResult {
    let ctx = ClusterContext {
        root: dir.to_path_buf(),
        store: load_group_store(dir)?,
    };

    // The rank set: every rank#### directory present, plus every rank the
    // group manifest knows about (so a wholly-lost rank is still checked).
    let mut ranks: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(r) = name
            .to_str()
            .and_then(|n| n.strip_prefix("rank"))
            .and_then(|n| n.parse().ok())
        {
            ranks.insert(r);
        }
    }
    if let Some(store) = &ctx.store {
        ranks.extend(store.member_ids().iter().map(|&(r, _)| r));
    }
    if ranks.is_empty() {
        return Err(format!("no rank directories found in {}", dir.display()).into());
    }

    let mut report: Vec<(u32, Vec<(u32, VerifyStatus)>)> = Vec::new();
    for &rank in &ranks {
        let rdir = rank_dir(dir, rank);
        // Every object the record names for this rank: its on-disk files
        // plus everything the group manifest attributes to it, so a wiped
        // file is still typed rather than silently absent.
        let mut ckpts: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        if rdir.is_dir() {
            for entry in std::fs::read_dir(&rdir)? {
                let name = entry?.file_name();
                if let Some(v) = name
                    .to_str()
                    .and_then(|n| n.strip_suffix(".ckpt"))
                    .and_then(|n| n.parse().ok())
                {
                    ckpts.insert(v);
                }
            }
        }
        if let Some(store) = &ctx.store {
            ckpts.extend(
                store
                    .member_ids()
                    .iter()
                    .filter(|&&(r, _)| r == rank)
                    .map(|&(_, c)| c),
            );
        }
        if ckpts.is_empty() {
            println!("rank{rank:04}: LOST  directory absent and unknown to the group");
            report.push((rank, vec![(0, VerifyStatus::Lost)]));
            continue;
        }
        let mut objects = Vec::with_capacity(ckpts.len());
        for ckpt_id in ckpts {
            let id = (rank, ckpt_id);
            let (status, detail) = classify_member(&ctx, id);
            println!(
                "rank{rank:04} v{ckpt_id:04} {}{}{}",
                status.label(),
                if detail.is_empty() { "" } else { "  " },
                detail,
            );
            objects.push((ckpt_id, status));
        }
        report.push((rank, objects));
    }

    let count = |s: VerifyStatus| -> u64 {
        report
            .iter()
            .flat_map(|(_, objs)| objs.iter())
            .filter(|&&(_, st)| st == s)
            .count() as u64
    };
    let (verified, repairable, lost) = (
        count(VerifyStatus::Verified),
        count(VerifyStatus::Repairable),
        count(VerifyStatus::Lost),
    );
    if json {
        println!(
            "{}",
            verify_report_json("cluster", verified, repairable, lost, &report)
        );
    }
    if lost > 0 {
        return Err(exit_with(
            EXIT_LOST,
            format!("{lost} object(s) LOST ({repairable} repairable, {verified} verified)"),
        ));
    }
    if repairable > 0 {
        return Err(exit_with(
            EXIT_REPAIRABLE,
            format!("{repairable} object(s) repairable from the group ({verified} verified)"),
        ));
    }
    println!(
        "cluster record ok: {} ranks, {verified} objects verified",
        ranks.len()
    );
    Ok(())
}

/// Stable per-object verification outcome (and its process exit code):
/// `verified` (0) — the stored frame decodes and, for rank-dedup records,
/// every cross-rank reference resolves; `repairable` (3) — the local copy
/// is corrupt or absent but the redundancy group rebuilds it bit-exact;
/// `lost` (4) — no path to a correct payload (a dangling remote reference
/// lands here, never a wrong payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerifyStatus {
    Verified,
    Repairable,
    Lost,
}

impl VerifyStatus {
    fn label(self) -> &'static str {
        match self {
            VerifyStatus::Verified => "ok",
            VerifyStatus::Repairable => "REPAIRABLE",
            VerifyStatus::Lost => "LOST",
        }
    }

    fn json_name(self) -> &'static str {
        match self {
            VerifyStatus::Verified => "verified",
            VerifyStatus::Repairable => "repairable",
            VerifyStatus::Lost => "lost",
        }
    }
}

/// Classify one cluster member (see [`VerifyStatus`]).
fn classify_member(ctx: &ClusterContext, id: ObjectId) -> (VerifyStatus, String) {
    // A payload is only acceptable once fully proven: frame checksum,
    // rank-dedup reference resolution (checksummed against the original),
    // and diff decode.
    let prove = |payload: Vec<u8>| -> Result<(), String> {
        let resolved = if looks_rankdedup(&payload) {
            ctx.resolve(id, &payload)
                .map_err(|e| format!("dangling rank-dedup reference: {e}"))?
        } else {
            payload
        };
        Diff::decode(&resolved).map_err(|e| e.to_string())?;
        Ok(())
    };
    let path = rank_dir(&ctx.root, id.0).join(format!("{:04}.ckpt", id.1));
    let direct = std::fs::read(&path)
        .ok()
        .and_then(|bytes| unframe_as(&bytes, id.0, id.1 as usize, &path).ok())
        .map(|(_, payload)| payload);
    let direct_err = match direct {
        Some(payload) => match prove(payload) {
            Ok(()) => return (VerifyStatus::Verified, String::new()),
            // The local bytes verified as a frame but the payload cannot be
            // proven (dangling reference / undecodable diff): the group
            // holds the *same* object, so reconstruction cannot repair a
            // resolution failure — only a damaged or missing local copy.
            Err(e) => Some(e),
        },
        None => None,
    };
    if let Some(e) = direct_err {
        return (VerifyStatus::Lost, e);
    }
    let Some(store) = &ctx.store else {
        return (
            VerifyStatus::Lost,
            "no local copy and no redundancy group".into(),
        );
    };
    let fetch = |mid: ObjectId| read_member_object(&ctx.root, mid);
    match store
        .reconstruct(id, &fetch)
        .map_err(|e| e.to_string())
        .and_then(|obj| obj.decode().map_err(|e| e.to_string()))
        .and_then(&prove)
    {
        Ok(()) => (
            VerifyStatus::Repairable,
            format!("reconstructable from group ({})", store.policy().label()),
        ),
        Err(e) => (VerifyStatus::Lost, e),
    }
}

/// The stable `verify --json` report. Schema (field order fixed):
/// `{"command":"verify","mode":...,"clean":...,"verified":N,
///   "repairable":N,"lost":N,"ranks":[{"rank":R,"objects":
///   [{"ckpt_id":K,"status":"verified"|"repairable"|"lost"},..]},..]}`
fn verify_report_json(
    mode: &str,
    verified: u64,
    repairable: u64,
    lost: u64,
    ranks: &[(u32, Vec<(u32, VerifyStatus)>)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command").string("verify");
    w.key("mode").string(mode);
    w.key("clean").bool(repairable == 0 && lost == 0);
    w.key("verified").u64(verified);
    w.key("repairable").u64(repairable);
    w.key("lost").u64(lost);
    w.key("ranks").begin_array();
    for (rank, objects) in ranks {
        w.begin_object();
        w.key("rank").u64(*rank as u64);
        w.key("objects").begin_array();
        for (ckpt_id, status) in objects {
            w.begin_object();
            w.key("ckpt_id").u64(*ckpt_id as u64);
            w.key("status").string(status.json_name());
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.finish()
}

/// Group-aware `ckpt stats` over a clustered record: per-rank record
/// aggregates plus `redundancy/*` inventory counters.
fn cmd_stats_cluster(dir: &Path) -> CliResult {
    let registry = Registry::new();
    let mut versions = 0u64;
    let mut stored = 0u64;
    let mut n_ranks = 0u64;
    let mut method: Option<String> = None;
    // Scan for rank#### directories rather than counting up from 0: a
    // wholly-lost rank must not hide the ranks numbered after it.
    let mut present: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(r) = name
            .to_str()
            .and_then(|n| n.strip_prefix("rank"))
            .and_then(|n| n.parse().ok())
        {
            present.insert(r);
        }
    }
    // Rank-dedup inventory: counted from the *stored* records (before
    // reference resolution), so `rankdedup/remote_bytes_saved` reports
    // what cross-rank sharing actually kept off the disk.
    let mut dedup_records = 0u64;
    let mut dedup_remote_refs = 0u64;
    let mut dedup_bytes_saved = 0u64;
    for &rank in &present {
        let rdir = rank_dir(dir, rank);
        n_ranks += 1;
        for version in record_base(&rdir)?.. {
            let path = diff_path(&rdir, version);
            if !path.exists() {
                break;
            }
            let bytes = std::fs::read(&path)?;
            let Ok((_, payload)) = unframe_as(&bytes, rank, version, &path) else {
                continue;
            };
            if let Ok(rec) = RankDedupRecord::decode(&payload) {
                dedup_records += 1;
                dedup_remote_refs += rec.remote_refs().count() as u64;
                dedup_bytes_saved += rec.orig_len.saturating_sub(rec.local.len() as u64);
            }
        }
        let (_base, diffs, _codecs) = load_record_as(&rdir, rank)?;
        method.get_or_insert_with(|| diffs[0].kind.name().to_string());
        for d in &diffs {
            registry
                .histogram("record/stored_bytes")
                .record(d.stored_bytes() as u64);
            stored += d.stored_bytes() as u64;
        }
        versions += diffs.len() as u64;
    }
    if dedup_records > 0 {
        registry.counter("rankdedup/records").add(dedup_records);
        registry
            .counter("rankdedup/remote_refs")
            .add(dedup_remote_refs);
        registry
            .counter("rankdedup/remote_bytes_saved")
            .add(dedup_bytes_saved);
    }
    let manifest_path = dir.join("group").join("MANIFEST");
    if let Ok(text) = std::fs::read_to_string(&manifest_path) {
        let store = RedundancyStore::from_manifest(&text).ok_or("group/MANIFEST is malformed")?;
        registry
            .counter("redundancy/members")
            .add(store.member_ids().len() as u64);
        let mut group_objects = 0u64;
        let mut group_bytes = 0u64;
        for entry in std::fs::read_dir(dir.join("group"))? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "grp") {
                group_objects += 1;
                group_bytes += entry.metadata()?.len();
            }
        }
        registry
            .counter("redundancy/group_objects")
            .add(group_objects);
        registry.counter("redundancy/group_bytes").add(group_bytes);
        registry
            .counter("redundancy/group_ranks")
            .add(store.policy().group_size() as u64);
    }
    if n_ranks == 0 {
        return Err(format!("no rank directories found in {}", dir.display()).into());
    }
    emit_stats_report(
        "stats",
        &[
            ("versions", versions),
            ("ranks", n_ranks),
            ("stored_bytes", stored),
        ],
        method.as_deref(),
        &[],
        &registry,
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> CliResult {
    let dir = PathBuf::from(args.first().ok_or("missing <dir>")?);
    let (base, diffs, codecs) = load_record(&dir)?;
    println!(
        "record {}: {} versions{}, method {}, chunk {} B, buffer {} bytes",
        dir.display(),
        diffs.len(),
        if base > 0 {
            format!(" (compacted, base v{base:04})")
        } else {
            String::new()
        },
        diffs[0].kind.name(),
        diffs[0].chunk_size,
        diffs[0].data_len,
    );
    let mut total = 0u64;
    for (d, &frame_codec) in diffs.iter().zip(&codecs) {
        total += d.stored_bytes() as u64;
        println!(
            "  v{:04}  stored {:>10} B  payload {:>10} B  meta {:>8} B  regions {:>6}+{:<6}{}{}",
            d.ckpt_id,
            d.stored_bytes(),
            d.payload.len(),
            d.metadata_bytes(),
            d.first_regions.len(),
            d.shift_regions.len(),
            if d.payload_codec != 0 {
                "  [compressed]"
            } else {
                ""
            },
            if frame_codec != 0 {
                format!("  [frame {}]", codec_name(frame_codec))
            } else {
                String::new()
            },
        );
    }
    let full = diffs[0].data_len * diffs.len() as u64;
    println!(
        "total stored {total} B vs {full} B full ({:.2}x)",
        full as f64 / total.max(1) as f64
    );
    Ok(())
}

/// `ckpt stats <dir>`: offline telemetry report over an existing record —
/// per-version size distributions as histograms, plus record totals.
fn cmd_stats(args: &[String]) -> CliResult {
    let dir = PathBuf::from(args.first().ok_or("missing <dir>")?);
    if is_cluster_dir(&dir) {
        return cmd_stats_cluster(&dir);
    }
    let (base, diffs, codecs) = load_record(&dir)?;
    let registry = Registry::new();
    let mut stored = 0u64;
    let mut compressed_frames = 0u64;
    for (d, &frame_codec) in diffs.iter().zip(&codecs) {
        registry
            .histogram("record/stored_bytes")
            .record(d.stored_bytes() as u64);
        if frame_codec != 0 {
            compressed_frames += 1;
            registry
                .counter(&format!("record/frames/{}", codec_name(frame_codec)))
                .inc();
        }
        registry
            .histogram("record/payload_bytes")
            .record(d.payload.len() as u64);
        registry
            .histogram("record/metadata_bytes")
            .record(d.metadata_bytes() as u64);
        registry
            .counter("record/first_regions")
            .add(d.first_regions.len() as u64);
        registry
            .counter("record/shift_regions")
            .add(d.shift_regions.len() as u64);
        stored += d.stored_bytes() as u64;
    }
    emit_stats_report(
        "stats",
        &[
            ("versions", diffs.len() as u64),
            ("base", base as u64),
            ("data_len", diffs[0].data_len),
            ("chunk_size", diffs[0].chunk_size as u64),
            ("stored_bytes", stored),
            ("compressed_frames", compressed_frames),
        ],
        Some(diffs[0].kind.name()),
        &[],
        &registry,
    );
    Ok(())
}

fn cmd_restore(args: &[String], stats: bool) -> CliResult {
    let mut dir: Option<PathBuf> = None;
    let mut version: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--version" => {
                version = Some(args.get(i + 1).ok_or("--version needs a value")?.parse()?);
                i += 2;
            }
            "--out" => {
                out = Some(PathBuf::from(args.get(i + 1).ok_or("--out needs a value")?));
                i += 2;
            }
            // Accepted for older scripts; there is one restore engine.
            "--parallel" => i += 1,
            other => {
                dir = Some(PathBuf::from(other));
                i += 1;
            }
        }
    }
    let dir = dir.ok_or("missing <dir>")?;
    let out = out.ok_or("missing --out <file>")?;
    let (base, diffs, _codecs) = load_record(&dir)?;
    let last = base + diffs.len() - 1;
    let version = version.unwrap_or(last);
    if version < base || version > last {
        return Err(format!("version {version} not in record ({base}..{last})").into());
    }
    let index = version - base;
    let registry = Registry::new();
    let mut span = stats.then(|| registry.span("cli/restore"));
    // Single-pass restart: walk the chain newest -> oldest, resolve every
    // chunk's provenance, then copy each resolved chunk exactly once — no
    // intermediate version is materialized.
    let (bytes, rstats) = restore_version_single_pass(&Device::a100(), base as u32, &diffs, index)?;
    if stats {
        registry.counter("restore/chains_restored").inc();
        registry
            .counter("restore/records_read")
            .add(rstats.records_visited as u64);
        registry
            .counter("restore/regions_copied")
            .add(rstats.regions_copied);
        registry
            .counter("restore/bytes_copied")
            .add(rstats.bytes_copied);
        registry
            .counter("restore/zero_chunks")
            .add(rstats.zero_chunks);
    }
    drop(span.take());
    std::fs::write(&out, &bytes)?;
    println!(
        "restored v{version} ({} bytes) -> {}",
        bytes.len(),
        out.display()
    );
    if stats {
        registry
            .histogram("cli/restored_bytes")
            .record(bytes.len() as u64);
        emit_stats_report(
            "restore",
            &[
                ("versions", diffs.len() as u64),
                ("base", base as u64),
                ("version", version as u64),
                ("restored_bytes", bytes.len() as u64),
            ],
            Some(diffs[0].kind.name()),
            &[],
            &registry,
        );
    }
    Ok(())
}

/// Integrity-only verification: checksum every frame and replay the whole
/// restore chain, reporting per-version outcomes. No originals needed.
fn verify_integrity(dir: &Path) -> CliResult {
    verify_integrity_as(dir, 0)
}

/// `verify --json` on a flat (single-rank) record: the same report schema
/// and exit-code matrix as cluster mode. With no redundancy group a
/// corrupt object has no repair source, so it types straight to `lost`.
fn verify_flat_json(dir: &Path) -> CliResult {
    let base = record_base(dir)?;
    let mut objects: Vec<(u32, VerifyStatus)> = Vec::new();
    for version in base.. {
        let path = diff_path(dir, version);
        if !path.exists() {
            break;
        }
        let ok = std::fs::read(&path)
            .map_err(|e| e.to_string())
            .and_then(|bytes| unframe_as(&bytes, 0, version, &path))
            .and_then(|(_, payload)| Diff::decode(&payload).map_err(|e| e.to_string()))
            .is_ok();
        objects.push((
            version as u32,
            if ok {
                VerifyStatus::Verified
            } else {
                VerifyStatus::Lost
            },
        ));
    }
    if objects.is_empty() {
        return Err(format!("no checkpoints found in {}", dir.display()).into());
    }
    let verified = objects
        .iter()
        .filter(|&&(_, s)| s == VerifyStatus::Verified)
        .count() as u64;
    let lost = objects.len() as u64 - verified;
    let report = vec![(0u32, objects)];
    println!("{}", verify_report_json("flat", verified, 0, lost, &report));
    if lost > 0 {
        return Err(exit_with(
            EXIT_LOST,
            format!("{lost} object(s) LOST ({verified} verified)"),
        ));
    }
    Ok(())
}

fn verify_integrity_as(dir: &Path, rank: u32) -> CliResult {
    let base = record_base(dir)?;
    if base > 0 {
        println!("record is compacted: first surviving version is v{base:04} (rebase point)");
    }
    let mut diffs = Vec::new();
    let mut bad = 0usize;
    let mut version = base;
    loop {
        let path = diff_path(dir, version);
        if !path.exists() {
            break;
        }
        let bytes = std::fs::read(&path)?;
        let legacy = if looks_framed(&bytes) {
            ""
        } else {
            "  [legacy unframed]"
        };
        match unframe_as(&bytes, rank, version, &path)
            .map_err(Into::into)
            .and_then(
            |(codec, payload): (u8, Vec<u8>)| -> Result<(u8, Diff), Box<dyn std::error::Error>> {
                Diff::decode(&payload)
                    .map(|d| (codec, d))
                    .map_err(|e| format!("{}: {e}", path.display()).into())
            },
        ) {
            Ok((codec, diff)) => {
                println!(
                    "v{version:04} ok   frame + diff verified ({} B){}{legacy}",
                    bytes.len(),
                    if codec != 0 {
                        format!("  [frame {}]", codec_name(codec))
                    } else {
                        String::new()
                    },
                );
                diffs.push(diff);
            }
            Err(e) => {
                bad += 1;
                println!("v{version:04} BAD  {e}");
            }
        }
        version += 1;
    }
    let total = version - base;
    if total == 0 {
        return Err(format!("no checkpoints found in {}", dir.display()).into());
    }
    if bad > 0 {
        return Err(format!("{bad} of {total} checkpoint files failed verification").into());
    }
    // Frames are intact; prove the chain also replays end to end. A
    // compacted record must open with a self-contained rebase record.
    if base > 0 && !is_self_contained(&diffs[0]) {
        return Err(format!(
            "v{base:04} heads a compacted record but is not self-contained (not a rebase point)"
        )
        .into());
    }
    let versions = restore_record_from(base as u32, &diffs)?;
    println!(
        "record integrity ok: {} versions, restore chain replays cleanly from v{base:04}",
        versions.len()
    );
    Ok(())
}

fn cmd_verify(args: &[String]) -> CliResult {
    let mut args: Vec<String> = args.to_vec();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let dir = PathBuf::from(args.first().ok_or_else(|| {
        exit_with(
            EXIT_USAGE,
            "usage: ckpt verify <dir> [originals...] [--json]",
        )
    })?);
    let originals = &args[1..];
    if is_cluster_dir(&dir) {
        if !originals.is_empty() {
            return Err("clustered records verify in integrity mode (no originals)".into());
        }
        return verify_cluster(&dir, json);
    }
    if originals.is_empty() {
        if json {
            return verify_flat_json(&dir);
        }
        return verify_integrity(&dir);
    }
    if json {
        return Err("--json applies to integrity mode (no originals)".into());
    }
    let (base, diffs, _codecs) = load_record(&dir)?;
    if originals.len() != diffs.len() {
        return Err(format!(
            "record has {} versions (from v{base:04}) but {} originals were given",
            diffs.len(),
            originals.len()
        )
        .into());
    }
    let versions = restore_record_from(base as u32, &diffs)?;
    for (k, (restored, path)) in versions.iter().zip(originals).enumerate() {
        let original = std::fs::read(path)?;
        if restored != &original {
            return Err(format!("version {} does not match {path}", base + k).into());
        }
        println!("v{:04} ok  {path}", base + k);
    }
    println!("all {} versions verified bit-exact", versions.len());
    Ok(())
}
