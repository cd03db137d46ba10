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
//! Every read command opens the directory as a runtime
//! [`TierChain`](ckpt_runtime::TierChain) (see [`open_record`]): the files
//! sit verbatim on its PFS tier and a cluster's `group/` objects on an
//! attached redundancy group, so frame verification, group repair,
//! cross-rank reference resolution and loss typing are the runtime's own.
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
//! object is classified by the chain's recovery report and the whole
//! restore chain replayed, without needing the original snapshots.
//!
//! `--stats` (on `create` and `restore`) and the `stats` subcommand emit a
//! one-line JSON telemetry report on stdout, prefixed with `stats: `. The
//! schema is stable: `{"command", "method", ..., "breakdowns": [...],
//! "metrics": {"counters", "gauges", "histograms", "spans"}}` (see
//! `DESIGN.md` § Observability).

use gpu_dedup_ckpt::compress::codec_by_id;
use gpu_dedup_ckpt::dedup::prelude::*;
use gpu_dedup_ckpt::dedup::{encode_frame, looks_framed, Diff, FrameError, RankDedupRecord};
use gpu_dedup_ckpt::gpu_sim::Device;
use gpu_dedup_ckpt::runtime::{
    CompressMetrics, CompressionEngine, CompressionPolicy, ObjectState, ObjectStatus,
    RankDedupConfig, RankDedupEngine, RankDedupMetrics, RedundancyMetrics, RedundancyPolicy,
    RedundancyStore, Tier, TierChain,
};
use gpu_dedup_ckpt::telemetry::{JsonWriter, Registry, StageBreakdown};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
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

/// The `  [frame <codec>]` marker of a compressed frame (empty for raw).
fn frame_marker(codec: u8) -> String {
    if codec != 0 {
        format!("  [frame {}]", codec_name(codec))
    } else {
        String::new()
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

type CliError = Box<dyn std::error::Error>;
type CliResult = Result<(), CliError>;

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

fn exit_with(code: u8, msg: impl Into<String>) -> CliError {
    Box::new(CliExit {
        code,
        msg: msg.into(),
    })
}

fn diff_path(dir: &Path, version: usize) -> PathBuf {
    dir.join(format!("{version:04}.ckpt"))
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

/// The rank number of a `rank####/` record subdirectory, if `dir` is one.
fn dir_rank(dir: &Path) -> Option<u32> {
    let digits = dir.file_name()?.to_str()?.strip_prefix("rank")?;
    (digits.len() == 4 && digits.bytes().all(|b| b.is_ascii_digit()))
        .then(|| digits.parse().ok())
        .flatten()
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
    entries
        .flatten()
        .any(|e| e.path().is_dir() && dir_rank(&e.path()).is_some())
}

/// The `(base, diffs, frame_codecs)` of one rank's record in version
/// order: `base` is the first version (a compacted record starts at its
/// rebase point, whose head record must be self-contained) and
/// `frame_codecs[k]` is the frame-level codec id version `base + k` was
/// stored with (0 = uncompressed).
type LoadedRecord = (usize, Vec<Diff>, Vec<u8>);

/// A record directory opened as a runtime [`TierChain`]. Every `NNNN.ckpt`
/// sits verbatim on the PFS tier under its `(rank, version)` id — a
/// corrupt file stays corrupt, for the tier to classify — and a cluster
/// root's `group/` objects sit verbatim on an attached redundancy group.
struct Record {
    chain: TierChain,
    /// The record root: a flat record or cluster root itself, a
    /// `rank####/` subdir's parent.
    root: PathBuf,
    /// Whether the root uses the clustered `rank####/` layout.
    cluster: bool,
    /// The one rank the opened directory holds (0 for a flat record);
    /// `None` when it is a cluster root holding every rank.
    rank: Option<u32>,
    /// `rank####/` directories present on disk.
    rank_dirs: BTreeSet<u32>,
    /// Legacy unframed files, wrapped in an uncompressed frame at load
    /// (they had no checksum to lose).
    legacy: HashSet<ObjectId>,
}

/// Open a flat record, a cluster root, or one `rank####/` subdir of a
/// cluster (whose whole cluster is loaded: cross-rank references and
/// group repair need the other ranks).
fn open_record(dir: &Path) -> Result<Record, CliError> {
    let (root, rank, cluster) = if is_cluster_dir(dir) {
        (dir.to_path_buf(), None, true)
    } else if let Some(r) = dir_rank(dir) {
        let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
        (
            parent.unwrap_or(Path::new(".")).to_path_buf(),
            Some(r),
            true,
        )
    } else {
        (dir.to_path_buf(), Some(0), false)
    };
    let mut rec = Record {
        chain: TierChain::new(),
        root,
        cluster,
        rank,
        rank_dirs: BTreeSet::new(),
        legacy: HashSet::new(),
    };
    if !cluster {
        rec.load_dir(dir, 0);
        return Ok(rec);
    }
    let entries = std::fs::read_dir(&rec.root)
        .map_err(|_| format!("no checkpoints found in {}", dir.display()))?;
    for entry in entries {
        let path = entry?.path();
        if let Some(r) = dir_rank(&path).filter(|_| path.is_dir()) {
            rec.rank_dirs.insert(r);
            rec.load_dir(&path, r);
        }
    }
    let group = rec.root.join("group");
    if let Ok(text) = std::fs::read_to_string(group.join("MANIFEST")) {
        let store = RedundancyStore::from_manifest(&text).ok_or("group/MANIFEST is malformed")?;
        for entry in std::fs::read_dir(&group)? {
            let path = entry?.path();
            let key = path
                .file_name()
                .and_then(|n| n.to_str()?.strip_suffix(".grp")?.strip_prefix('h'))
                .and_then(|stem| {
                    let (h, c) = stem.split_once("_c")?;
                    Some((h.parse().ok()?, c.parse().ok()?))
                });
            if let Some(key) = key {
                store.group_tier().insert_framed(key, std::fs::read(&path)?);
            }
        }
        rec.chain.attach_redundancy(Arc::new(store));
    }
    Ok(rec)
}

impl Record {
    /// Put every `NNNN.ckpt` of one rank's directory on the PFS tier.
    /// Unreadable directories and files load nothing: the rank's objects
    /// are then typed by what the group knows of them.
    fn load_dir(&mut self, dir: &Path, rank: u32) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for path in entries.flatten().map(|e| e.path()) {
            let version = path
                .file_name()
                .and_then(|n| n.to_str()?.strip_suffix(".ckpt")?.parse().ok());
            let (Some(version), Ok(bytes)) = (version, std::fs::read(&path)) else {
                continue;
            };
            let id = (rank, version);
            let framed = if looks_framed(&bytes) {
                bytes
            } else {
                self.legacy.insert(id);
                encode_frame(rank, version, &bytes)
            };
            self.chain.pfs.insert_framed(id, framed);
        }
    }

    fn rank_path(&self, rank: u32) -> PathBuf {
        if self.cluster {
            rank_dir(&self.root, rank)
        } else {
            self.root.clone()
        }
    }

    fn object_path(&self, id: ObjectId) -> PathBuf {
        diff_path(&self.rank_path(id.0), id.1 as usize)
    }

    /// Read one object through the chain — verified, repaired from the
    /// group when damaged, rank-dedup references resolved — returning its
    /// frame codec and original payload. A lost object is an error naming
    /// the file, never a hole.
    fn read(&self, id: ObjectId) -> Result<(u8, Vec<u8>), CliError> {
        let path = self.object_path(id).display().to_string();
        let stored = self.chain.pfs.inspect_object(id);
        let Some(payload) = self.chain.locate(id) else {
            return Err(match stored {
                ObjectState::Corrupt(e) => format!("{path}: corrupt frame: {e}").into(),
                ObjectState::Valid(obj) => match obj.decode() {
                    Err(e) => format!("{path}: corrupt frame: {e}").into(),
                    Ok(_) => exit_with(
                        EXIT_LOST,
                        format!("{path}: LOST  dangling rank-dedup reference"),
                    ),
                },
                _ => exit_with(
                    EXIT_LOST,
                    format!("{path}: LOST  missing and not rebuildable from a group"),
                ),
            });
        };
        // A repaired object is back on the PFS tier in its stored form.
        let stored = stored
            .into_object()
            .or_else(|| self.chain.pfs.inspect_object(id).into_object());
        Ok((stored.map_or(0, |o| o.codec), payload))
    }

    /// Every checkpoint id the chain knows for `rank`: its PFS objects
    /// (quarantined ones included) and its redundancy-group members.
    fn versions(&self, rank: u32) -> BTreeSet<u32> {
        let pfs = &self.chain.pfs;
        let members = self.chain.redundancy().map(|r| r.member_ids());
        pfs.resident()
            .into_iter()
            .chain(pfs.quarantined())
            .chain(members.into_iter().flatten())
            .filter(|id| id.0 == rank)
            .map(|id| id.1)
            .collect()
    }

    /// The opened directory's record (see [`load_rank`](Self::load_rank)).
    fn load(&self) -> Result<LoadedRecord, CliError> {
        match self.rank {
            Some(rank) => self.load_rank(rank),
            None => Err(format!("no checkpoints found in {}", self.root.display()).into()),
        }
    }

    /// One rank's diffs in version order, every version read through the
    /// chain: a version it cannot produce fails the load rather than
    /// shortening the chain.
    fn load_rank(&self, rank: u32) -> Result<LoadedRecord, CliError> {
        let versions = self.versions(rank);
        let (Some(&base), Some(&last)) = (versions.first(), versions.last()) else {
            let dir = self.rank_path(rank);
            return Err(format!("no checkpoints found in {}", dir.display()).into());
        };
        let mut diffs = Vec::new();
        let mut codecs = Vec::new();
        for version in base..=last {
            let (codec, payload) = self.read((rank, version))?;
            let path = self.object_path((rank, version));
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
        Ok((base as usize, diffs, codecs))
    }

    /// Classify every object of the opened directory from the chain's
    /// recovery report (see [`VerifyStatus::of`]), per rank in rank order.
    /// A durable object whose payload is not a decodable diff is lost too.
    fn classify(&self) -> Vec<(u32, Vec<Verdict>)> {
        // Frame errors, read before recovery quarantines damaged copies.
        let damage: HashMap<ObjectId, FrameError> =
            corrupt_frames(&self.chain.pfs).into_iter().collect();
        let mut ranks: BTreeMap<u32, Vec<Verdict>> = BTreeMap::new();
        for r in self.chain.recover_report().ranks {
            if self.rank.is_none_or(|k| k == r.rank) {
                let verdicts = r
                    .objects
                    .iter()
                    .map(|o| self.verdict((r.rank, o.ckpt_id), o.status, &damage));
                ranks.insert(r.rank, verdicts.collect());
            }
        }
        if self.rank.is_none() {
            // A rank directory holding nothing the group knows of.
            for &rank in &self.rank_dirs {
                let detail = "no checkpoints and unknown to the group";
                ranks
                    .entry(rank)
                    .or_insert_with(|| vec![Verdict::lost(0, detail.into())]);
            }
        }
        ranks.into_iter().collect()
    }

    /// One object's verdict given its recovery status and the frame
    /// errors seen before recovery.
    fn verdict(
        &self,
        id: ObjectId,
        recovered: ObjectStatus,
        damage: &HashMap<ObjectId, FrameError>,
    ) -> Verdict {
        let lost = |detail: String| Verdict::lost(id.1, detail);
        let status = VerifyStatus::of(recovered);
        if status == VerifyStatus::Lost {
            return lost(if self.chain.pfs.contains(id) {
                // A verified (or group-rebuilt) copy whose references dangle.
                "dangling rank-dedup reference".into()
            } else if let Some(e) = damage.get(&id) {
                format!("corrupt frame: {e}")
            } else {
                "no verified copy and not rebuildable from a group".into()
            });
        }
        let codec = match self.read(id) {
            Ok((codec, payload)) => match Diff::decode(&payload) {
                Ok(_) => codec,
                Err(e) => return lost(e.to_string()),
            },
            Err(e) => return lost(e.to_string()),
        };
        let detail = match recovered {
            ObjectStatus::RestoredFromGroup => {
                let policy = self.chain.redundancy().map(|r| r.policy().label());
                format!(
                    "reconstructable from group ({})",
                    policy.unwrap_or_default()
                )
            }
            ObjectStatus::Repaired => "repaired from a redundant copy".into(),
            _ => String::new(),
        };
        Verdict {
            ckpt_id: id.1,
            status,
            detail,
            codec,
        }
    }
}

/// Objects on `tier` whose frame fails verification, with the error.
fn corrupt_frames(tier: &Tier) -> Vec<(ObjectId, FrameError)> {
    tier.resident()
        .into_iter()
        .filter_map(|id| match tier.inspect_object(id) {
            ObjectState::Corrupt(e) => Some((id, e)),
            _ => None,
        })
        .collect()
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

/// Parsed `ckpt create` options, shared by the flat and clustered layouts.
struct Create {
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

impl Create {
    /// A fresh `--method` checkpointer on `device`.
    fn checkpointer(&self, device: &Device) -> Result<Box<dyn Checkpointer>, String> {
        let mut cfg = TreeConfig::new(self.chunk);
        if let Some(codec) = &self.payload_compress {
            cfg = cfg.with_payload_codec(codec);
        }
        if self.verify_collisions {
            cfg = cfg.with_collision_verification();
        }
        Ok(match self.method.as_str() {
            "tree" => Box::new(TreeCheckpointer::new(device.clone(), cfg)),
            "list" => Box::new(ListCheckpointer::new(device.clone(), cfg)),
            "basic" => Box::new(BasicCheckpointer::new(device.clone(), self.chunk)),
            "full" => Box::new(FullCheckpointer::new(device.clone(), self.chunk)),
            other => return Err(format!("unknown method '{other}'")),
        })
    }

    /// A metric sink bound to the report `registry` under `--stats`, and
    /// detached (counting nothing) otherwise.
    fn sink<M>(
        &self,
        registry: &Arc<Registry>,
        bound: fn(Arc<Registry>) -> M,
        detached: fn() -> M,
    ) -> M {
        if self.stats {
            bound(Arc::clone(registry))
        } else {
            detached()
        }
    }
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

    let clustered = redundancy != RedundancyPolicy::Off || ranks.is_some();
    if rank_dedup && !clustered {
        return Err("--rank-dedup needs a clustered record (--ranks and/or --redundancy)".into());
    }
    let c = Create {
        out_dir,
        method,
        chunk,
        policy,
        payload_compress,
        verify_collisions,
        redundancy,
        rank_dedup,
        // A rank count defaults to one full redundancy group.
        n_ranks: ranks.unwrap_or(redundancy.group_size().max(1) as usize),
        snapshots,
        stats,
    };
    if clustered {
        cmd_create_cluster(c)
    } else {
        cmd_create_flat(c)
    }
}

fn cmd_create_flat(c: Create) -> CliResult {
    let device = Device::a100();
    let mut ckpt = c.checkpointer(&device)?;
    let registry = Arc::new(Registry::new());
    let metrics = c.sink(&registry, CompressMetrics::bound, CompressMetrics::detached);
    let engine = CompressionEngine::new(c.policy, Arc::new(metrics));
    let mut breakdowns = Vec::new();
    let mut total_in = 0u64;
    let mut total_out = 0u64;
    for (version, path) in c.snapshots.iter().enumerate() {
        let data = std::fs::read(path)?;
        let mut span = c.stats.then(|| registry.span("cli/checkpoint"));
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
        std::fs::write(
            diff_path(&c.out_dir, version),
            object.frame((0, version as u32)),
        )?;
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
        if c.stats {
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
        c.snapshots.len(),
        total_in as f64 / total_out.max(1) as f64,
        device.metrics().modeled_sec() * 1e3,
    );
    if c.stats {
        registry
            .counter("cli/versions")
            .add(c.snapshots.len() as u64);
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
                ("versions", c.snapshots.len() as u64),
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

/// `ckpt create --redundancy ... [--ranks R]`: the snapshots are split
/// into `R` contiguous per-rank sequences, each rank de-duplicates its own
/// record into `rank####/`, and every framed record file is additionally
/// partner-copied or XOR-parity-encoded across the rank's group into
/// `group/` (plus a `group/MANIFEST` naming policy and members).
fn cmd_create_cluster(c: Create) -> CliResult {
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
    let metrics = c.sink(&registry, CompressMetrics::bound, CompressMetrics::detached);
    let engine = CompressionEngine::new(c.policy, Arc::new(metrics));
    let store = (c.redundancy != RedundancyPolicy::Off).then(|| {
        let metrics = c.sink(
            &registry,
            RedundancyMetrics::bound,
            RedundancyMetrics::detached,
        );
        RedundancyStore::new(c.redundancy, metrics)
    });
    // The cluster dedup index: one inline engine shared by every rank, so
    // stored-byte totals are deterministic. Ranks encode in order, so later
    // ranks reference chunks the earlier ones claimed.
    let dedup = c.rank_dedup.then(|| {
        let config = RankDedupConfig {
            ranks: c.n_ranks as u32,
            chunk_len: c.chunk,
        };
        let metrics = c.sink(
            &registry,
            RankDedupMetrics::bound,
            RankDedupMetrics::detached,
        );
        RankDedupEngine::new(config, metrics)
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
        let mut ckpt = c.checkpointer(&Device::a100())?;
        for (version, path) in slice.iter().enumerate() {
            let id = (rank, version as u32);
            let data = std::fs::read(path)?;
            let out = ckpt.checkpoint(&data);
            // Dedup against the cluster index *before* frame compression,
            // so cross-rank references survive any codec.
            let staged = match &dedup {
                Some(e) => e.encode(id, out.diff.encode()),
                None => out.diff.encode(),
            };
            let object = engine.encode(staged);
            if let Some(store) = &store {
                store.encode_member(id, &object);
            }
            total_in += data.len() as u64;
            total_out += object.payload.len() as u64;
            std::fs::write(diff_path(&rdir, version), object.frame(id))?;
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
            let framed = obj.frame(key);
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

/// Stable per-object verification outcome, taken from the chain's
/// recovery report: `verified` (exit 0) — the stored frame verifies and,
/// for rank-dedup records, every cross-rank reference resolves;
/// `repairable` (3) — the local copy is corrupt or absent but the
/// redundancy group rebuilds it bit-exact; `lost` (4) — no path to a
/// correct payload (a dangling remote reference lands here, never a wrong
/// payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerifyStatus {
    Verified,
    Repairable,
    Lost,
}

impl VerifyStatus {
    /// The recovery-report status mapped onto the verify matrix.
    fn of(status: ObjectStatus) -> Self {
        match status {
            ObjectStatus::Verified => VerifyStatus::Verified,
            ObjectStatus::Repaired | ObjectStatus::RestoredFromGroup => VerifyStatus::Repairable,
            ObjectStatus::LostCorrupt | ObjectStatus::LostVolatile => VerifyStatus::Lost,
        }
    }

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

/// One object's verify outcome: its status, a human-readable reason, and
/// the frame codec of its verified copy (0 when lost).
struct Verdict {
    ckpt_id: u32,
    status: VerifyStatus,
    detail: String,
    codec: u8,
}

impl Verdict {
    fn lost(ckpt_id: u32, detail: String) -> Self {
        Verdict {
            ckpt_id,
            status: VerifyStatus::Lost,
            detail,
            codec: 0,
        }
    }
}

/// The stable `verify --json` report. Schema (field order fixed):
/// `{"command":"verify","mode":...,"clean":...,"verified":N,
///   "repairable":N,"lost":N,"ranks":[{"rank":R,"objects":
///   [{"ckpt_id":K,"status":"verified"|"repairable"|"lost"},..]},..]}`
fn verify_report_json(
    mode: &str,
    count: impl Fn(VerifyStatus) -> u64,
    ranks: &[(u32, Vec<Verdict>)],
) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("command").string("verify");
    w.key("mode").string(mode);
    w.key("clean")
        .bool(count(VerifyStatus::Repairable) + count(VerifyStatus::Lost) == 0);
    for status in [
        VerifyStatus::Verified,
        VerifyStatus::Repairable,
        VerifyStatus::Lost,
    ] {
        w.key(status.json_name()).u64(count(status));
    }
    w.key("ranks").begin_array();
    for (rank, objects) in ranks {
        w.begin_object();
        w.key("rank").u64(*rank as u64);
        w.key("objects").begin_array();
        for v in objects {
            w.begin_object();
            w.key("ckpt_id").u64(v.ckpt_id as u64);
            w.key("status").string(v.status.json_name());
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
/// aggregates over the present rank directories plus `rankdedup/*` and
/// `redundancy/*` inventory counters from the chain's tiers.
fn cmd_stats_cluster(rec: &Record) -> CliResult {
    if rec.rank_dirs.is_empty() {
        return Err(format!("no rank directories found in {}", rec.root.display()).into());
    }
    let registry = Registry::new();
    let mut versions = 0u64;
    let mut stored = 0u64;
    let mut method: Option<String> = None;
    for &rank in &rec.rank_dirs {
        let (_base, diffs, _codecs) = rec.load_rank(rank)?;
        method.get_or_insert_with(|| diffs[0].kind.name().to_string());
        for d in &diffs {
            registry
                .histogram("record/stored_bytes")
                .record(d.stored_bytes() as u64);
            stored += d.stored_bytes() as u64;
        }
        versions += diffs.len() as u64;
    }
    // Rank-dedup inventory: counted from the *stored* records (before
    // reference resolution), so `rankdedup/remote_bytes_saved` reports
    // what cross-rank sharing actually kept off the disk.
    let mut dedup_records = 0u64;
    let mut dedup_remote_refs = 0u64;
    let mut dedup_bytes_saved = 0u64;
    let pfs = &rec.chain.pfs;
    for id in pfs
        .resident()
        .into_iter()
        .filter(|id| rec.rank_dirs.contains(&id.0))
    {
        let payload = pfs
            .inspect_object(id)
            .into_object()
            .and_then(|o| o.decode().ok());
        if let Some(r) = payload.and_then(|p| RankDedupRecord::decode(&p).ok()) {
            dedup_records += 1;
            dedup_remote_refs += r.remote_refs().count() as u64;
            dedup_bytes_saved += r.orig_len.saturating_sub(r.local.len() as u64);
        }
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
    if let Some(red) = rec.chain.redundancy() {
        let group = red.group_tier();
        let keys = group.resident();
        // Framed bytes, as exported to `group/`.
        let group_bytes: usize = keys
            .iter()
            .filter_map(|&k| group.raw(k))
            .map(|b| b.len())
            .sum();
        registry
            .counter("redundancy/members")
            .add(red.member_ids().len() as u64);
        registry
            .counter("redundancy/group_objects")
            .add(keys.len() as u64);
        registry
            .counter("redundancy/group_bytes")
            .add(group_bytes as u64);
        registry
            .counter("redundancy/group_ranks")
            .add(red.policy().group_size() as u64);
    }
    emit_stats_report(
        "stats",
        &[
            ("versions", versions),
            ("ranks", rec.rank_dirs.len() as u64),
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
    let (base, diffs, codecs) = open_record(&dir)?.load()?;
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
            frame_marker(frame_codec),
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
    let rec = open_record(&dir)?;
    if rec.rank.is_none() {
        return cmd_stats_cluster(&rec);
    }
    let (base, diffs, codecs) = rec.load()?;
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
    let (base, diffs, _codecs) = open_record(&dir)?.load()?;
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

/// Text-mode integrity verification of one rank's record: a per-version
/// line from the chain's classification, then a replay of the whole
/// restore chain. No originals needed; a lost version fails it (exit 1).
fn verify_integrity(rec: &Record, rank: u32, verdicts: &[Verdict]) -> CliResult {
    let base = verdicts[0].ckpt_id;
    if base > 0 {
        println!("record is compacted: first surviving version is v{base:04} (rebase point)");
    }
    let mut bad = 0usize;
    for v in verdicts {
        let id = (rank, v.ckpt_id);
        if v.status == VerifyStatus::Lost {
            bad += 1;
            let path = rec.object_path(id);
            println!("v{:04} BAD  {}: {}", v.ckpt_id, path.display(), v.detail);
            continue;
        }
        println!(
            "v{:04} ok   frame + diff verified ({} B){}{}{}",
            v.ckpt_id,
            rec.chain.pfs.raw(id).map_or(0, |b| b.len()),
            frame_marker(v.codec),
            if rec.legacy.contains(&id) {
                "  [legacy unframed]"
            } else {
                ""
            },
            if v.detail.is_empty() {
                String::new()
            } else {
                format!("  [{}]", v.detail)
            },
        );
    }
    if bad > 0 {
        return Err(format!(
            "{bad} of {} checkpoint files failed verification",
            verdicts.len()
        )
        .into());
    }
    // Objects are intact; prove the chain also replays end to end. A
    // compacted record must open with a self-contained rebase record.
    let (base, diffs, _codecs) = rec.load_rank(rank)?;
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
    let rec = open_record(&dir)?;
    if !originals.is_empty() {
        if rec.rank.is_none() {
            return Err("clustered records verify in integrity mode (no originals)".into());
        }
        if json {
            return Err("--json applies to integrity mode (no originals)".into());
        }
        return verify_originals(&rec, originals);
    }
    let ranks = rec.classify();
    if ranks.is_empty() {
        return Err(format!("no checkpoints found in {}", dir.display()).into());
    }
    let count = |s: VerifyStatus| -> u64 {
        ranks
            .iter()
            .flat_map(|(_, objects)| objects)
            .filter(|v| v.status == s)
            .count() as u64
    };
    match rec.rank {
        Some(rank) if !json => verify_integrity(&rec, rank, &ranks[0].1)?,
        Some(_) => {}
        None => {
            for (rank, objects) in &ranks {
                for v in objects {
                    println!(
                        "rank{rank:04} v{:04} {}{}{}",
                        v.ckpt_id,
                        v.status.label(),
                        if v.detail.is_empty() { "" } else { "  " },
                        v.detail,
                    );
                }
            }
            // Parity damage alone loses nothing, but is worth knowing.
            let group = rec
                .chain
                .redundancy()
                .map(|r| corrupt_frames(r.group_tier()));
            for (key, e) in group.into_iter().flatten() {
                let path = group_object_path(&rec.root, key);
                println!("{}: corrupt group frame: {e}", path.display());
            }
        }
    }
    if json {
        let mode = if rec.rank.is_some() {
            "flat"
        } else {
            "cluster"
        };
        println!("{}", verify_report_json(mode, count, &ranks));
    }
    let (verified, repairable, lost) = (
        count(VerifyStatus::Verified),
        count(VerifyStatus::Repairable),
        count(VerifyStatus::Lost),
    );
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
    if rec.rank.is_none() {
        println!(
            "cluster record ok: {} ranks, {verified} objects verified",
            ranks.len()
        );
    }
    Ok(())
}

/// `ckpt verify <dir> <originals...>`: replay the record and compare
/// every version bit-exact against its original snapshot.
fn verify_originals(rec: &Record, originals: &[String]) -> CliResult {
    let (base, diffs, _codecs) = rec.load()?;
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
