//! The parallel restart engine: single-pass chain resolution fed by
//! prefetched tier reads.
//!
//! [`ckpt_dedup::restart::SinglePassRestore`] resolves a record chain
//! newest→oldest, needing each encoded diff exactly once. That shape is a
//! pipeline: while the resolution kernel works on record *j*, the next
//! record *j−1* can already be on its way out of the tier chain. This
//! module supplies that overlap with the same depth-1 bounded-channel
//! double buffer the submit path uses ([`crate::pipeline`]): a reader
//! thread walks the chain downward through [`TierChain::locate`] (so
//! corrupt shallow copies are skipped and repaired exactly like the
//! sequential restart path) while the caller's thread decodes and feeds.
//!
//! A chain whose newest surviving run sits above a lost record is *not*
//! silently truncated to stale state: the walk either terminates at a
//! self-contained rebase record (resolution completes and the reader is
//! dropped) or reaches the hole and reports [`LineageError::Hole`].

use crate::lineage::LineageError;
use crate::runtime::{AsyncRuntime, TierChain};
use ckpt_dedup::diff::Diff;
use ckpt_dedup::restart::{RestartStats, SinglePassRestore};
use ckpt_telemetry::Registry;
use crossbeam::channel::bounded;
use gpu_sim::Device;
use std::time::Instant;

/// Result of one parallel restart.
#[derive(Debug)]
pub struct ParallelRestoreOutcome {
    /// Checkpoint id of the restored version (the newest surviving one).
    pub version: u32,
    /// The restored bytes — bit-identical to sequential replay.
    pub data: Vec<u8>,
    /// Resolution-walk counters from the single-pass engine.
    pub stats: RestartStats,
}

/// Restore the latest surviving version of `rank`'s record in a single
/// pass, prefetching tier reads one record ahead. Records are fetched
/// via [`TierChain::locate`], so corruption fallback and repair behave
/// exactly as in [`crate::lineage::restore_rank`]; the restored bytes are
/// bit-identical to that sequential replay at any thread count.
///
/// When `registry` is given, the walk records `restore/*` counters (see
/// the metric table on the runtime's telemetry).
pub fn restore_rank_latest_parallel(
    tiers: &TierChain,
    device: &Device,
    rank: u32,
    registry: Option<&Registry>,
) -> Result<ParallelRestoreOutcome, LineageError> {
    // Newest surviving id: probe candidates from the tier listings top
    // down; `locate` skips (and quarantines) copies that fail
    // verification, so the first hit is the newest restorable target.
    let mut candidates: Vec<u32> = tiers
        .listed_ids()
        .into_iter()
        .filter_map(|(r, k)| (r == rank).then_some(k))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    let mut target: Option<(u32, Vec<u8>)> = None;
    for &k in candidates.iter().rev() {
        if let Some(bytes) = tiers.locate((rank, k)) {
            target = Some((k, bytes));
            break;
        }
    }
    let Some((top, top_bytes)) = target else {
        return Err(LineageError::Empty);
    };

    let mut records_read = 1u64;
    let mut bytes_read = top_bytes.len() as u64;
    let mut fetch_wait_ns = 0u64;

    // Positions are absolute checkpoint ids (base 0): the engine stops on
    // its own at a self-contained rebase record, so the true chain base
    // never needs to be known up front.
    let top_diff = Diff::decode(&top_bytes).map_err(|e| LineageError::Decode(top, e))?;
    let mut engine =
        SinglePassRestore::begin(device, 0, &top_diff).map_err(LineageError::Restore)?;

    let result: Result<(), LineageError> = std::thread::scope(|s| {
        let (tx, rx) = bounded::<(u32, Option<Vec<u8>>)>(1);
        s.spawn(move || {
            // Prefetch reader: one record in the channel while the engine
            // resolves the previous one. A dropped receiver (resolution
            // complete, or an error) ends the walk.
            for id in (0..top).rev() {
                let bytes = tiers.locate((rank, id));
                if tx.send((id, bytes)).is_err() {
                    break;
                }
            }
        });
        let mut done = engine.feed(&top_diff).map_err(LineageError::Restore)?;
        while !done {
            let t0 = Instant::now();
            let (id, bytes) = rx.recv().expect("reader thread feeds every id down to 0");
            fetch_wait_ns += t0.elapsed().as_nanos() as u64;
            let Some(bytes) = bytes else {
                // Every copy of `id` is missing or corrupt, and newer
                // records still need it: a genuine hole, not a chain end.
                return Err(LineageError::Hole {
                    rank,
                    missing: id,
                    present_above: id + 1,
                });
            };
            records_read += 1;
            bytes_read += bytes.len() as u64;
            let diff = Diff::decode(&bytes).map_err(|e| LineageError::Decode(id, e))?;
            done = engine.feed(&diff).map_err(LineageError::Restore)?;
        }
        Ok(())
        // `rx` drops here; the reader's next send fails and it exits.
    });
    result?;
    let (data, stats) = engine.finish().map_err(LineageError::Restore)?;

    if let Some(reg) = registry {
        reg.counter("restore/chains_restored").inc();
        reg.counter("restore/records_read").add(records_read);
        reg.counter("restore/bytes_read").add(bytes_read);
        reg.counter("restore/regions_copied")
            .add(stats.regions_copied);
        reg.counter("restore/bytes_copied").add(stats.bytes_copied);
        reg.counter("restore/fetch_wait_ns").add(fetch_wait_ns);
    }

    Ok(ParallelRestoreOutcome {
        version: top,
        data,
        stats,
    })
}

impl AsyncRuntime {
    /// [`restore_rank_latest_parallel`] against this runtime's tier chain,
    /// recording `restore/*` telemetry into its registry.
    pub fn restore_latest_parallel(
        &self,
        device: &Device,
        rank: u32,
    ) -> Result<ParallelRestoreOutcome, LineageError> {
        restore_rank_latest_parallel(self.tiers(), device, rank, Some(self.telemetry()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::{restore_rank, LineageError};
    use ckpt_dedup::prelude::*;

    fn run_chain(rebase_at: Option<u32>) -> (crate::runtime::TierChain, Vec<Vec<u8>>) {
        let tiers = crate::runtime::TierChain::new();
        let dev = gpu_sim::Device::a100();
        let mut ckpt = TreeCheckpointer::new(dev, TreeConfig::new(64));
        let mut data: Vec<u8> = (0..8192u32).map(|i| (i % 241) as u8).collect();
        let mut snapshots = Vec::new();
        for k in 0..6u32 {
            if k > 0 {
                let len = data.len();
                for j in 0..96 {
                    data[(k as usize * 997 + j * 13) % len] ^= 0x5a;
                }
            }
            snapshots.push(data.clone());
            let out = if rebase_at == Some(k) {
                ckpt.rebase_checkpoint(&data)
            } else {
                ckpt.checkpoint(&data)
            };
            tiers.pfs.put((0, k), out.diff.encode()).unwrap();
        }
        (tiers, snapshots)
    }

    #[test]
    fn parallel_matches_sequential_and_counts_telemetry() {
        let (tiers, snapshots) = run_chain(None);
        let device = gpu_sim::Device::a100();
        let registry = ckpt_telemetry::Registry::new();
        let out = restore_rank_latest_parallel(&tiers, &device, 0, Some(&registry)).unwrap();
        assert_eq!(out.version, 5);
        assert_eq!(&out.data, snapshots.last().unwrap());
        let (base, versions) = restore_rank(&tiers, 0).unwrap();
        let seq_last = base + versions.len() as u32 - 1;
        assert_eq!(
            (out.version, &out.data),
            (seq_last, versions.last().unwrap())
        );
        let json = registry.snapshot_json();
        for key in ["restore/chains_restored", "restore/records_read"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn rebase_record_stops_the_prefetch_walk() {
        let (tiers, snapshots) = run_chain(Some(4));
        let device = gpu_sim::Device::a100();
        let out = restore_rank_latest_parallel(&tiers, &device, 0, None).unwrap();
        assert_eq!(&out.data, snapshots.last().unwrap());
        assert!(
            out.stats.records_visited <= 2,
            "walk must stop at the rebase record, visited {}",
            out.stats.records_visited
        );
    }

    #[test]
    fn compacted_chain_restores_without_the_gc_ed_prefix() {
        let (tiers, snapshots) = run_chain(Some(3));
        for k in 0..3u32 {
            assert!(tiers.pfs.evict((0, k)));
        }
        let device = gpu_sim::Device::a100();
        let out = restore_rank_latest_parallel(&tiers, &device, 0, None).unwrap();
        assert_eq!(out.version, 5);
        assert_eq!(&out.data, snapshots.last().unwrap());
    }

    #[test]
    fn hole_below_the_surviving_run_is_typed() {
        let (tiers, _) = run_chain(None);
        assert!(tiers.pfs.evict((0, 2)));
        let device = gpu_sim::Device::a100();
        let err = restore_rank_latest_parallel(&tiers, &device, 0, None).unwrap_err();
        match err {
            LineageError::Hole {
                rank: 0,
                missing: 2,
                present_above: 3,
            } => {}
            other => panic!("expected a typed hole, got {other:?}"),
        }
    }

    #[test]
    fn empty_rank_errors() {
        let tiers = crate::runtime::TierChain::new();
        let device = gpu_sim::Device::a100();
        assert!(matches!(
            restore_rank_latest_parallel(&tiers, &device, 9, None),
            Err(LineageError::Empty)
        ));
    }
}
