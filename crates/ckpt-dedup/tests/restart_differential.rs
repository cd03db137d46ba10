//! Differential testing of the single-pass parallel restart engine: for
//! random snapshot sequences, every method, every target version and
//! several pool widths, the parallel restore must be byte-identical to
//! the sequential replay — including chains with a mid-stream rebase
//! record and compacted chains restored from a non-zero base — plus
//! shift-heavy chains where most of each version is shifted duplicates,
//! which the random-access reader must also read back identically.

use ckpt_dedup::prelude::*;
use ckpt_dedup::restart::restore_version_single_pass;
use ckpt_dedup::restore::{restore_record, restore_record_from};
use ckpt_dedup::Diff;
use gpu_sim::Device;
use proptest::prelude::*;

const CHUNK: usize = 64;

fn make_checkpointer(method_idx: usize, chunk: usize) -> Box<dyn Checkpointer> {
    match method_idx {
        0 => Box::new(TreeCheckpointer::new(
            Device::a100(),
            TreeConfig::new(chunk),
        )),
        1 => Box::new(ListCheckpointer::new(
            Device::a100(),
            TreeConfig::new(chunk),
        )),
        2 => Box::new(BasicCheckpointer::new(Device::a100(), chunk)),
        _ => Box::new(FullCheckpointer::new(Device::a100(), chunk)),
    }
}

/// splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Seeded snapshot sequence with sparse mutations.
fn snapshots(seed: u64, count: usize, len: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng(seed);
    let mut data: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
    let mut out = vec![data.clone()];
    for _ in 1..count {
        let edits = 1 + (rng.next() % 32) as usize;
        for _ in 0..edits {
            let at = (rng.next() as usize) % len;
            data[at] = (rng.next() & 0xff) as u8;
        }
        out.push(data.clone());
    }
    out
}

/// Seeded snapshot sequence dominated by shifted duplicates: mostly
/// chunk-aligned block moves within the buffer, blocks copied back from
/// older snapshots, zero fills and fresh blocks stamped at two places (new
/// content duplicated inside one checkpoint), with an occasional unaligned
/// edit.
fn shifty_snapshots(rng: &mut Rng, count: usize, len: usize, chunk: usize) -> Vec<Vec<u8>> {
    let n_chunks = len / chunk;
    let mut data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(count);
    for k in 0..count {
        for _ in 0..1 + rng.below(4) {
            let blocks = 1 + rng.below(n_chunks / 2);
            let mut at = || {
                let off = chunk * rng.below(n_chunks - blocks + 1);
                // One edit in eight is unaligned.
                if rng.below(8) == 0 {
                    (off + rng.below(chunk)).min(len - blocks * chunk)
                } else {
                    off
                }
            };
            let (src, dst) = (at(), at());
            let span = blocks * chunk;
            match rng.below(4) {
                0 => data.copy_within(src..src + span, dst),
                1 if k > 0 => {
                    let old = &out[rng.below(k)];
                    data[dst..dst + span].copy_from_slice(&old[src..src + span]);
                }
                2 => data[dst..dst + span].fill(0),
                _ => {
                    let fresh: Vec<u8> = (0..span).map(|_| rng.next() as u8).collect();
                    data[src..src + span].copy_from_slice(&fresh);
                    data[dst..dst + span].copy_from_slice(&fresh);
                }
            }
        }
        out.push(data.clone());
    }
    out
}

fn build_chain(method_idx: usize, snaps: &[Vec<u8>], rebase_at: Option<usize>) -> Vec<Diff> {
    let mut m = make_checkpointer(method_idx, CHUNK);
    snaps
        .iter()
        .enumerate()
        .map(|(k, s)| {
            if rebase_at == Some(k) {
                m.rebase_checkpoint(s).diff
            } else {
                m.checkpoint(s).diff
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline determinism property: parallel == sequential, bitwise,
    /// at 1, 2 and 8 pool threads, for every method and target version —
    /// with and without a mid-stream rebase record.
    #[test]
    fn parallel_restore_is_bit_identical_across_threads(
        method_idx in 0usize..4,
        count in 2usize..6,
        len in 200usize..2400,
        seed in any::<u64>(),
        rebase_frac in 0u32..100,
        with_rebase in any::<bool>(),
    ) {
        let snaps = snapshots(seed, count, len);
        let rebase_at = with_rebase.then(|| 1 + rebase_frac as usize % (count - 1));
        let diffs = build_chain(method_idx, &snaps, rebase_at);
        let seq = restore_record(&diffs).expect("sequential replay");
        for (k, v) in seq.iter().enumerate() {
            prop_assert_eq!(v, &snaps[k], "sequential replay ground truth, version {}", k);
        }
        let device = Device::a100();
        for threads in [1usize, 2, 8] {
            rayon::set_active_threads(threads);
            for (target, expect) in seq.iter().enumerate() {
                let (par, _) =
                    restore_version_single_pass(&device, 0, &diffs, target).expect("single pass");
                prop_assert_eq!(
                    &par,
                    expect,
                    "method {} threads {} target {}",
                    method_idx,
                    threads,
                    target
                );
            }
        }
        rayon::set_active_threads(0);
    }

    /// Compacted chains: drop everything below the rebase record and
    /// restore from the non-zero base — parallel and sequential must agree
    /// on every surviving version.
    #[test]
    fn compacted_chain_restores_identically(
        method_idx in 0usize..4,
        count in 3usize..6,
        len in 200usize..1600,
        seed in any::<u64>(),
        rebase_frac in 0u32..100,
    ) {
        let snaps = snapshots(seed, count, len);
        let rebase_at = 1 + rebase_frac as usize % (count - 1);
        let diffs = build_chain(method_idx, &snaps, Some(rebase_at));
        let tail = &diffs[rebase_at..];
        let seq = restore_record_from(rebase_at as u32, tail).expect("base-offset replay");
        let device = Device::a100();
        for (i, v) in seq.iter().enumerate() {
            prop_assert_eq!(v, &snaps[rebase_at + i], "version {}", rebase_at + i);
            let (par, _) =
                restore_version_single_pass(&device, rebase_at as u32, tail, i)
                    .expect("single pass from base");
            prop_assert_eq!(&par, v, "method {} version {}", method_idx, rebase_at + i);
        }
    }
}

/// Shift-heavy differential: 400 seeded chains of 2-25 records over
/// unaligned buffers, chunk sizes 32/64/128 and every method, restored at
/// every target version with 1 and 2 pool threads. The chains must really
/// exercise both same-record and cross-version shifted duplicates.
#[test]
fn shift_heavy_chains_restore_identically() {
    let (mut same_record, mut cross_version) = (0usize, 0usize);
    let device = Device::a100();
    for case in 0..400u64 {
        let mut rng = Rng(case.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let chunk = [32, 64, 128][case as usize % 3];
        let method_idx = (case as usize / 3) % 4;
        let count = 2 + rng.below(24);
        let len = chunk * (4 + rng.below(61)) + rng.below(chunk);
        let snaps = shifty_snapshots(&mut rng, count, len, chunk);
        let mut m = make_checkpointer(method_idx, chunk);
        let diffs: Vec<Diff> = snaps.iter().map(|s| m.checkpoint(s).diff).collect();
        for d in &diffs {
            for s in &d.shift_regions {
                if s.ref_ckpt == d.ckpt_id {
                    same_record += 1;
                } else {
                    cross_version += 1;
                }
            }
        }
        let seq = restore_record(&diffs).expect("sequential replay");
        for (k, v) in seq.iter().enumerate() {
            assert_eq!(
                v, &snaps[k],
                "case {case}: replay ground truth, version {k}"
            );
        }
        // The random-access reader resolves through the same cover tables:
        // whole versions and seeded byte ranges match the reference too.
        let reader = RecordReader::build(&diffs).expect("reader index");
        for (target, expect) in seq.iter().enumerate() {
            let whole = reader.read_version(target as u32).expect("reader");
            assert!(
                &whole == expect,
                "case {case}: reader version {target} diverged from sequential replay"
            );
            for _ in 0..3 {
                let off = rng.below(len);
                let n = rng.below(len - off + 1);
                let mut out = vec![0u8; n];
                reader
                    .read_at(target as u32, off, &mut out)
                    .expect("reader range");
                assert!(
                    out[..] == expect[off..off + n],
                    "case {case}: reader version {target} bytes {off}+{n} diverged"
                );
            }
        }
        for threads in [1usize, 2] {
            rayon::set_active_threads(threads);
            for (target, expect) in seq.iter().enumerate() {
                let (par, _) =
                    restore_version_single_pass(&device, 0, &diffs, target).expect("single pass");
                assert!(
                    &par == expect,
                    "case {case}: method {method_idx} chunk {chunk} threads {threads} \
                     target {target} diverged from sequential replay"
                );
            }
        }
    }
    rayon::set_active_threads(0);
    assert!(
        same_record > 0 && cross_version > 0,
        "shift regions: {same_record} same-record, {cross_version} cross-version"
    );
}
