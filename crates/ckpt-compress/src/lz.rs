//! Shared LZ77 match-finding engine (hash chains) and LEB128 varints.
//!
//! All the LZ-family codecs ([`crate::Lz4Like`], [`crate::SnappyLike`],
//! [`crate::DeflateLike`], [`crate::ZstdLike`]) parse the input into
//! *sequences* — a run of literals followed by a back-reference — using this
//! engine with different window sizes and search depths. The engine's
//! output is a pure function of the input and the [`MatchConfig`]: its
//! per-thread table reuse and its shortcuts in the chain walk never change
//! which sequences it emits.

/// Match-finder configuration.
#[derive(Debug, Clone, Copy)]
pub struct MatchConfig {
    /// Maximum back-reference distance.
    pub window: usize,
    /// Minimum match length worth encoding.
    pub min_match: usize,
    /// Maximum match length the target format can encode.
    pub max_match: usize,
    /// Hash-chain probes per position (1 = greedy single probe).
    pub max_chain: usize,
}

impl MatchConfig {
    /// LZ4-style: 64 KiB window, moderate search.
    pub fn lz4() -> Self {
        MatchConfig {
            window: 64 * 1024 - 1,
            min_match: 4,
            max_match: 0xFFF + 19,
            max_chain: 16,
        }
    }

    /// Snappy-style: small window, single-probe greedy (fast, weaker).
    pub fn snappy() -> Self {
        MatchConfig {
            window: 32 * 1024 - 1,
            min_match: 4,
            max_match: 64 + 3,
            max_chain: 1,
        }
    }

    /// Deflate-style: 32 KiB window, decent search.
    pub fn deflate() -> Self {
        MatchConfig {
            window: 32 * 1024 - 1,
            min_match: 3,
            max_match: 258,
            max_chain: 32,
        }
    }

    /// Zstd-style: large window, deep search (best ratio, slowest).
    pub fn zstd() -> Self {
        MatchConfig {
            window: 1 << 20,
            min_match: 3,
            max_match: 1 << 16,
            max_chain: 64,
        }
    }
}

/// One parsed sequence: `lit_len` literals starting at `lit_start`, then a
/// match of `match_len` bytes at distance `offset` (`match_len == 0` only in
/// the final sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seq {
    pub lit_start: usize,
    pub lit_len: usize,
    pub offset: usize,
    pub match_len: usize,
}

const HASH_BITS: u32 = 16;
const HASH_SIZE: usize = 1 << HASH_BITS;

/// Inputs up to this size parse with the calling thread's reused tables
/// (at most `4 × REUSE_LIMIT` bytes of `prev` plus the 256 KiB `head`
/// stay resident per thread); larger inputs get tables of their own.
const REUSE_LIMIT: usize = 1 << 20;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes(data[i..i + 4].try_into().unwrap());
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn load8(data: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(data[i..i + 8].try_into().unwrap())
}

/// Longest common prefix of `data[a..]` and `data[b..]` (`a < b`), capped
/// at `limit` (which must not reach past the end of `data` from `b`).
/// Compares eight bytes per step; the first differing byte is the lowest
/// set byte of the little-endian XOR.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, limit: usize) -> usize {
    let mut n = 0;
    while n + 8 <= limit {
        let x = load8(data, a + n) ^ load8(data, b + n);
        if x != 0 {
            return n + (x.trailing_zeros() / 8) as usize;
        }
        n += 8;
    }
    while n < limit && data[a + n] == data[b + n] {
        n += 1;
    }
    n
}

/// A hash-chain table entry: `u32` for every realistic input, `u64` for
/// inputs too long to index with 32 bits.
trait Slot: Copy {
    const MAX: u64;
    fn new(v: u64) -> Self;
    fn get(self) -> u64;
}

impl Slot for u32 {
    const MAX: u64 = u32::MAX as u64;
    fn new(v: u64) -> Self {
        v as u32
    }
    fn get(self) -> u64 {
        self as u64
    }
}

impl Slot for u64 {
    const MAX: u64 = u64::MAX;
    fn new(v: u64) -> Self {
        v
    }
    fn get(self) -> u64 {
        self
    }
}

/// Hash-chain tables. Entries hold `base + pos`; anything below `base` was
/// written by an earlier call and reads as an empty slot, so reusing the
/// tables needs no clearing. `prev[pos]` is read only after this call wrote
/// it (chains are entered through a live `head` entry).
struct Tables<S> {
    head: Box<[S; HASH_SIZE]>,
    prev: Vec<S>,
    base: u64,
}

impl<S: Slot> Tables<S> {
    fn new() -> Self {
        Tables {
            // Built on the heap: the table is too large for a small stack.
            head: vec![S::new(0); HASH_SIZE]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!("HASH_SIZE entries")),
            prev: Vec::new(),
            base: 1,
        }
    }

    /// Make room for an `n`-byte input; returns this call's `base`.
    fn begin(&mut self, n: usize) -> u64 {
        if self.base + n as u64 > S::MAX {
            self.head.fill(S::new(0));
            self.base = 1;
        }
        if self.prev.len() < n {
            self.prev.resize(n, S::new(0));
        }
        self.base
    }
}

thread_local! {
    static TABLES: std::cell::RefCell<Tables<u32>> = std::cell::RefCell::new(Tables::new());
}

/// Parse `data` into sequences. Concatenating, for each sequence, its
/// literals followed by `match_len` bytes copied from `offset` back,
/// reproduces `data` exactly (the round-trip property every format test
/// checks).
pub fn find_sequences(data: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
    let n = data.len();
    if n as u64 >= u32::MAX as u64 {
        parse(data, cfg, &mut Tables::<u64>::new())
    } else if n > REUSE_LIMIT {
        parse(data, cfg, &mut Tables::<u32>::new())
    } else {
        TABLES.with(|t| parse(data, cfg, &mut t.borrow_mut()))
    }
}

fn parse<S: Slot>(data: &[u8], cfg: &MatchConfig, tables: &mut Tables<S>) -> Vec<Seq> {
    let n = data.len();
    let mut seqs = Vec::new();
    if n == 0 {
        return seqs;
    }
    let base = tables.begin(n);
    let Tables { head, prev, .. } = tables;

    let mut lit_start = 0usize;
    let mut i = 0usize;

    let prev = &mut prev[..n];
    let insert = |head: &mut [S; HASH_SIZE], prev: &mut [S], h: usize, pos: usize| {
        prev[pos] = head[h];
        head[h] = S::new(base + pos as u64);
    };

    while i + cfg.min_match <= n && i + 4 <= n {
        // Probe the chain for the best match at i. No candidate can beat
        // `limit`, and one that differs at `best_len` cannot beat
        // `best_len`, so both end or skip the compare early without
        // changing which candidate wins.
        let limit = cfg.max_match.min(n - i);
        let h = hash4(data, i);
        let mut entry = head[h].get();
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        let mut probes = 0usize;
        while entry >= base && probes < cfg.max_chain {
            let c = (entry - base) as usize;
            if i - c > cfg.window {
                break;
            }
            if data[c + best_len] == data[i + best_len] {
                let len = match_len(data, c, i, limit);
                if len > best_len {
                    best_len = len;
                    best_off = i - c;
                    if len >= limit {
                        break;
                    }
                }
            }
            entry = prev[c].get();
            probes += 1;
        }
        insert(head, prev, h, i);

        if best_len >= cfg.min_match {
            seqs.push(Seq {
                lit_start,
                lit_len: i - lit_start,
                offset: best_off,
                match_len: best_len,
            });
            // Index the positions the match skips over (sparsely for long
            // matches, capped to bound worst-case cost).
            let end = i + best_len;
            let step = if best_len > 256 { 8 } else { 1 };
            for p in (i + step..end.min(n - 3)).step_by(step) {
                insert(head, prev, hash4(data, p), p);
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    tables.base = base + n as u64;

    // Final literal-only sequence (possibly empty literals).
    seqs.push(Seq {
        lit_start,
        lit_len: n - lit_start,
        offset: 0,
        match_len: 0,
    });
    seqs
}

/// Append `len` bytes copied from `offset` back in `out` — an LZ77 match,
/// overlapping (`offset < len`) or not. For `len > 0` the caller has
/// checked `1 <= offset <= out.len()`. An overlapping match repeats the
/// last `offset` bytes; it is copied in doubling chunks, each a prefix of
/// the periodic run already written.
#[inline]
pub fn copy_match(out: &mut Vec<u8>, offset: usize, len: usize) {
    debug_assert!(len == 0 || (1..=out.len()).contains(&offset));
    let start = out.len() - offset;
    let mut left = len;
    while left > 0 {
        let n = (out.len() - start).min(left);
        out.extend_from_within(start..start + n);
        left -= n;
    }
}

/// Replay sequences against `literals`-bearing `data` (the original buffer)
/// is only possible during compression; decoders use
/// decoder-side replay logic on their own streams. This helper exists
/// for the engine's tests: rebuild the input from sequences + the original
/// data's literal ranges.
pub fn rebuild(data: &[u8], seqs: &[Seq]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for s in seqs {
        out.extend_from_slice(&data[s.lit_start..s.lit_start + s.lit_len]);
        copy_match(&mut out, s.offset, s.match_len);
    }
    out
}

/// Write an LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Read an LEB128 varint.
pub fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, crate::CorruptStream> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if *pos >= data.len() {
            return Err(crate::CorruptStream("varint truncated"));
        }
        let b = data[*pos];
        *pos += 1;
        if shift >= 63 && b > 1 {
            return Err(crate::CorruptStream("varint overflow"));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL_CONFIGS: [fn() -> MatchConfig; 4] = [
        MatchConfig::lz4,
        MatchConfig::snappy,
        MatchConfig::deflate,
        MatchConfig::zstd,
    ];

    /// The original engine, kept as the oracle for [`find_sequences`]:
    /// fresh `i64` tables per call, byte-at-a-time compares, every chain
    /// candidate compared in full.
    fn reference_sequences(data: &[u8], cfg: &MatchConfig) -> Vec<Seq> {
        fn byte_match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
            let mut n = 0;
            let limit = max.min(data.len() - b);
            while n < limit && data[a + n] == data[b + n] {
                n += 1;
            }
            n
        }

        let n = data.len();
        let mut seqs = Vec::new();
        if n == 0 {
            return seqs;
        }

        let mut head = vec![-1i64; HASH_SIZE];
        let mut prev = vec![-1i64; n];
        let mut lit_start = 0usize;
        let mut i = 0usize;

        let insert = |head: &mut [i64], prev: &mut [i64], data: &[u8], pos: usize| {
            if pos + 4 <= data.len() {
                let h = hash4(data, pos);
                prev[pos] = head[h];
                head[h] = pos as i64;
            }
        };

        while i + cfg.min_match <= n && i + 4 <= n {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            let mut probes = 0usize;
            while cand >= 0 && probes < cfg.max_chain {
                let c = cand as usize;
                if i - c > cfg.window {
                    break;
                }
                let len = byte_match_len(data, c, i, cfg.max_match);
                if len > best_len {
                    best_len = len;
                    best_off = i - c;
                    if len >= cfg.max_match {
                        break;
                    }
                }
                cand = prev[c];
                probes += 1;
            }

            if best_len >= cfg.min_match {
                seqs.push(Seq {
                    lit_start,
                    lit_len: i - lit_start,
                    offset: best_off,
                    match_len: best_len,
                });
                let end = i + best_len;
                let step = if best_len > 256 { 8 } else { 1 };
                let mut p = i;
                while p < end && p + 4 <= n {
                    insert(&mut head, &mut prev, data, p);
                    p += step;
                }
                i = end;
                lit_start = i;
            } else {
                insert(&mut head, &mut prev, data, i);
                i += 1;
            }
        }

        seqs.push(Seq {
            lit_start,
            lit_len: n - lit_start,
            offset: 0,
            match_len: 0,
        });
        seqs
    }

    fn assert_matches_reference(data: &[u8]) {
        for cfg in ALL_CONFIGS.map(|f| f()) {
            let seqs = find_sequences(data, &cfg);
            assert_eq!(
                seqs,
                reference_sequences(data, &cfg),
                "{cfg:?}, len {}",
                data.len()
            );
        }
    }

    /// Little-endian `u32` lanes that advance every `period` values — the
    /// GDV-counter shape checkpoints are made of.
    fn counter_lanes(words: usize, period: u32, start: u32) -> Vec<u8> {
        (0..words as u32)
            .flat_map(|i| (start + i / period).to_le_bytes())
            .collect()
    }

    fn xorshift(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                seed as u8
            })
            .collect()
    }

    /// Mixed structure past every window: counters, a run longer than any
    /// `max_match`, noise, then a repeat of the first block at a distance
    /// beyond the 32 KiB and 64 KiB windows (but inside zstd's).
    fn windowed_mix(seed: u64) -> Vec<u8> {
        let head = counter_lanes(6000, 7, seed as u32);
        let mut data = head.clone();
        data.extend(std::iter::repeat_n(seed as u8, 70_000));
        data.extend(xorshift(40_000, seed | 1));
        data.extend_from_slice(&head);
        data
    }

    #[test]
    fn engine_matches_reference_on_structured_inputs() {
        assert_matches_reference(&counter_lanes(50_000, 9, 0));
        assert_matches_reference(&vec![5u8; 100_000]);
        assert_matches_reference(&windowed_mix(3));
        assert_matches_reference(&xorshift(70_000, 0x9e37_79b9));
    }

    #[test]
    fn reused_tables_never_leak_entries_between_calls() {
        // Shrinking sizes on one thread: every call sees table entries left
        // by a longer predecessor, which must read as empty.
        let big = windowed_mix(11);
        for len in [big.len(), 100_000, 65_537, 40_000, 4_096, 300, 17, 5, 0] {
            assert_matches_reference(&big[..len]);
            assert_matches_reference(&big[big.len() - len..]);
        }
    }

    #[test]
    fn table_generation_wraps_and_wide_tables_agree() {
        let data = windowed_mix(5);
        let cfg = MatchConfig::zstd();
        let want = reference_sequences(&data, &cfg);
        // A generation counter at the edge of `u32` resets the tables.
        let mut tables = Tables::<u32>::new();
        tables.base = u32::MAX as u64 - 10;
        assert_eq!(parse(&data, &cfg, &mut tables), want);
        assert_eq!(tables.base, 1 + data.len() as u64);
        assert_eq!(parse(&data, &cfg, &mut tables), want);
        // The `u64` tables used for inputs past `u32::MAX` bytes.
        assert_eq!(parse(&data, &cfg, &mut Tables::<u64>::new()), want);
    }

    #[test]
    fn inputs_past_the_reuse_limit_match_reference() {
        let mut data = windowed_mix(9);
        while data.len() <= REUSE_LIMIT {
            let tail = data[..60_000].to_vec();
            data.extend(tail.iter().map(|b| b.wrapping_add(1)));
        }
        let cfg = MatchConfig::lz4();
        assert_eq!(
            find_sequences(&data, &cfg),
            reference_sequences(&data, &cfg)
        );
    }

    #[test]
    fn copy_match_repeats_overlapping_runs() {
        for offset in 1..=9 {
            for len in 0..40 {
                let mut out: Vec<u8> = (0..12u8).collect();
                let mut want = out.clone();
                for _ in 0..len {
                    want.push(want[want.len() - offset]);
                }
                copy_match(&mut out, offset, len);
                assert_eq!(out, want, "offset {offset}, len {len}");
            }
        }
    }

    #[test]
    fn sequences_rebuild_repetitive_input() {
        let data = b"abcabcabcabcabcabc".repeat(20);
        for cfg in [
            MatchConfig::lz4(),
            MatchConfig::snappy(),
            MatchConfig::deflate(),
            MatchConfig::zstd(),
        ] {
            let seqs = find_sequences(&data, &cfg);
            assert_eq!(rebuild(&data, &seqs), data);
            // Repetitive input must actually produce matches.
            assert!(seqs.iter().any(|s| s.match_len > 0), "{cfg:?}");
        }
    }

    #[test]
    fn overlapping_match_is_produced_for_runs() {
        // A constant run matches at offset 1 (RLE-via-LZ).
        let data = vec![9u8; 300];
        let seqs = find_sequences(&data, &MatchConfig::lz4());
        assert_eq!(rebuild(&data, &seqs), data);
        assert!(seqs.iter().any(|s| s.offset == 1 && s.match_len > 100));
    }

    #[test]
    fn incompressible_input_is_one_literal_run() {
        let data: Vec<u8> = (0..255u8).collect();
        let seqs = find_sequences(&data, &MatchConfig::lz4());
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].lit_len, data.len());
        assert_eq!(seqs[0].match_len, 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(find_sequences(&[], &MatchConfig::lz4()).is_empty());
        for n in 1..8 {
            let data = vec![1u8; n];
            let seqs = find_sequences(&data, &MatchConfig::lz4());
            assert_eq!(rebuild(&data, &seqs), data, "len {n}");
        }
    }

    #[test]
    fn max_match_is_respected() {
        let data = vec![5u8; 100_000];
        for cfg in [
            MatchConfig::lz4(),
            MatchConfig::snappy(),
            MatchConfig::deflate(),
        ] {
            let seqs = find_sequences(&data, &cfg);
            assert!(seqs.iter().all(|s| s.match_len <= cfg.max_match), "{cfg:?}");
            assert_eq!(rebuild(&data, &seqs), data);
        }
    }

    #[test]
    fn window_is_respected() {
        // Two identical blocks separated by more than the snappy window:
        // matches must not reference across the gap.
        let mut data = b"unique-block-of-text-1234567890".repeat(4);
        data.extend((0..40_000u32).map(|i| (i % 251) as u8));
        data.extend(b"unique-block-of-text-1234567890".repeat(4));
        let cfg = MatchConfig::snappy();
        let seqs = find_sequences(&data, &cfg);
        assert!(seqs.iter().all(|s| s.offset <= cfg.window));
        assert_eq!(rebuild(&data, &seqs), data);
    }

    #[test]
    fn varint_round_trip() {
        let mut out = Vec::new();
        let vals = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &vals {
            put_varint(&mut out, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        out.pop();
        let mut pos = 0;
        assert!(get_varint(&out, &mut pos).is_err());
    }

    proptest! {
        #[test]
        fn engine_round_trips_any_input(data in prop::collection::vec(any::<u8>(), 0..8192)) {
            for cfg in [MatchConfig::lz4(), MatchConfig::snappy(), MatchConfig::zstd()] {
                let seqs = find_sequences(&data, &cfg);
                prop_assert_eq!(rebuild(&data, &seqs), data.clone());
            }
        }

        #[test]
        fn engine_round_trips_low_entropy(data in prop::collection::vec(0u8..4, 0..8192)) {
            let seqs = find_sequences(&data, &MatchConfig::lz4());
            prop_assert_eq!(rebuild(&data, &seqs), data);
        }

        #[test]
        fn engine_matches_reference_any(data in prop::collection::vec(any::<u8>(), 0..4096)) {
            for cfg in ALL_CONFIGS.map(|f| f()) {
                prop_assert_eq!(find_sequences(&data, &cfg), reference_sequences(&data, &cfg));
            }
        }

        #[test]
        fn engine_matches_reference_structured(
            pieces in prop::collection::vec((0u8..4, 1usize..3000, any::<u32>()), 1..12),
        ) {
            // Concatenated counter lanes, long runs, noise and copies of
            // earlier bytes: every branch of the chain walk, at lengths that
            // cross the snappy, lz4 and deflate windows.
            let mut data = Vec::new();
            for (kind, len, seed) in pieces {
                match kind {
                    0 => data.extend(counter_lanes(len, 1 + seed % 13, seed >> 8)),
                    1 => data.extend(std::iter::repeat_n(seed as u8, len * 40)),
                    2 => data.extend(xorshift(len, seed as u64 | 1)),
                    _ => {
                        let from = seed as usize % data.len().max(1);
                        let copy: Vec<u8> = data.iter().skip(from).take(len * 8).copied().collect();
                        data.extend(copy);
                    }
                }
            }
            // The whole input, then shrinking prefixes on this thread: each call runs over
            // table entries its longer predecessor left behind.
            for len in [data.len(), data.len() * 2 / 3, data.len() / 5, data.len() / 31] {
                let data = &data[..len];
                for cfg in ALL_CONFIGS.map(|f| f()) {
                    prop_assert_eq!(find_sequences(data, &cfg), reference_sequences(data, &cfg));
                }
            }
        }

        #[test]
        fn varint_any(v in any::<u64>()) {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            let mut pos = 0;
            prop_assert_eq!(get_varint(&out, &mut pos).unwrap(), v);
        }
    }
}
