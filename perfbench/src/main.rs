//! Wall-clock benchmark of the checkpointing stack.
//!
//! `perfbench --workload <gdv-tree|cluster-stack|restart> --seed <n>
//! --seconds <s> --trace <0|1>` generates its inputs from the seed, sets
//! up [`SETUPS`] times (median reported as `setup_s`), then runs a closed
//! loop (one producer thread, zero think time) for the given seconds.
//! Every restore is byte-compared to the generated snapshot and every
//! object must recover as `Verified`; failures are counted and printed.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics with `--trace 0`, per-layer
//! metrics with `--trace 1`). Lines before it carry the provenance block,
//! sample counts and any failures.

mod inputs;
mod replay;
mod stats;
mod workload;

use stats::{peak_rss_mib, quantile, Samples};
use std::time::{Duration, Instant};
use workload::{
    check_recovery, restore_and_check, write_epoch, writer_epoch, Kind, Spec, Tally, BLOCK_MS,
    DURABLE_GBPS, RANK_LOSS_RESTORE_MS, RESTORE_MS, STORED_RATIO,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 4;

/// End-to-end metrics (`--trace 0`), name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ckpt_block_ms.p50", "ms"),
    ("durable_gbps", "GB/s"),
    ("restore_ms.p50", "ms"),
    ("stored_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), name and unit. A layer the workload
/// bypasses reports zero counts and the measured time of skipping it.
const PER_LAYER: [(&str, &str); 39] = [
    ("ckpt-dedup.checkpoint_ms", "ms"),
    ("ckpt-dedup.reported.leaf_hash_ms", "ms"),
    ("ckpt-dedup.reported.first_ocur_wave_ms", "ms"),
    ("ckpt-dedup.reported.shift_dupl_wave_ms", "ms"),
    ("ckpt-dedup.reported.metadata_compact_ms", "ms"),
    ("ckpt-dedup.reported.gather_serialize_ms", "ms"),
    ("ckpt-dedup.encode_ms", "ms"),
    ("ckpt-dedup.changed_chunk_frac", "fraction"),
    ("ckpt-dedup.diff_bytes", "bytes"),
    ("ckpt-hash.murmur3_gbps", "GB/s"),
    ("pipeline.enqueue_wait_ms", "ms"),
    ("rankdedup.encode_ms", "ms"),
    ("rankdedup.quiesce_ms", "ms"),
    ("rankdedup.remote_refs", "count"),
    ("rankdedup.orphans", "count"),
    ("compress.encode_ms", "ms"),
    ("compress.out_frac", "fraction"),
    ("compress.raw_fallback_frac", "fraction"),
    ("compress.decode_ms", "ms"),
    ("redundancy.encode_ms", "ms"),
    ("redundancy.group_bytes", "bytes"),
    ("redundancy.reconstruct_ms", "ms"),
    ("tier.store_ms", "ms"),
    ("tier.verify_ms", "ms"),
    ("tier.bytes_written", "bytes"),
    ("runtime.retries", "count"),
    ("runtime.submit_ms", "ms"),
    ("runtime.drain_wait_ms", "ms"),
    ("restore.fetch_ms", "ms"),
    ("restore.resolve_copy_ms", "ms"),
    ("restore.records_visited", "count"),
    ("restore.bytes_copied", "bytes"),
    ("gpu-sim.kernels_launched", "count"),
    ("gpu-sim.device_bytes_read", "bytes"),
    ("gpu-sim.checkpoint_modeled_ms", "ms"),
    ("tier.busy_modeled_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("replay.wall_ms", "ms"),
    ("replay.unattributed_frac", "fraction"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    pfs_bitflip: bool,
    rustc: String,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        pfs_bitflip: false,
        rustc: "unknown".into(),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--size" => args.tiny = value()? == "tiny",
            "--inject-pfs-bitflip" => args.pfs_bitflip = true,
            "--rustc" => args.rustc = value()?,
            "--commit" => args.commit = value()?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// A JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (no samples) become 0.
fn jn(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Sample list of per-set-up seconds.
const SETUP_S: &str = "setup_s";

/// Move one epoch's samples into `wall` as measured and into `e2e` with
/// the host's CPU steal taken out: times scale by `keep`, the unstolen
/// share of busy CPU time over the epoch, and rates by its inverse.
fn settle_epoch(ep: Samples, keep: f64, e2e: &mut Samples, wall: &mut Samples) {
    for (name, values) in ep.into_lists() {
        let f = match name {
            DURABLE_GBPS => 1.0 / keep,
            STORED_RATIO => 1.0,
            _ => keep,
        };
        e2e.extend(name, values.iter().map(|v| v * f));
        wall.extend(name, values);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(mut spec) = Spec::named(&args.workload, args.tiny) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };
    spec.pfs_bitflip = args.pfs_bitflip;
    let device = gpu_sim::Device::a100();
    let mut tally = Tally::default();
    let mut notes: Vec<String> = Vec::new();
    let mut trace = Samples::default();

    // Set-up: seed -> snapshots, runtime construction, one untimed
    // warm-up epoch. `restart` builds its 32-checkpoint chain here; the
    // write-side metrics of `restart` come from these builds.
    let mut e2e = Samples::default();
    let mut wall = Samples::default();
    let mut setup_writes = (Samples::default(), Samples::default());
    let mut seqs = None;
    let mut chain = None;
    for _ in 0..SETUPS {
        let ticks = stats::cpu_ticks();
        let t = Instant::now();
        let generated = spec.generate(args.seed);
        let mut ep = Samples::default();
        if spec.kind == Kind::Restart {
            if let Some(old) = chain.take() {
                workload::Written::shutdown(old);
            }
            let mut w = write_epoch(&spec, &generated, &mut ep, args.trace.then_some(&mut trace));
            check_recovery(&spec, &mut w);
            w.settle(&spec, &mut tally);
            restore_and_check(&spec, &w, &device, 0, None, &mut tally);
            chain = Some(w);
        } else {
            writer_epoch(&spec, &generated, &mut Samples::default(), None, &mut tally);
        }
        ep.push(SETUP_S, t.elapsed().as_secs_f64());
        let keep = 1.0 - stats::steal_share(ticks, stats::cpu_ticks());
        if spec.kind == Kind::Restart {
            settle_epoch(ep, keep, &mut setup_writes.0, &mut setup_writes.1);
        } else {
            settle_epoch(ep, keep, &mut e2e, &mut wall);
        }
        if seqs.as_ref().is_some_and(|prev| *prev != generated) {
            notes.push("the same seed generated different snapshots".into());
        }
        seqs = Some(generated);
    }
    let seqs = seqs.expect("at least one set-up");

    // Timed closed loop. With tracing, epochs alternate traced/untraced;
    // the ratio of their medians is the tracing overhead.
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(args.seconds);
    let loop_ticks = stats::cpu_ticks();
    let t_loop = Instant::now();
    let mut epoch = 0usize;
    while epoch < 2 || t_loop.elapsed() < budget {
        let traced = args.trace && epoch % 2 == 1;
        let spans = traced.then_some(&mut trace);
        let ticks = stats::cpu_ticks();
        let mut ep = Samples::default();
        let epoch_s = if spec.kind == Kind::Restart {
            let w = chain.as_ref().expect("restart chain built in set-up");
            let ms = restore_and_check(&spec, w, &device, 0, spans, &mut tally);
            ep.push(RESTORE_MS, ms);
            ms / 1e3
        } else {
            writer_epoch(&spec, &seqs, &mut ep, spans, &mut tally)
        };
        let keep = 1.0 - stats::steal_share(ticks, stats::cpu_ticks());
        settle_epoch(ep, keep, &mut e2e, &mut wall);
        if traced {
            traced_s.push(epoch_s * keep)
        } else {
            plain_s.push(epoch_s * keep)
        }
        epoch += 1;
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let steal_frac = stats::steal_share(loop_ticks, stats::cpu_ticks());
    if spec.kind == Kind::Restart {
        let (adjusted, measured) = setup_writes;
        e2e.append(adjusted);
        wall.append(measured);
    }

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        let gap = replay::replay(&spec, &seqs, &mut trace, &mut tally);
        if gap.abs() > replay::RECONCILE_BOUND {
            notes.push(format!(
                "replay layer self times leave {:.1}% of its wall unattributed (bound {:.0}%)",
                gap * 100.0,
                replay::RECONCILE_BOUND * 100.0
            ));
        }
        if let (Some(t), Some(p)) = (quantile(&traced_s, 0.5), quantile(&plain_s, 0.5)) {
            trace.push("trace.overhead_frac", t / p - 1.0);
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, trace.median(name).unwrap_or(0.0), unit));
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = match name {
                "setup_s" => e2e.median(SETUP_S),
                "ckpt_block_ms.p50" => e2e.quantile(BLOCK_MS, 0.5),
                "durable_gbps" => e2e.median(DURABLE_GBPS),
                "restore_ms.p50" => e2e.median(RESTORE_MS),
                "stored_ratio" => e2e.median(STORED_RATIO),
                "peak_rss_mb" => peak_rss_mib(),
                _ => unreachable!("metric table and match agree"),
            };
            metrics.push((name, v.unwrap_or(f64::NAN), unit));
        }
    }
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            notes.push(format!("metric {name} has no samples"));
        }
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "provenance: {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"pool_threads\": {}, \"producer_threads\": 1, \"rustc\": {}, \
         \"profile\": {}, \"commit\": {}, \"time_scale\": 0, \"size\": {}}}",
        js(spec.name),
        args.seed,
        jn(args.seconds),
        u8::from(args.trace),
        rayon::current_num_threads(),
        js(&args.rustc),
        js(profile),
        js(&args.commit),
        js(if spec.tiny { "tiny" } else { "full" }),
    );
    let med = |s: &Samples, name: &str, q: f64| jn(s.quantile(name, q).unwrap_or(f64::NAN));
    println!(
        "samples: {{\"setups\": {}, \"epochs\": {epoch}, \"loop_s\": {}, \"ckpt_block\": {}, \
         \"ckpt_block_ms.p90\": {}, \"durable_epochs\": {}, \"restores\": {}, \
         \"rank_loss_restores\": {}, \"rank_loss_restore_ms.p50\": {}, \"failed_frac\": {}, \
         \"loop_steal_frac\": {}, \"wall\": {{\"setup_s\": {}, \"ckpt_block_ms.p50\": {}, \
         \"ckpt_block_ms.p90\": {}, \"durable_gbps\": {}, \"restore_ms.p50\": {}, \
         \"rank_loss_restore_ms.p50\": {}}}}}",
        e2e.count(SETUP_S),
        jn(loop_s),
        e2e.count(BLOCK_MS),
        med(&e2e, BLOCK_MS, 0.9),
        e2e.count(DURABLE_GBPS),
        e2e.count(RESTORE_MS),
        e2e.count(RANK_LOSS_RESTORE_MS),
        med(&e2e, RANK_LOSS_RESTORE_MS, 0.5),
        jn(tally.failed as f64 / tally.attempted.max(1) as f64),
        jn(steal_frac),
        med(&wall, SETUP_S, 0.5),
        med(&wall, BLOCK_MS, 0.5),
        med(&wall, BLOCK_MS, 0.9),
        med(&wall, DURABLE_GBPS, 0.5),
        med(&wall, RESTORE_MS, 0.5),
        med(&wall, RANK_LOSS_RESTORE_MS, 0.5),
    );
    const SHOWN: usize = 20;
    for reason in tally.reasons.iter().take(SHOWN) {
        println!("FAILED: {reason}");
    }
    if tally.reasons.len() > SHOWN {
        println!("FAILED: ... and {} more", tally.reasons.len() - SHOWN);
    }
    for note in &notes {
        println!("CHECK: {note}");
    }
    let correct = tally.failed == 0 && notes.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                js(name),
                jn(*v),
                js(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}
