//! The `ckpt` read commands on clustered records (`create --ranks 4
//! --redundancy ... --rank-dedup`): `info`, `stats` and `restore` on every
//! rank read back bit-exact, a lost rank directory is repairable from the
//! group, a repairable object restores, and damaged parity alone breaks
//! nothing.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn ckpt(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ckpt"))
        .args(args)
        .output()
        .unwrap()
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ckpt-cluster-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Eight snapshots (4 ranks x 2 versions) repeating with the chunk period,
/// so the ranks share most chunks through cross-rank references.
fn write_snapshots(dir: &Path) -> Vec<PathBuf> {
    let mut data: Vec<u8> = (0..32 * 1024u32).map(|i| (i % 64) as u8).collect();
    (0..8)
        .map(|k| {
            for j in 0..16 * k {
                let at = (k * 977 + j * 419) % data.len();
                data[at] = data[at].wrapping_add(1);
            }
            let p = dir.join(format!("snap{k}.bin"));
            std::fs::write(&p, &data).unwrap();
            p
        })
        .collect()
}

/// A 4-rank rank-dedup cluster record under `policy`; returns the record
/// root and the snapshots (rank `r` holds `snaps[2r]`, `snaps[2r + 1]`).
fn create_cluster(tmp: &TempDir, policy: &str) -> (PathBuf, Vec<PathBuf>) {
    let snaps = write_snapshots(&tmp.0);
    let record = tmp.0.join("record");
    let mut args = vec!["create", "--out", record.to_str().unwrap(), "--chunk", "64"];
    args.extend(["--ranks", "4", "--redundancy", policy, "--rank-dedup"]);
    args.extend(snaps.iter().map(|p| p.to_str().unwrap()));
    assert_ok(&ckpt(&args), &format!("create --redundancy {policy}"));
    (record, snaps)
}

fn flip_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = bytes.len() / 2;
    bytes[at] ^= 0x40;
    std::fs::write(path, &bytes).unwrap();
}

/// Restore `dir` at `version` and compare it bit-exact with `snap`.
fn restore_matches(tmp: &TempDir, dir: &Path, version: u32, snap: &Path) {
    let out_file = tmp.0.join("restored.bin");
    let v = version.to_string();
    let out = ckpt(&[
        "restore",
        dir.to_str().unwrap(),
        "--version",
        &v,
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert_ok(&out, &format!("restore {} v{version}", dir.display()));
    assert_eq!(
        std::fs::read(&out_file).unwrap(),
        std::fs::read(snap).unwrap(),
        "{} v{version} is not bit-exact",
        dir.display()
    );
}

/// `(exit code, stdout)` of `ckpt verify <record> --json`.
fn verify(record: &Path) -> (i32, String) {
    let out = ckpt(&["verify", record.to_str().unwrap(), "--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    (out.status.code().unwrap(), stdout)
}

fn stats_line(dir: &Path) -> String {
    let out = ckpt(&["stats", dir.to_str().unwrap()]);
    assert_ok(&out, &format!("stats {}", dir.display()));
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .find(|l| l.starts_with("stats: "))
        .unwrap()
        .to_string()
}

fn rank_dir(record: &Path, rank: u32) -> PathBuf {
    record.join(format!("rank{rank:04}"))
}

#[test]
fn every_rank_reads_back_bit_exact_across_policies() {
    for policy in ["off", "partner", "xor:2"] {
        let tmp = TempDir::new(&format!("read-{}", policy.replace(':', "-")));
        let (record, snaps) = create_cluster(&tmp, policy);
        for rank in 0..4u32 {
            let dir = rank_dir(&record, rank);
            let out = ckpt(&["info", dir.to_str().unwrap()]);
            assert_ok(&out, &format!("{policy}: info rank {rank}"));
            assert!(String::from_utf8_lossy(&out.stdout).contains("2 versions"));
            assert!(stats_line(&dir).contains(r#""versions":2"#));
            for version in 0..2u32 {
                let snap = &snaps[(2 * rank + version) as usize];
                restore_matches(&tmp, &dir, version, snap);
            }
        }
        let stats = stats_line(&record);
        assert!(stats.contains(r#""versions":8,"ranks":4"#), "{stats}");
        assert!(stats.contains("rankdedup/remote_refs"), "{stats}");
    }
}

#[test]
fn lost_rank_directory_is_repairable_and_stats_reports_survivors() {
    for policy in ["partner", "xor:2"] {
        let tmp = TempDir::new(&format!("lost-{}", policy.replace(':', "-")));
        let (record, snaps) = create_cluster(&tmp, policy);
        std::fs::remove_dir_all(rank_dir(&record, 2)).unwrap();

        let (code, stdout) = verify(&record);
        assert_eq!(code, 3, "{policy}: {stdout}");
        assert!(stdout.contains(r#""repairable":2,"lost":0"#), "{stdout}");
        let stats = stats_line(&record);
        assert!(stats.contains(r#""versions":6,"ranks":3"#), "{stats}");
        // A surviving rank restores as before; the lost one from its group.
        restore_matches(&tmp, &rank_dir(&record, 3), 1, &snaps[7]);
        restore_matches(&tmp, &rank_dir(&record, 2), 1, &snaps[5]);
    }
}

/// One flipped byte in a member file: `verify` calls it repairable, and
/// `restore`/`info` rebuild it from the group instead of refusing it.
#[test]
fn repairable_object_restores_bit_exact() {
    for policy in ["partner", "xor:2"] {
        let tmp = TempDir::new(&format!("repair-{}", policy.replace(':', "-")));
        let (record, snaps) = create_cluster(&tmp, policy);
        flip_byte(&rank_dir(&record, 1).join("0001.ckpt"));

        let (code, stdout) = verify(&record);
        assert_eq!(code, 3, "{policy}: {stdout}");
        assert!(stdout.contains(r#""status":"repairable""#), "{stdout}");
        let dir = rank_dir(&record, 1);
        restore_matches(&tmp, &dir, 1, &snaps[3]);
        assert_ok(&ckpt(&["info", dir.to_str().unwrap()]), "info");
    }
}

/// A damaged parity object with every member intact verifies clean (the
/// damage is named, not fatal); a corrupt member whose group copy is
/// damaged too is lost.
#[test]
fn damaged_group_object_alone_breaks_nothing() {
    for policy in ["partner", "xor:2"] {
        let tmp = TempDir::new(&format!("parity-{}", policy.replace(':', "-")));
        let (record, snaps) = create_cluster(&tmp, policy);
        let group = record.join("group");
        flip_byte(&group.join("h0000_c0000.grp"));

        let (code, stdout) = verify(&record);
        assert_eq!(code, 0, "{policy}: {stdout}");
        assert!(
            stdout.contains(r#""clean":true,"verified":8,"repairable":0,"lost":0"#),
            "{stdout}"
        );
        let named: Vec<&str> = stdout
            .lines()
            .filter(|l| l.contains("h0000_c0000.grp"))
            .collect();
        assert_eq!(named.len(), 1, "{stdout}");
        restore_matches(&tmp, &rank_dir(&record, 2), 1, &snaps[5]);
        assert!(stats_line(&record).contains(r#""ranks":4"#));

        // Damage every group object of checkpoint 0, then a member of it.
        for entry in std::fs::read_dir(&group).unwrap() {
            let p = entry.unwrap().path();
            let name = p.file_name().unwrap().to_str().unwrap();
            if name.ends_with("_c0000.grp") && name != "h0000_c0000.grp" {
                flip_byte(&p);
            }
        }
        flip_byte(&rank_dir(&record, 1).join("0000.ckpt"));
        let (code, stdout) = verify(&record);
        assert_eq!(code, 4, "{policy}: {stdout}");
        assert!(stdout.contains(r#""status":"lost""#), "{stdout}");
    }
}
