#!/usr/bin/env python3
"""Build and run the checkpointing benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <gdv-tree|cluster-stack|restart|all> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, path-depending
on the repository's crates) in release mode, then runs one workload. The
last line of standard output is the result JSON object; the lines before
it are the provenance block, sample counts and any failures.

`--workload all` runs every workload in turn and prints each one's
result line. A build failure exits with code 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["gdv-tree", "cluster-stack", "restart"]


def capture(cmd):
    """First line of a command's output, or "unknown"."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        return out.strip().splitlines()[0] if out.strip() else "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def git_commit():
    """HEAD of a git checkout in the working directory, read from `.git`
    directly (no search of parent directories), or "unknown"."""
    try:
        head = open(os.path.join(".git", "HEAD")).read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            return open(path).read().strip()
        for line in open(os.path.join(".git", "packed-refs")):
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    # Keep cargo's progress off stdout: the result must be the last line.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        return None
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(os.path.abspath(target), "release", "perfbench")
    return binary if os.path.isfile(binary) else None


def main(argv):
    if "--workload" not in argv:
        print("usage: run.py --workload <name|all> --seed N --seconds S --trace 0|1", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # Provenance the binary cannot see itself.
    extra = ["--rustc", capture(["rustc", "-V"]), "--commit", git_commit()]
    i = argv.index("--workload")
    names = WORKLOADS if argv[i + 1 : i + 2] == ["all"] else [None]
    code = 0
    for name in names:
        args = list(argv)
        if name is not None:
            args[i + 1] = name
        sys.stdout.flush()
        code = max(code, subprocess.run([binary] + args + extra).returncode)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
