#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <live|replay|smallprog> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default perfbench/target). The benchmark's last line of output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`; the exit
code is non-zero, and no result is printed, when the build or the run
fails.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    files = sorted(ROOT.glob("crates/*/src/**/*.rs")) + sorted(HERE.glob("src/*.rs"))
    files += [ROOT / "Cargo.toml", HERE / "Cargo.toml"]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main(argv):
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    exe = target / "release" / "txrace-perfbench"
    try:
        run = subprocess.run([str(exe), *argv], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
