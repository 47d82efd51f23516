#!/usr/bin/env python3
"""Builds the rwc benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload te_plan --seed 1 --seconds 10 --trace 0

The benchmark is its own Cargo workspace (perfbench/Cargo.toml) with path
dependencies on the crates under crates/. It builds with `--release
--offline` into $CARGO_TARGET_DIR (default: .bench_build at the repository
root); build output goes to stderr. The binary's standard output is passed
through, so its last line is the result object. The toolchain version and
the source revision are handed to the binary for the host line, and
$CARGO_TARGET_DIR/perfbench-cache holds results the binary may reuse
between runs of the same build.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def source_revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for tree in ("crates", "vendor", "perfbench"):
        files += sorted(p for p in (ROOT / tree).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    if not (ROOT / "crates").is_dir() or not (ROOT / "Cargo.toml").is_file():
        print(f"perfbench: no rwc workspace at {ROOT}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True, env=env)
    env["PERFBENCH_RUSTC"] = rustc.stdout.strip() or "unknown"
    env["PERFBENCH_COMMIT"] = source_revision()
    env["PERFBENCH_CACHE"] = str(target / "perfbench-cache")
    sys.stdout.flush()
    run = subprocess.run([str(target / "release" / "rwc-perfbench"), *sys.argv[1:]], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
