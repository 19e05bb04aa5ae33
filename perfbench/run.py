#!/usr/bin/env python3
"""Build and run the repository benchmark (perfbench) from the repo root.

    python3 perfbench/run.py --workload build-cold --seed 1 --seconds 15 --trace 0

The Go toolchain's caches, temporary files and the benchmark binary are
kept under the checkout (CARGO_TARGET_DIR if set, else .bench_build), so
nothing is read from or written to the home directory or /tmp. Build output goes to stderr; the
benchmark's own output is passed through unchanged, its last line being
the JSON result. Any failure exits non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        "TMPDIR": os.path.join(build_dir, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "XDG_CACHE_HOME": os.path.join(build_dir, "cache"),
        "HOME": build_dir,
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build_dir, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
