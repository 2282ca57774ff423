#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md in this directory).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tm1-dora --seed 1 --seconds 10 --trace 0

The Go program is built from the checkout's sources into .bench_build/ (with
the Go build cache kept there too), then run with the same arguments. Its
standard output, whose last line is the JSON result, is passed through; the
exit code is the program's. A failed build exits non-zero without a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# A measured run ends well inside this; the cold first build may take longer.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def go_env():
    """Keep every file the Go toolchain writes inside the checkout, offline."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        HOME=os.path.join(BUILD, "home"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "home", ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
    )
    return env


def source_digest():
    """SHA-256 over go.mod and every .go file of the module and the benchmark."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "go.mod")]
    for top in ("internal", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames) if f.endswith(".go")]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit():
    """The checked-out commit, or "none" when the checkout is no git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env(),
                          capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.stderr.write("run.py: build failed\n")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        if not build():
            return 2
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("run.py: build did not complete: %s\n" % e)
        return 2

    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-workdir", BUILD, "-commit", commit(), "-source", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
