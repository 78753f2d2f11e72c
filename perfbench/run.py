#!/usr/bin/env python3
"""Build the hbold binary and the perfbench harness from source, then run
one benchmark workload and pass its output through.

Run from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Everything the build and the run write stays under .bench_build/ in the
checkout (Go build cache, binaries, generated data, server data dirs).
The last line of standard output is the result JSON; the exit code is
non-zero, with no result printed, when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT = 850  # a cold Go build cache compiles the standard library too
RUN_TIMEOUT = 170


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    hbold = os.path.join(build, "hbold")
    harness = os.path.join(build, "perfbench")
    for pkg, out in (("repro/cmd/hbold", hbold), (".", harness)):
        try:
            r = subprocess.run(["go", "build", "-o", out, pkg], cwd=here, env=env,
                               timeout=BUILD_TIMEOUT, stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build of %s failed: %s" % (pkg, e), file=sys.stderr)
            return 1
        if r.returncode != 0:
            print("perfbench: build of %s failed" % pkg, file=sys.stderr)
            return 1
    work = os.path.join(build, "work-%d" % os.getpid())
    args = sys.argv[1:] + ["-hbold", hbold, "-work", work,
                           "-spans", build,
                           "-benchmark-json", os.path.join(root, "BENCHMARK.json")]
    timeout = RUN_TIMEOUT * 4 if "--selftest" in args or "-selftest" in args else RUN_TIMEOUT
    try:
        r = subprocess.run([harness] + args, cwd=root, env=env, timeout=timeout)
        code = r.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
