#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve-saturated --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steady 5 --seconds 10        # spread of every metric

All build output (Go build cache, binary, span files) goes under the
directory named by CARGO_TARGET_DIR, or .bench_build at the repository
root when it is unset; the Go toolchain's config and telemetry
directories are pointed there too, so a run writes nothing outside the
checkout. The exit code is the benchmark's own.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def arg_value(args, name):
    for i, a in enumerate(args):
        if a == name and i + 1 < len(args):
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    return None


def main():
    args = sys.argv[1:]
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    work = os.path.join(out, "perfbench")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(work, "gocache"),
        GOPATH=os.path.join(work, "gopath"),
        GOMODCACHE=os.path.join(work, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod -buildvcs=false",
        GOENV="off",
        XDG_CONFIG_HOME=os.path.join(work, "config"),
        HOME=work,
    )
    binary = os.path.join(work, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    if arg_value(args, "--trace") == "1" and arg_value(args, "--spans") is None:
        workload = arg_value(args, "--workload") or "run"
        args += ["--spans", os.path.join(work, "spans", workload + ".csv")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
