#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closedloop-kv --seed 1 --seconds 20 --trace 0

The Go build cache, the go command's own state and the binary stay under
.bench_build/ in the checkout. The build needs the repository's root module (perfbench/go.mod
replaces it with ../), so outside a full checkout the build fails and this
script exits non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env["GOCACHE"] = os.path.join(BUILD, "gocache")
    env["GOPATH"] = os.path.join(BUILD, "gopath")
    # The go command keeps its telemetry counters under the user config
    # directory; point that into the checkout as well.
    env["XDG_CONFIG_HOME"] = os.path.join(BUILD, "config")
    env["GOWORK"] = "off"
    env["GOTOOLCHAIN"] = "local"
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(ROOT, "perfbench"), env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
