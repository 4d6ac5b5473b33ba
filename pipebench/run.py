#!/usr/bin/env python3
"""Pipeline benchmark entry point: builds pipebench from source, then runs it.

Run from the root of a checkout:

    python3 pipebench/run.py --workload city-week --seed 1 --seconds 10 --trace 0

The chisimnet library (src/) and the pipebench program are configured and
built into .bench_build/pipebench (Release) on first use; later runs only
re-check the build. Build output goes to stderr, so the last line of stdout
is the JSON result. Every argument is passed to pipebench (see
pipebench.cpp for the extra self-test flags --size and --corrupt-cadj).
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pipebench")


def fail(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id():
    """git sha of the checkout, or a digest of its sources when it has none."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) == os.path.realpath(ROOT):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for tree in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        for base, dirs, files in os.walk(os.path.join(ROOT, tree)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the root of a "
             "chisimnet checkout")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "pipebench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    args = [binary] + sys.argv[1:] + ["--source-id", source_id()]
    return subprocess.run(args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
