#!/usr/bin/env python3
"""Entry point of the wsf benchmark.

Run one workload (builds the benchmark package first, then runs it in its
own process and relays its result as the last line of standard output):

    python3 perfbench/run.py \\
        --workload <sim-locality|sort-child-first|sort-helper-first|serve-open> \\
        --seed <n> --seconds <s> --trace <0|1> [--out runs.jsonl]

Compare two sets of runs written with ``--out``:

    python3 perfbench/run.py --compare before.jsonl after.jsonl

Run the benchmark's own tests (oracle LRU, schedule arithmetic, quartiles):

    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to ``$CARGO_TARGET_DIR``
(default ``.bench_build``).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "wsf-perfbench"
WORKLOADS = ("sim-locality", "sort-child-first", "sort-helper-first", "serve-open")
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_env():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed (exit {proc.returncode})")
    return os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", BINARY)


def run(args):
    env = cargo_env()
    binary = build(env)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode} and no result")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as f:
            row = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "result": result}
            f.write(json.dumps(row) + "\n")
    print(json.dumps(result))


def self_test():
    env = cargo_env()
    cmd = ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    rust = subprocess.run(cmd, env=env).returncode
    py_env = dict(env, PYTHONPATH=HERE, PYTHONDONTWRITEBYTECODE="1")
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests")], env=py_env).returncode
    sys.exit(1 if rust or py else 0)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the result as one JSON line to this file")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two JSON-lines files of runs")
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        self_test()
    elif args.compare:
        sys.dont_write_bytecode = True
        sys.path.insert(0, HERE)
        import compare
        rows = compare.compare(compare.load(args.compare[0]), compare.load(args.compare[1]))
        print(compare.render(rows))
    else:
        if args.workload is None or args.seed is None or args.seconds is None:
            p.error("--workload, --seed and --seconds are required")
        if not 1 <= args.seconds <= 600:
            p.error("--seconds must be between 1 and 600")
        run(args)


if __name__ == "__main__":
    main()
