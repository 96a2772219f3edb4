#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

`--workload all` runs every workload BENCHMARK.json lists, one after
the other, with the same seed.

The benchmark is a dune project of its own (perfbench/_ocaml; the
leading underscore keeps the repository's own build out of it). run.py
assembles a workspace in .bench_build/ from that project and a copy of
the checkout's lib/, builds perf.exe there with dune (only the
libraries it links), runs it under a deadline, checks that its last
stdout line is the result object with exactly the metrics
BENCHMARK.json declares, and exits with the program's status. A build
failure, a missing lib/ or BENCHMARK.json, an overrun or a malformed
result exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

PROJECT = os.path.join("perfbench", "_ocaml")
WORKSPACE = os.path.join(".bench_build", "ws")
EXE = os.path.join(WORKSPACE, "_build", "default", "perf.exe")
# A first run, which builds, must end within 900 s; later runs, whose
# build is a no-op, within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


class Failed(Exception):
    def __init__(self, msg, code=1):
        super().__init__(msg)
        self.code = code


def load_spec():
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Failed("cannot read BENCHMARK.json: %s" % e)


def assemble():
    """Refresh the workspace's sources; its _build stays for reuse."""
    if not os.path.isdir("lib") or not os.path.isdir(PROJECT):
        raise Failed("lib/ or %s not found: run from the root of a checkout"
                     % PROJECT)
    os.makedirs(WORKSPACE, exist_ok=True)
    for name in os.listdir(WORKSPACE):
        if name != "_build":
            path = os.path.join(WORKSPACE, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    for name in os.listdir(PROJECT):
        shutil.copy2(os.path.join(PROJECT, name), WORKSPACE)
    shutil.copytree("lib", os.path.join(WORKSPACE, "lib"))


def build():
    assemble()
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", WORKSPACE, "--display", "quiet",
             "./perf.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            timeout=BUILD_TIMEOUT_S,
        )
    except FileNotFoundError:
        raise Failed("dune is not installed")
    except subprocess.TimeoutExpired:
        raise Failed("build did not finish in %d s" % BUILD_TIMEOUT_S)
    if p.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(p.stdout.decode(errors="replace"))
        raise Failed("build failed")


def run_workload(workload, args, declared):
    """Run one workload; print its lines and result, or raise Failed."""
    cmd = [
        EXE, "run",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failed("deadline: workload %s did not finish in %d s"
                     % (workload, RUN_TIMEOUT_S), code=3)
    lines = p.stdout.decode(errors="replace").rstrip("\n").split("\n")
    if p.returncode != 0:
        # Show the readable lines, never a result object.
        sys.stdout.write("".join(l + "\n" for l in lines
                                 if l and not l.startswith("{")))
        raise Failed("workload %s exited with status %d"
                     % (workload, p.returncode),
                     code=p.returncode if p.returncode > 0 else 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise Failed("last output line is not a JSON object")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise Failed("result object has keys %s" % sorted(result))
    got = [(k, v["unit"]) for k, v in result["metrics"].items()]
    if got != declared:
        raise Failed("metrics %s differ from those BENCHMARK.json declares %s"
                     % (got, declared))
    sys.stdout.write("\n".join(lines) + "\n")
    if not result["correct"]:
        raise Failed("workload %s failed its output checks" % workload)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        spec = load_spec()
        declared = [(m["name"], m["unit"])
                    for m in spec["per_layer" if args.trace else "end_to_end"]]
        workloads = ([w["name"] for w in spec["workloads"]]
                     if args.workload == "all" else [args.workload])
        build()
        for w in workloads:
            run_workload(w, args, declared)
    except Failed as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(e.code)


if __name__ == "__main__":
    main()
