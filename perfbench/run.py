#!/usr/bin/env python3
"""End-to-end benchmark of `dpgreedy serve` and `dpgreedy solve`.

    python3 perfbench/run.py --workload serve_flood --seed 1 --seconds 12 --trace 0

Builds the repository (Release, from its own CMakeLists.txt) and the
benchmark harness under .bench_build/, then runs one workload declared in
perfbench/workloads.json through perfbench_harness, whose last stdout line is
the JSON result.  Build output goes to .bench_build/build.log.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
FILE_API = os.path.join(".cmake", "api", "v1")  # CMake's file API, in a build tree


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_steps(steps, log_path):
    with open(log_path, "a") as log:
        for step in steps:
            log.write("$ " + " ".join(step) + "\n")
            log.flush()
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                fail(f"build step failed: {' '.join(step)} (see {log_path})")


def tool_libraries(repo_tree):
    """The static libraries on the dpgreedy target's link line, in order.

    Read from the CMake file API reply of the repository tree, so the harness
    links exactly what the tool links: a library added by a later commit is
    picked up, and the archive of one it removed is left out.
    """
    reply = os.path.join(repo_tree, FILE_API, "reply")

    def load(name):
        with open(os.path.join(reply, name)) as f:
            return json.load(f)

    index = load(max(n for n in os.listdir(reply) if n.startswith("index-")))
    codemodel = load(index["reply"]["codemodel-v2"]["jsonFile"])
    for target in codemodel["configurations"][0]["targets"]:
        if target["name"] == "dpgreedy":
            tool = load(target["jsonFile"])
            break
    else:
        fail("the repository defines no dpgreedy target")
    tool_dir = os.path.join(repo_tree, tool["paths"]["build"])
    return [os.path.normpath(os.path.join(tool_dir, f["fragment"]))
            for f in tool["link"]["commandFragments"]
            if f["role"] == "libraries" and f["fragment"].endswith(".a")]


def build():
    """Builds dpgreedy and perfbench_harness; returns their paths."""
    for required in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"no {required} at {ROOT}: run from a checkout of the repository")
    repo_tree = os.path.join(BUILD, "dpgreedy")
    bench_tree = os.path.join(BUILD, "perfbench")
    api = os.path.join(repo_tree, FILE_API)
    os.makedirs(os.path.join(api, "query"), exist_ok=True)
    open(os.path.join(api, "query", "codemodel-v2"), "a").close()
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isdir(os.path.join(api, "reply")):
        steps.append(["cmake", "-S", ROOT, "-B", repo_tree,
                      "-DCMAKE_BUILD_TYPE=Release", "-DDPG_BUILD_TESTS=OFF",
                      "-DDPG_BUILD_BENCH=OFF", "-DDPG_BUILD_EXAMPLES=OFF"])
    # Re-runs CMake itself, and so refreshes the file API reply, whenever a
    # CMakeLists.txt of the repository changed.
    steps.append(["cmake", "--build", repo_tree, "--target", "dpgreedy",
                  "-j", jobs])
    run_steps(steps, log_path)
    # Configured on every run: a changed library list relinks the harness.
    libraries = ";".join(tool_libraries(repo_tree))
    run_steps([["cmake", "-S", HERE, "-B", bench_tree,
                "-DCMAKE_BUILD_TYPE=Release", f"-DDPG_LIBS={libraries}"],
               ["cmake", "--build", bench_tree, "-j", jobs]], log_path)
    return (os.path.join(repo_tree, "tools", "dpgreedy"),
            os.path.join(bench_tree, "perfbench_harness"))


def main():
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    declared = spec["workloads"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(declared))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb-reference", action="store_true",
                        help="check against a perturbed reference: every "
                             "launch must then count as failed")
    args = parser.parse_args()
    workload = declared[args.workload]

    dpgreedy, harness = build()
    workdir = os.path.join(BUILD, "runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(workdir)
    os.makedirs(spans_dir, exist_ok=True)
    command = [
        harness, "--dpgreedy", dpgreedy, "--workdir", workdir,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--command", workload["command"], "--feed", workload["feed"],
        "--taxis", str(spec["generator"]["taxis"]),
        "--duration", str(workload["duration"]),
        "--spans-out", os.path.join(spans_dir, f"{args.workload}.tsv"),
    ]
    if "rate_rps" in workload:
        command += ["--rate", str(workload["rate_rps"])]
    if args.perturb_reference:
        command.append("--perturb-reference")
    try:
        sys.stdout.flush()
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
