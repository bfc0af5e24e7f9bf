#!/usr/bin/env python3
"""CLI-level benchmark of the TLP partitioner.

Run from anywhere; paths resolve from this file's location:

    python3 perfbench/run.py --workload powerlaw-tlp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

It builds tlp_cli and perfbench_driver (Release) into .bench_build/ at the
repository root, generates the workload's edge list from --seed, and then

  --trace 0  times untraced `tlp_cli convert` and `tlp_cli partition`
             children and reports the end-to-end metrics;
  --trace 1  also repeats the same library calls in process with one span
             per call (perfbench_driver trace) and reports the per-layer
             metrics.

Every child invocation is checked (see partition_failure); failures are
counted. A failure that leaves nothing to compare with (the first convert,
the traced run, the first partition) ends the call with status 1. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. README.md in this directory maps
each metric to its layer and workload.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
P = 32
CHILD_TIMEOUT_S = 150
MIB = 1024.0 * 1024.0

# Generator arguments (perfbench_driver gen ...) before the seed, per size.
WORKLOADS = {
    "powerlaw-tlp": {
        "algo": "tlp",
        "gen": ["cl", "25000", "200000", "2.2"],
        "tiny": ["cl", "2000", "16000", "2.2"],
        "setup_reps": 9,
    },
    "community-refine": {
        "algo": "tlp+refine",
        "gen": ["sbm", "25000", "200000", "256", "0.95"],
        "tiny": ["sbm", "2000", "16000", "64", "0.95"],
        "setup_reps": 9,
    },
    "ingest-2ps": {
        "algo": "2ps",
        "gen": ["cl", "198000", "1600000", "2.2"],
        "tiny": ["cl", "8000", "64000", "2.2"],
        "setup_reps": 5,
    },
}

# name -> unit. The same names and units as BENCHMARK.json.
END_TO_END = {
    "e2e_s": "s",
    "peak_rss_mb": "MB",
    "rf": "replicas/vertex",
    "balance": "max/mean",
    "setup_s": "s",
    "setup_peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "graph.convert_s": "s",
    "graph.convert_hwm_mb": "MB",
    "graph.load_s": "s",
    "graph.resident_mb": "MB",
    "core.partition_s": "s",
    "core.hwm_delta_mb": "MB",
    "core.stage1_joins": "count",
    "core.stage2_joins": "count",
    "core.stage1_share": "ratio",
    "core.joins_per_s": "1/s",
    "core.restarts": "count",
    "core.peak_frontier": "count",
    "core.super_steps": "count",
    "core.claim_conflicts": "count",
    "refine.s": "s",
    "refine.moves": "count",
    "refine.replicas_removed": "count",
    "refine.removed_per_move": "ratio",
    "refine.passes": "count",
    "refine.rollbacks": "count",
    "refine.heap_rebuilds": "count",
    "baselines.partition_s": "s",
    "baselines.hwm_delta_mb": "MB",
    "baselines.cluster_s": "s",
    "baselines.assign_s": "s",
    "baselines.clusters_formed": "count",
    "partition.validate_s": "s",
    "partition.score_s": "s",
    "partition.write_s": "s",
    "partition.write_mb": "MB",
    "cli.unattributed_s": "s",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds tlp_cli and perfbench_driver; returns paths."""
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/tlp_cli.cpp"):
        if not (ROOT / need).is_file():
            raise BenchError(f"repository source missing: {need}")
    cmake_dir = build_dir() / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    logfile = cmake_dir / "perfbench-build.log"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps.append(["cmake", "--build", str(cmake_dir), "-j", jobs,
                  "--target", "tlp_cli", "perfbench_driver"])
    with open(logfile, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=870).returncode != 0:
                tail = logfile.read_text(errors="replace")[-3000:]
                raise BenchError(f"build failed: {' '.join(cmd)}\n{tail}")
    cli = cmake_dir / "repo" / "tools" / "tlp_cli"
    driver = cmake_dir / "perfbench_driver"
    for exe in (cli, driver):
        if not exe.is_file():
            raise BenchError(f"build produced no {exe}")
    return cli, driver, cmake_dir


# ------------------------------------------------------------- children


def child_env(tmpdir):
    """The environment every child runs with: no TLP_* knob set."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TLP_")}
    env["TMPDIR"] = str(tmpdir)
    return env


class Child:
    """One finished child process: exit code, wall time, peak RSS, output."""

    def __init__(self, cmd, cwd, env):
        out_path = Path(cwd) / "child.stdout"
        err_path = Path(cwd) / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([str(c) for c in cmd], cwd=cwd, env=env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            self.seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def cli_fields(stdout):
    """`key: value` lines of tlp_cli partition's report."""
    return dict(re.findall(r"^(\w+):\s+(.*?)\s*$", stdout, re.MULTILINE))


def check_parts(driver, graph, parts, ref, cwd, env):
    """Re-scores `parts` against `graph` and compares it with `ref`."""
    child = Child([driver, "check", graph, parts, P, ref], cwd, env)
    if child.returncode != 0:
        return None
    return json.loads(child.stdout.strip().splitlines()[-1])


def partition_failure(child, parts_hash, printed, reference):
    """Why a `tlp_cli partition` invocation failed, or None if it passed.

    `reference` holds the first invocation's .parts hash and its re-scored
    rf/balance text (see reference_failure). A later .parts with the same
    bytes has the same per-edge ids, hence the same scores.
    """
    if child.returncode != 0:
        return f"exit status {child.returncode}"
    if printed.get("valid") != "yes":
        return f"valid: {printed.get('valid')}"
    if parts_hash != reference["hash"]:
        return "per-edge partition ids differ from the first invocation"
    if (printed.get("rf"), printed.get("balance")) != (
            reference["rf_text"], reference["balance_text"]):
        return (f"printed rf/balance {printed.get('rf')}/"
                f"{printed.get('balance')} disagree with the .parts "
                f"({reference['rf_text']}/{reference['balance_text']})")
    return None


def reference_failure(scores):
    """Why the first invocation's re-scored .parts (check_parts against the
    traced run's partition) cannot serve as the reference, or None."""
    if scores is None:
        return ".parts missing or unreadable against the graph"
    if not scores["valid"]:
        return "re-scored .parts is not a valid partition"
    if scores["mismatched_edges"] != 0:
        return (f"{scores['mismatched_edges']} edges differ from the traced "
                "run's partition")
    return None


# ---------------------------------------------------------------- trace


def self_us(events):
    """Span id -> self time: its duration minus its children's."""
    own = {ev["args"]["id"]: ev["dur"] for ev in events}
    for ev in events:
        if ev["args"]["parent"] in own:
            own[ev["args"]["parent"]] -= ev["dur"]
    return own


def layer_metrics(events):
    """Per-repetition layer values from the driver's Chrome trace."""
    names = {ev["args"]["id"]: ev["name"] for ev in events}
    own = self_us(events)
    reps = {}
    for ev in events:
        args, name, secs = ev["args"], ev["name"], ev["dur"] / 1e6
        rep = reps.setdefault(args["rep"], {"layer_sum_s": 0.0})
        if names.get(args["parent"]) == "cli.partition":
            rep["layer_sum_s"] += secs
        if name == "graph.convert":
            rep["graph.convert_s"] = secs
            rep["graph.convert_hwm_mb"] = args["hwm_growth_mb"]
        elif name == "graph.load":
            rep["graph.load_s"] = secs
            rep["graph.resident_mb"] = args["resident_mb"]
        elif name == "core.partition":
            # Self time: the registry call minus its refine child spans.
            rep["core.partition_s"] = own[args["id"]] / 1e6
            rep["core.hwm_delta_mb"] = args["hwm_growth_mb"]
            rep.update(telemetry_metrics(args, rep["core.partition_s"]))
        elif name == "baselines.partition":
            rep["baselines.partition_s"] = secs
            rep["baselines.hwm_delta_mb"] = args["hwm_growth_mb"]
            rep.update(telemetry_metrics(args, 0.0))
        elif name == "partition.score":
            rep["partition.score_s"] = secs
        elif name == "partition.validate":
            rep["partition.validate_s"] = secs
        elif name == "partition.write":
            rep["partition.write_s"] = secs
            rep["partition.write_mb"] = args["bytes"] / MIB
    return [reps[k] for k in sorted(reps)]


def telemetry_metrics(args, core_s):
    """Layer metrics from the RunContext counters and timers the partition
    span carries; keys the algorithm never wrote read 0."""
    def get(key):
        return args.get(key, 0.0)
    s1, s2 = get("counter.stage1_joins"), get("counter.stage2_joins")
    moves = get("counter.refine_moves")
    removed = get("counter.refine_replicas_removed")
    return {
        "core.stage1_joins": s1,
        "core.stage2_joins": s2,
        "core.stage1_share": s1 / (s1 + s2) if s1 + s2 else 0.0,
        "core.joins_per_s": (s1 + s2) / core_s if core_s else 0.0,
        "core.restarts": get("counter.restarts"),
        "core.peak_frontier": get("counter.peak_frontier"),
        "core.super_steps": get("counter.super_steps"),
        "core.claim_conflicts": get("counter.claim_conflicts"),
        "refine.s": get("timer.refine_s"),
        "refine.moves": moves,
        "refine.replicas_removed": removed,
        "refine.removed_per_move": removed / moves if moves else 0.0,
        "refine.passes": get("counter.refine_passes"),
        "refine.rollbacks": get("counter.refine_rollbacks"),
        "refine.heap_rebuilds": get("counter.refine_heap_rebuilds"),
        "baselines.cluster_s": get("timer.cluster_s"),
        "baselines.assign_s": get("timer.assign_s"),
        "baselines.clusters_formed": get("counter.clusters_formed"),
    }


def layer_self_times(events):
    """Summed self time per layer (the span name up to its first dot)."""
    own = self_us(events)
    totals = {}
    for ev in events:
        layer = ev["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own[ev["args"]["id"]] / 1e6
    return totals


# ---------------------------------------------------------------- record


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "tools", HERE.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    # A checkout nested inside some other repository is not that commit.
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def environment_record(cmake_dir, env):
    cache = (cmake_dir / "CMakeCache.txt").read_text(errors="replace")
    cached = dict(re.findall(
        r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER|CMAKE_CXX_FLAGS_RELEASE):\w+=(.*)$",
        cache, re.MULTILINE))
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "build_type": cached.get("CMAKE_BUILD_TYPE"),
        "cxx_compiler": cached.get("CMAKE_CXX_COMPILER"),
        "cxx_flags_release": cached.get("CMAKE_CXX_FLAGS_RELEASE"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "tlp_vars_removed": sorted(k for k in os.environ if k.startswith("TLP_")),
        "child_env": {k: env[k] for k in ("TMPDIR", "PATH", "LANG", "LC_ALL")
                      if k in env},
    }


# ------------------------------------------------------------------ run


def run_workload(args, cli, driver, cmake_dir, tiny=False):
    spec = WORKLOADS[args.workload]
    algo = spec["algo"]
    work = cmake_dir.parent / "work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = child_env(work / "tmp")
    edges, graph, parts = work / "edges.txt", work / "graph.tlpc", work / "cli.parts"
    attempted = failed = 0
    failures = []
    phases = {}
    mark = time.perf_counter()

    def count(what, reason):
        nonlocal attempted, failed
        attempted += 1
        if reason is not None:
            failed += 1
            if len(failures) < 20:
                failures.append(f"{what}: {reason}")
        return reason is None

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    # Inputs, untimed.
    gen = Child([driver, "gen", *spec["tiny" if tiny else "gen"], args.seed,
                 edges], work, env)
    if gen.returncode != 0:
        raise BenchError(f"input generation failed: {gen.stderr}")
    phase("generate")

    # Set-up: an untimed warm-up convert, then timed ones; every convert
    # must write the same .tlpc bytes.
    setup_times, setup_rss, tlpc_hash = [], [], None
    for i in range(1 + (2 if tiny else spec["setup_reps"])):
        graph.unlink(missing_ok=True)
        child = Child([cli, "convert", edges, graph], work, env)
        digest = sha256(graph) if graph.is_file() else None
        tlpc_hash = tlpc_hash or digest
        ok = count("convert", f"exit status {child.returncode}"
                   if child.returncode else
                   None if digest and digest == tlpc_hash else
                   "missing or different .tlpc")
        if i == 0 and not ok:
            raise BenchError(f"first convert failed: {child.stderr[-2000:]}")
        if i > 0 and ok:
            setup_times.append(child.seconds)
            setup_rss.append(child.peak_rss_mb)
    phase("setup")

    # The traced run: the same library calls in process, one span per call.
    # Its partition is the reference for every CLI invocation.
    trace_json = work / "trace.json"
    traced = Child([driver, "trace", edges, work, algo, P, args.seed,
                    3 if args.trace else 1, args.workload, trace_json],
                   work, env)
    if traced.returncode != 0:
        raise BenchError(f"traced run failed: {traced.stderr[-2000:]}")
    events = json.loads(trace_json.read_text())["traceEvents"]
    count("trace", None if sha256(work / "trace.tlpc") == tlpc_hash else
          "in-process convert wrote a different .tlpc than tlp_cli convert")
    phase("trace")

    def partition():
        parts.unlink(missing_ok=True)
        child = Child([cli, "partition", graph, algo, P, args.seed, parts],
                      work, env)
        digest = sha256(parts) if parts.is_file() else None
        return child, digest, cli_fields(child.stdout)

    # End to end: an untimed warm-up invocation, compared edge by edge with
    # the traced partition, then timed invocations for --seconds.
    child, digest, printed = partition()
    reason = f"exit status {child.returncode}" if child.returncode else None
    if reason is None:
        scores = (check_parts(driver, graph, parts, work / "trace.parts",
                              work, env) if digest else None)
        reason = reference_failure(scores)
    if reason is None:
        reference = {"hash": digest, "rf_text": scores["rf_text"],
                     "balance_text": scores["balance_text"]}
        reason = partition_failure(child, digest, printed, reference)
    if not count("partition", reason):
        raise BenchError(f"first partition invocation failed: {reason}\n"
                         f"{child.stderr[-2000:]}")
    phase("first_partition")

    e2e_times, e2e_rss = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(e2e_times) < 3:
        if time.perf_counter() > deadline + 60:
            raise BenchError("fewer than 3 invocations passed: "
                             + "; ".join(failures))
        child, digest, printed = partition()
        if count("partition", partition_failure(child, digest, printed,
                                                reference)):
            e2e_times.append(child.seconds)
            e2e_rss.append(child.peak_rss_mb)
    phase("timed_partitions")

    e2e = {
        "e2e_s": statistics.median(e2e_times),
        "peak_rss_mb": statistics.median(e2e_rss),
        "rf": scores["rf"],
        "balance": scores["balance"],
        "setup_s": statistics.median(setup_times),
        "setup_peak_rss_mb": statistics.median(setup_rss),
        "ok_frac": (attempted - failed) / attempted,
    }
    per_rep = layer_metrics(events)
    layers = {name: statistics.median(r.get(name, 0.0) for r in per_rep)
              for name in PER_LAYER if name != "cli.unattributed_s"}
    layers["cli.unattributed_s"] = e2e["e2e_s"] - statistics.median(
        r["layer_sum_s"] for r in per_rep)

    result = {
        "workload": args.workload,
        "algo": algo,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": tiny,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "fail_frac": failed / attempted,
        "phase_s": phases,
        "samples": {"e2e_s": e2e_times, "setup_s": setup_times,
                    "peak_rss_mb": e2e_rss, "setup_peak_rss_mb": setup_rss},
        "end_to_end": e2e,
        "per_layer": layers,
        "layer_self_s": layer_self_times(events),
        "environment": environment_record(cmake_dir, env),
    }
    results = cmake_dir.parent / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    shutil.copyfile(trace_json, results / f"{stem}.trace.json")
    shutil.rmtree(work, ignore_errors=True)
    return result


def print_tables(result):
    e2e, layers = result["end_to_end"], result["per_layer"]
    n = len(result["samples"]["e2e_s"])
    print(f"workload {result['workload']} ({result['algo']}, p={P}); "
          f"{result['attempted']} invocations, {result['failed']} failed")
    print("end to end (untraced tlp_cli children; times are medians of "
          f"{n} partition and {len(result['samples']['setup_s'])} convert runs)")
    for name, unit in END_TO_END.items():
        print(f"  {name:<28} {e2e[name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<28} {result['fail_frac']:>14.6g} ratio")
    print("per layer (traced in-process run; medians over repetitions)")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<28} {layers[name]:>14.6g} {unit}")
    print("layer self time (all repetitions, convert included)")
    for layer, secs in sorted(result["layer_self_s"].items()):
        print(f"  {layer:<28} {secs:>14.6g} s")
    for line in result["failures"]:
        print(f"  FAILED {line}")


def final_line(result, trace):
    names = PER_LAYER if trace else END_TO_END
    source = result["per_layer"] if trace else result["end_to_end"]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": source[k], "unit": u} for k, u in names.items()},
    })


# ----------------------------------------------------------- self-check


def require(condition, what):
    if not condition:
        raise BenchError(f"self-check failed: {what}")


def self_check(cli, driver, cmake_dir):
    """Tiny-size run of every workload, traced and untraced, plus a check
    that a corrupted .parts is counted as a failure."""
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            require(listed == table, f"BENCHMARK.json {key} != run.py's")
        require(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
                "BENCHMARK.json workloads != run.py's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=3, seconds=1,
                                      trace=trace)
            result = run_workload(args, cli, driver, cmake_dir, tiny=True)
            print_tables(result)
            line = json.loads(final_line(result, trace))
            names = PER_LAYER if trace else END_TO_END
            require(line["correct"] and line["failed"] == 0, result["failures"])
            require(set(line["metrics"]) == set(names), workload)
            for name, unit in names.items():
                metric = line["metrics"][name]
                require(metric["unit"] == unit, name)
                require(isinstance(metric["value"], float | int), name)
            require(result["end_to_end"]["rf"] > 1.0, workload)
            require(result["end_to_end"]["ok_frac"] == 1.0, workload)
    corruption_check(cli, driver, cmake_dir)
    print("self-check passed")


def corruption_check(cli, driver, cmake_dir):
    """Flips one edge's partition id in a good .parts: both the first
    invocation's full check and the later invocations' check must report a
    failure."""
    work = cmake_dir.parent / "work" / "corruption"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    env = child_env(work / "tmp")
    edges, graph = work / "edges.txt", work / "graph.tlpc"
    good, bad = work / "good.parts", work / "bad.parts"
    for cmd in ([driver, "gen", *WORKLOADS["powerlaw-tlp"]["tiny"], 5, edges],
                [cli, "convert", edges, graph]):
        require(Child(cmd, work, env).returncode == 0, cmd)
    child = Child([cli, "partition", graph, "tlp", P, 5, good], work, env)
    printed = cli_fields(child.stdout)
    scores = check_parts(driver, graph, good, good, work, env)
    require(reference_failure(scores) is None, "a good .parts failed the full check")
    reference = {"hash": sha256(good), "rf_text": scores["rf_text"],
                 "balance_text": scores["balance_text"]}
    require(partition_failure(child, sha256(good), printed, reference) is None,
            "a good .parts failed the per-invocation check")

    lines = good.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    u, v, part = lines[row].split()
    lines[row] = f"{u} {v} {(int(part) + 1) % P}\n"
    bad.write_text("".join(lines))
    require(partition_failure(child, sha256(bad), printed, reference),
            "corrupted .parts passed the per-invocation check")
    corrupted = check_parts(driver, graph, bad, good, work, env)
    require(corrupted is not None and corrupted["mismatched_edges"] == 1,
            f"one flipped edge not found: {corrupted}")
    require(reference_failure(corrupted),
            "corrupted .parts passed the full check")
    shutil.rmtree(work, ignore_errors=True)
    print("corruption check: a one-edge flip is counted as a failure")


# ----------------------------------------------------------------- main


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    try:
        cli, driver, cmake_dir = build()
        if args.self_check:
            self_check(cli, driver, cmake_dir)
            return 0
        result = run_workload(args, cli, driver, cmake_dir)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print_tables(result)
    print(final_line(result, args.trace), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
