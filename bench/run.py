"""The letterbraid benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; stdlib only.  Each pass of a workload runs
in a fresh interpreter (``bench/worker.py``) so no module-global cache
carries work from one pass to the next, and the passes run one after
another: one client, closed loop.  A run makes one or two input sets from
the seed and runs each of them once a round, for whole rounds until the
timed items add up to ``--seconds``; an item's latency is the median over
the rounds of its repeated cold runs.  Every answer is checked outside the
timed region.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of a traced run, which alternates untraced and traced
passes over the same inputs and reports the difference as the tracing
overhead.  Lines before it, starting with ``#``, are for people: run
metadata, every metric with its unit, ``error_rate``, the tail percentile
used, and the known-defect probes.  See ``bench/README.md``.

``--write-reference`` records the digests of pass 0 at seed 0 in
``bench/reference.json``; do that only for a deliberate output change.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH, "reference.json")
WORKLOADS = ("free_eval", "presented_build", "quotient_queries", "cli_session")
REFERENCE_SEED = 0
RUN_LIMIT_S = 165.0          # stop starting passes well inside 180 s
# Input sets per run.  Every pass of a set has the same inputs, so each
# item is timed once a round, and its median over the rounds is its
# latency: a stretch of seconds in which the shared host runs slowly moves
# one sample of each item it covers, not the item's latency.
INPUT_SETS = {"free_eval": 2, "presented_build": 1, "quotient_queries": 1, "cli_session": 2}
# Untraced runs make at least this many rounds, so that an item's median
# has three samples and at least ten timings of every workload lie beyond
# the tail percentile.
MIN_ROUNDS = 3
TAIL_PERCENTILE = 90.0
# The shared host's speed drifts by up to 1.8x over tens of seconds, longer
# than a run.  So every timing is scaled to a reference pace: the worker
# times a fixed piece of list, dict and integer work (``worker.pace_ms``)
# before and after each item, and an item that took ``ms`` while the
# probe took ``pace`` counts as ``ms * PACE_REF_MS / pace``.  PACE_REF_MS
# is about what the probe takes on a quiet 2-vCPU host, so the figures
# read as milliseconds there.  The probe runs no letterbraid code, so a
# change to the program moves the scaled figures as much as the raw ones.
PACE_REF_MS = 0.6

sys.path.insert(0, BENCH)
import inputs  # noqa: E402
import worker as worker_mod  # noqa: E402


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)   # never run the program under -O
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(workload, seed, pass_index, mode, deadline):
    out = os.path.join(OUT, workload, f"{mode}-{pass_index}")
    os.makedirs(out, exist_ok=True)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(pass_index), "--mode", mode, "--out", out]
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass {pass_index} ({mode}) ran past the run limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass {pass_index} ({mode}) exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["input_set"] = pass_index
    return result


def load_reference():
    if not os.path.exists(REFERENCE):
        return {}
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def grade_digests(workload, seed, pass_index, records, reference):
    """Compare canonical-output digests with the stored reference: by key
    for presented_build (its outputs do not depend on the seed), by
    position for pass 0 of the reference seed otherwise."""
    ref = reference.get(workload)
    if not ref:
        return
    for i, rec in enumerate(records):
        if rec["error"] is not None:
            continue
        if workload == "presented_build":
            want = ref.get(rec["key"])
        elif seed == REFERENCE_SEED and pass_index == 0 and i < len(ref):
            want = ref[i]
        else:
            want = None
        if want is not None and rec["digest"] != want:
            rec["error"] = f"output digest {rec['digest']} differs from reference {want}"


def grade_repeats(passes):
    """Every pass of an input set must give the same outputs as its first."""
    first = {}
    for p in passes:
        for i, rec in enumerate(p["items"]):
            if rec["error"] is not None:
                continue
            want = first.setdefault((p["input_set"], i), rec["digest"])
            if rec["digest"] != want:
                rec["error"] = f"output digest {rec['digest']} differs from {want} of round 0"


def percentile(values, pct):
    """Linear interpolation between the order statistics of ``values``."""
    ordered = sorted(values)
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def probe_known_defects(deadline):
    """Run each known-defect input once through the CLI, outside the timed
    loop, and grade it like any cli_session item."""
    results = []
    files_dir = os.path.join(OUT, "cli_session", "probes")
    for probe in inputs.KNOWN_DEFECT_PROBES:
        worker_mod.write_files(probe["files"], files_dir)
        argv = worker_mod.cli_argv(probe["argv"], files_dir)
        proc = subprocess.run([sys.executable, "-m", "letterbraid.cli", *argv],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=max(5.0, deadline - time.monotonic()))
        try:
            worker_mod.grade_cli({"cmd": argv[0], "expect": probe["expect"]},
                                 (proc.returncode, proc.stdout, proc.stderr))
            error = None
        except worker_mod.Wrong as exc:
            error = str(exc)
        results.append({"name": probe["name"], "exit": proc.returncode, "error": error,
                        "known": probe["known"]})
    return results


def interpreter_ms(repeats=9):
    """Median milliseconds of ``python -c pass`` and of
    ``python -c "import letterbraid"``, run alternately so drift in machine
    speed hits both alike."""
    times = {"pass": [], "import letterbraid": []}
    for _ in range(repeats):
        for code, runs in times.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True)
            runs.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times["pass"]), statistics.median(times["import letterbraid"])


def git_commit():
    """The checked-out commit, read from .git without running git; None in
    a checkout that is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_passes(workload, seed, seconds, trace, deadline):
    """Returns (passes, base passes) where each pass is a worker result
    tagged with its input set.
    Untraced: rounds of one pass per input set, until the timed items reach
    ``seconds`` and at least MIN_ROUNDS have run.
    Traced: input set 0 untraced then traced, repeated until ``seconds`` of
    wall time have passed, so that every traced pass does the same work."""
    passes, bases = [], []
    timed = 0.0
    rounds = 0
    base_mode = "inproc" if workload == "cli_session" else "timed"
    first = time.monotonic()
    while True:
        started = time.monotonic()
        if trace:
            bases.append(run_worker(workload, seed, 0, base_mode, deadline))
            passes.append(run_worker(workload, seed, 0, "traced", deadline))
            timed = time.monotonic() - first
        else:
            for input_set in range(INPUT_SETS[workload]):
                passes.append(run_worker(workload, seed, input_set, "timed", deadline))
                timed += passes[-1]["timed_s"]
        rounds += 1
        round_wall = time.monotonic() - started
        enough = timed >= seconds and (trace or rounds >= MIN_ROUNDS)
        if enough or time.monotonic() + round_wall > deadline:
            return passes, bases


def end_to_end(workload, passes, paced=True):
    """Each item's latency is the median of its timings over the rounds;
    the metrics are read off those per-item latencies.  ``paced`` scales
    every timing to the reference pace; unscaled figures are printed for
    people only."""
    def scale(pace):
        return PACE_REF_MS / pace if paced else 1.0
    timings = {}
    for p in passes:
        for i, rec in enumerate(p["items"]):
            timings.setdefault((p["input_set"], i), []).append(rec["ms"] * scale(rec["pace_ms"]))
    latencies = [statistics.median(ms) for ms in timings.values()]
    samples = sum(len(ms) for ms in timings.values())
    metrics = {
        "items_per_s": len(latencies) / (sum(latencies) / 1000.0),
        "item_p50_ms": statistics.median(latencies),
        "item_tail_ms": percentile(latencies, TAIL_PERCENTILE),
        "setup_s": statistics.median(p["setup_s"] * scale(p["setup_pace_ms"]) for p in passes),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024.0,
    }
    beyond = samples * (100.0 - TAIL_PERCENTILE) / 100.0
    return metrics, {"tail_percentile": TAIL_PERCENTILE, "items": len(latencies),
                     "samples": samples, "beyond": beyond}


def per_layer(workload, passes, bases):
    names = passes[0]["layers"].keys()
    metrics = {name: statistics.median(p["layers"][name] for p in passes) for name in names}
    # each traced pass against the untraced pass run just before it
    walls = [(p["setup_s"] + p["timed_s"], b["setup_s"] + b["timed_s"])
             for p, b in zip(passes, bases)]
    metrics["trace.overhead_s"] = statistics.median(t - b for t, b in walls)
    metrics["trace.overhead_ratio"] = statistics.median((t - b) / b for t, b in walls)
    interp, with_import = interpreter_ms()
    metrics["cli.interp_ms"] = interp
    metrics["cli.import_ms"] = with_import - interp
    metrics["cli.main_ms"] = statistics.median(
        rec["ms"] for p in bases for rec in p["items"]) if workload == "cli_session" else 0.0
    return metrics


def write_reference(deadline):
    reference = {"seed": REFERENCE_SEED}
    for workload in WORKLOADS:
        result = run_worker(workload, REFERENCE_SEED, 0, "timed", deadline)
        bad = [r for r in result["items"] if r["error"]]
        if bad:
            raise BenchError(f"{workload}: {len(bad)} items failed; not recording: {bad[0]}")
        if workload == "presented_build":
            reference[workload] = {r["key"]: r["digest"] for r in result["items"]}
        else:
            reference[workload] = [r["digest"] for r in result["items"]]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    # Terminating the run stops its worker too: an exception raised while
    # subprocess.run waits makes it kill and reap the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit("bench: terminated"))
    if not os.path.exists(os.path.join(SRC, "letterbraid", "__init__.py")):
        sys.exit(f"bench: no letterbraid sources under {SRC}; run from a checkout")
    if not args.workload and not args.write_reference:
        ap.error("--workload is required")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    # Compile once, so imports measure an installed user's start.
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "letterbraid")],
                   check=True, stdout=subprocess.DEVNULL)
    try:
        if args.write_reference:
            write_reference(deadline)
            return
        workload = args.workload
        passes, bases = run_passes(workload, args.seed, args.seconds, args.trace, deadline)
        probes = probe_known_defects(deadline) if workload == "cli_session" else []
        reference = load_reference()
        every = passes + bases
        for p in every:
            grade_digests(workload, args.seed, p["input_set"], p["items"], reference)
        grade_repeats(every)
        if args.trace:
            metrics, tail_info, raw = per_layer(workload, passes, bases), {}, {}
            wanted = spec["per_layer"]
        else:
            metrics, tail_info = end_to_end(workload, passes)
            raw, _ = end_to_end(workload, passes, paced=False)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        sys.exit(f"bench: {exc}")

    records = [rec for p in every for rec in p["items"]]
    failed = [rec for rec in records if rec["error"]]
    # a probe may fail only in its recorded way (or start passing)
    unknown = [p for p in probes if p["error"] not in (None, p["known"])]
    absent = sorted({name for p in passes for name in p.get("absent", [])})
    meta = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "base_passes": len(bases),
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "commit": git_commit(),
        "optimize": sorted({p["optimize"] for p in every}),
        "cross_check": sorted({str(p["cross_check"]) for p in every}),
        "checks_s": sum(p["checks_s"] for p in every),
        "pace_ms": statistics.median(rec["pace_ms"] for p in every for rec in p["items"]),
        "pace_ref_ms": PACE_REF_MS,
        "wall_s": time.monotonic() - started,
    }
    print("# meta " + json.dumps(meta))
    for rec in failed[:20]:
        print(f"# failed {rec['kind']}: {rec['error'].splitlines()[0]}")
    for p in probes:
        status = "ok" if p["error"] is None else f"FAILS ({p['error']})"
        print(f"# known-defect probe {p['name']}: exit {p['exit']}, {status}")
    if absent:
        print("# absent boundaries (metrics read 0): " + ", ".join(absent))
    errors = len(failed) + sum(1 for p in probes if p["error"])
    print(f"# error_rate {errors / (len(records) + len(probes)):.6g} ratio "
          f"({errors} of {len(records)} items and {len(probes)} probes)")
    if tail_info:
        print(f"# item_tail_ms is p{tail_info['tail_percentile']:g} of the latencies of "
              f"{tail_info['items']} items, from {tail_info['samples']} timings "
              f"({tail_info['beyond']:g} beyond it)")
    out_metrics = {}
    for m in wanted:
        if m["name"] not in metrics:
            sys.exit(f"bench: metric {m['name']} was not measured")
        out_metrics[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        unscaled = (f" (unscaled {raw[m['name']]:.6g})"
                    if raw.get(m["name"], metrics[m["name"]]) != metrics[m["name"]] else "")
        print(f"# {m['name']} {metrics[m['name']]:.6g} {m['unit']}{unscaled}")
    print(json.dumps({"correct": not failed and not unknown, "attempted": len(records),
                      "failed": len(failed), "metrics": out_metrics}))


if __name__ == "__main__":
    main()
