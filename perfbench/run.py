"""Benchmark of the `pwsis` CLI on three workloads.

    python3 perfbench/run.py --workload examples|files|group --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each job is `python -m pwsis.cli ...`
against this checkout's `src`, started one at a time (a closed loop with
one client) through launcher.py, with inherited PWSIS_* and BLAS thread
variables removed and PWSIS_THREADS=1.  The workload's inputs are made
from the seed before any timing; then whole rounds of its jobs run, each
started only while it is expected to end within S seconds (at least one).
Every job's output is checked against computations made by the benchmark
itself (workloads.py).  See README.md.

--trace 0 reports the end-to-end metrics: wall_s (median over rounds of
the summed job wall times), peak_rss_mb (median over rounds of the largest
child peak RSS, from os.wait4) and setup_s (median time of a fresh
interpreter importing every pwsis module).  --trace 1 runs one more round
through trace_boot.py and reports the per-layer metrics instead.  The last
stdout line is one JSON object with correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import trace_boot
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BOOT = BENCH / "trace_boot.py"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5  # before the rounds and again after them

END_TO_END = [("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

CLI_KEYS = ("examples", "check", "synth", "solve", "solve_mask", "pipeline", "project",
            "omega_opt", "compare_lattices", "omega_opt_group", "solve_group_mask",
            "solve_group")

# per module: timed public functions, then counts and peaks with their units
LAYERS = {
    "textio": (["parse_dataset", "format_dataset", "parse_mask", "format_mask"],
               [("values_parsed", "count"), ("parse_values_per_s", "1/s")]),
    "spectral": (["synthesize", "pw_mask", "project_pw", "residual_energy"],
                 [("samples_tested", "count"), ("samples_nonzero", "count")]),
    "fibers": (["gramian_field", "symmetrize", "regrid_to_lattice"],
               [("cells", "count"), ("active_cells", "count"),
                ("symmetrize_peak_mb", "MB")]),
    "solver": (["eigen_field", "best_sis", "best_gamma", "error_against",
                "subspace_length", "project_then_solve", "solve_then_project",
                "refinement_inequality_check"], [("eigen_cells", "count")]),
    "omega": (["energy_density", "best_omega", "best_omega_invariant"],
              [("orbits", "count"), ("best_omega_invariant_peak_mb", "MB")]),
    "lattice": (["make_group", "orbit_partition"], []),
    "examples": (["reproduce_example"], None),
    "suites": (["run_property_suites"], None),
}


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order.  Modules
    with extras None report no self time."""
    out = [("cli.%s_s" % k, "s") for k in CLI_KEYS]
    for mod, (funcs, extras) in LAYERS.items():
        out += [("%s.%s_s" % (mod, f), "s") for f in funcs]
        if extras is not None:
            out += [("%s.%s" % (mod, n), u) for n, u in extras] + [("%s.self_s" % mod, "s")]
    return out + [("trace.overhead_s", "s")]


def job_env(extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PWSIS_") and k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PWSIS_THREADS"] = "1"
    env.update(extra)
    return env


class Launcher:
    """Starts every child through launcher.py, in the work directory and with
    the job environment, so that each child's peak RSS is its own."""

    def __init__(self, env, work):
        self.env, self.work = env, work
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, cmd, name):
        """Run cmd to completion, stdout to work/name and stderr to
        work/name.err; returns (wall s, CPU s, peak RSS MB, exit code)."""
        req = {"cmd": cmd, "env": self.env, "cwd": str(self.work),
               "stdout": str(self.work / name), "stderr": str(self.work / (name + ".err"))}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited early")
        r = json.loads(line)
        return r["wall"], r["cpu"], r["rss_mb"], r["rc"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()  # the launcher ends at the end of its input
        self.proc.wait()


def time_setup(launch, repeats):
    """Wall times of fresh interpreters importing every pwsis module (cli
    first, as the CLI does)."""
    mods = sorted(p.stem for p in (SRC / "pwsis").glob("*.py") if p.stem != "__init__")
    code = "import pwsis.cli\n" + "".join("import pwsis.%s\n" % m for m in mods)
    times = []
    for _ in range(repeats):
        wall, _, _, rc = launch.run([sys.executable, "-c", code], "setup.out")
        if rc != 0:
            raise RuntimeError("importing pwsis failed: %s"
                               % (launch.work / "setup.out.err").read_text()[-500:])
        times.append(wall)
    return times


class Record:
    def __init__(self, key, wall, cpu, rss, ok):
        self.key, self.wall, self.cpu, self.rss, self.ok = key, wall, cpu, rss, ok


def run_round(launch, jobs, mode=None):
    """Run every job once.  mode None runs the CLI directly; 'time' or
    'peak' runs it through the trace bootstrap, writing trace-<i>.json."""
    work = launch.work
    records = []
    for i, job in enumerate(jobs):
        out = work / ("job-%d.out" % i)
        if mode is None:
            cmd = [sys.executable, "-m", "pwsis.cli"] + job.argv
        else:
            cmd = [sys.executable, str(BOOT), str(work / ("trace-%d.json" % i)), mode,
                   "--"] + job.argv
        wall, cpu, rss, rc = launch.run(cmd, out.name)
        ok = rc == 0
        if not ok:
            why = "exit %d: %s" % (rc, Path(str(out) + ".err").read_text()[-400:].strip())
        elif mode != "peak":
            try:
                job.check(out.read_text(), work)
            except Exception as e:  # a check that cannot even run is a failure too
                ok, why = False, "%s: %s" % (type(e).__name__, e)
        if not ok:
            print("FAILED %s (pwsis %s): %s" % (job.key, " ".join(job.argv), why),
                  file=sys.stderr)
        records.append(Record(job.key, wall, cpu, rss, ok))
    return records


def _traces(work, n):
    return [json.loads((work / ("trace-%d.json" % i)).read_text()) for i in range(n)]


def layer_values(rounds, traced, timed, peaked):
    """Per-layer metric values from untraced rounds (cli.*), the traced
    round's spans and counts, and the peak pass."""
    val = {}
    for key in CLI_KEYS:
        per_round = [sum(r.wall for r in rnd if r.key == key) for rnd in rounds]
        val["cli.%s_s" % key] = statistics.median(per_round)
    for tr in timed:
        spans = tr["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            mod = name.split(".")[0]
            val[name + "_s"] = val.get(name + "_s", 0.0) + end - start
            val[mod + ".self_s"] = val.get(mod + ".self_s", 0.0) + end - start - inner
        for key, n in tr["counts"].items():
            val[key] = val.get(key, 0) + n
    for tr in peaked:
        for name, mb in tr["peaks"].items():
            key = name + "_peak_mb"
            val[key] = max(val.get(key, 0.0), mb)
    if val.get("textio.parse_dataset_s"):
        val["textio.parse_values_per_s"] = val["textio.values_parsed"] / val["textio.parse_dataset_s"]
    walls = [sum(r.wall for r in rnd) for rnd in rounds]
    val["trace.overhead_s"] = sum(r.wall for r in traced) - statistics.median(walls)
    return val


def traced_metrics(launch, jobs, rounds):
    """One traced round, then a tracemalloc pass over the jobs that called a
    peak-measured function.  Returns (records, metric values, ok)."""
    traced = run_round(launch, jobs, mode="time")
    timed = _traces(launch.work, len(jobs))
    expected = {"%s.%s" % (mod, f) for mod, (funcs, _) in LAYERS.items() for f in funcs}
    wrapped = set().union(*(tr["wrapped"] for tr in timed))
    missing = sorted(expected - wrapped) + sorted(set().union(*(tr["missing"] for tr in timed)))
    if missing:
        print("missing public functions (reported as 0): %s" % ", ".join(missing),
              file=sys.stderr)
    peak_jobs = [job for job, tr in zip(jobs, timed)
                 if any(s[0] in trace_boot.PEAK for s in tr["spans"])]
    peak = run_round(launch, peak_jobs, mode="peak")
    peaked = _traces(launch.work, len(peak_jobs))
    values = layer_values(rounds, traced, timed, peaked)
    return traced, values, all(r.ok for r in peak)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true",
                   help="reduced input sizes (for the benchmark's own test)")
    p.add_argument("--job-env", action="append", default=[], metavar="KEY=VALUE",
                   help="extra environment variable for the CLI jobs, e.g. a planted fault")
    args = p.parse_args(argv)
    if not (SRC / "pwsis" / "cli.py").is_file():
        print("error: no pwsis source at %s" % (SRC / "pwsis"), file=sys.stderr)
        return 2

    work = BENCH / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = job_env(dict(kv.split("=", 1) for kv in args.job_env))
    jobs = workloads.WORKLOADS[args.workload](work, args.seed, args.small)
    ok_extra = True
    with Launcher(env, work) as launch:
        time_setup(launch, 1)  # compiles bytecode; not timed
        setup_times = time_setup(launch, SETUP_REPEATS)
        # start another round only while it is expected to end within the time
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(launch, jobs))
            spent = time.perf_counter() - start
            if spent * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        setup_times += time_setup(launch, SETUP_REPEATS)
        records = [r for rnd in rounds for r in rnd]
        if args.trace:
            traced, values, ok_extra = traced_metrics(launch, jobs, rounds)
            records += traced
    if args.trace:
        metrics = {name: {"value": values.get(name, 0), "unit": unit}
                   for name, unit in per_layer_metrics()}
    else:
        value = {"wall_s": statistics.median(sum(r.wall for r in rnd) for rnd in rounds),
                 "peak_rss_mb": statistics.median(max(r.rss for r in rnd) for rnd in rounds),
                 "setup_s": statistics.median(setup_times)}
        metrics = {name: {"value": value[name], "unit": unit} for name, unit in END_TO_END}
    for key in dict.fromkeys(job.key for job in jobs):
        mine = [r for r in records[:len(rounds) * len(jobs)] if r.key == key]
        print("job %-16s wall %7.3f s  cpu %7.3f s  rss %7.1f MB  (median of %d)"
              % (key, *(statistics.median(getattr(r, a) for r in mine)
                            for a in ("wall", "cpu", "rss")), len(mine)), file=sys.stderr)
    failed = sum(not r.ok for r in records)
    print("%s: %d rounds, %d jobs, %d failed" % (args.workload, len(rounds), len(records),
                                                 failed), file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and ok_extra, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
