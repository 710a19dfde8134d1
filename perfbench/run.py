"""
eafe-control benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  Each repetition of the workload runs in a fresh process
(``workload.py``); repetitions follow each other in whole rounds that
end within ``--seconds`` seconds, at least one.  With ``--trace 0`` a
round is a set-up-only process and a repetition, and the run reports the
median ``run_s``, ``peak_rss_mb`` and ``setup_s`` of the rounds; with
``--trace 1`` it alternates untraced and traced repetitions and reports
the per-module metrics of ``spans.py`` plus the tracing overhead.  The
last line of standard output is one JSON object; the lines before it
give each metric's median, quartiles and sample count, the failure
ratio, and the environment.  See README.md for the workloads.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import node_ele
import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_PY = os.path.join(BENCH_DIR, "workload.py")
WORKLOADS = ("bl-conv-l8", "stability-sweep-l7", "nodeele-certify-l9")
NODEELE_LEVEL = 9
COEFFICIENT_SETS = ("stability", "boundary-layer", "interior-layer")

#: BLAS/OpenMP threads of every workload process
THREAD_CAP = 1
#: a run must end within 180 s; no repetition may run past this mark
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
COUNT_METRICS = (
    "mesh.triangles", "eafe.assemble_calls", "eafe.bernoulli_evals",
    "sparse_linalg.system_order", "sparse_linalg.system_nnz",
    "sparse_linalg.solve_calls", "verify_norms.certify_rows",
)
PER_LAYER_UNITS = dict(
    [(m, "s") for m in spans.SELF_TIME_METRICS]
    + [(m, "count") for m in COUNT_METRICS]
    + [("sparse_linalg.rss_rise_mb", "MB"),
       ("experiments.bytes_written", "bytes"),
       ("trace.overhead_s", "s")]
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(root, seed):
    nproc = os.cpu_count()
    env = {
        "python": sys.version.split()[0],
        "nproc": nproc,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE")
        * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "thread_cap": min(THREAD_CAP, nproc),
        "seed": seed,
        "commit": git_head(root),
        "src_sha256": tree_digest(os.path.join(root, "src")),
    }
    return env


def git_head(root):
    """Commit of a git checkout, read from .git; None elsewhere."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(root, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip("\n").endswith(" " + ref):
                    return line.split()[0]
    return None


def tree_digest(path):
    """sha256 over the .py files under ``path``, so non-git checkouts are named too."""
    digest = hashlib.sha256()
    for d, dirs, files in sorted(os.walk(path)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                full = os.path.join(d, f)
                digest.update(os.path.relpath(full, path).encode())
                with open(full, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


class Runner:
    """Starts workload processes and collects their results."""

    def __init__(self, root, workdir, workload, started):
        self.root = root
        self.workdir = workdir
        self.workload = workload
        self.started = started
        self.count = 0
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.src = src
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            self.env[var] = str(min(THREAD_CAP, os.cpu_count()))
        self.env["TMPDIR"] = workdir
        self.input_args = []

    def spawn(self, extra):
        """One workload process; returns its result dict, or one with an error."""
        self.count += 1
        result_path = os.path.join(self.workdir, "result-%d.json" % self.count)
        cmd = [sys.executable, WORKLOAD_PY, "--src", self.src,
               "--result", result_path] + extra
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            return {"error": "repetition passed the %.0f s run limit" % RUN_LIMIT_S}
        try:
            with open(result_path) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            return {"error": "exit code %d, no result; stderr:\n%s"
                    % (proc.returncode, proc.stderr.decode(errors="replace"))}
        result["setup_s"] = result["ready_at"] - spawned_at
        return result

    def setup_only(self):
        return self.spawn(["--setup-only"])

    def repetition(self, trace):
        out = os.path.join(self.workdir, "out-%d" % (self.count + 1))
        result = self.spawn(["--workload", self.workload, "--out", out,
                             "--trace", str(trace)] + self.input_args)
        shutil.rmtree(out, ignore_errors=True)
        result["trace"] = trace
        result["failed"] = bool(result.get("error") or result.get("problems"))
        return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def describe(name, values, unit):
    q1, med, q3 = quartiles(values)
    return "  %-32s median %-12.10g q1 %-12.10g q3 %-12.10g n=%d %s" % (
        name, med, q1, q3, len(values), unit)


def run(args):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eafe_control", "__init__.py")):
        sys.exit("perfbench: no src/eafe_control in %s; run from the root of "
                 "an eafe-control source checkout" % root)
    started = time.monotonic()
    work_root = os.path.join(BENCH_DIR, "_work")
    workdir = os.path.join(work_root, "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        return measure(args, root, workdir, work_root, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, workdir, work_root, started):
    runner = Runner(root, workdir, args.workload, started)
    if args.workload == "nodeele-certify-l9":
        path = os.path.join(workdir, "mesh.node_ele")
        expected = node_ele.write_input(path, NODEELE_LEVEL, args.seed)
        expected["coefficient_sets"] = list(COEFFICIENT_SETS)
        expected_path = os.path.join(workdir, "expected.json")
        with open(expected_path, "w") as fh:
            json.dump(expected, fh)
        runner.input_args = ["--input", path, "--expected", expected_path]

    # the first process of a fresh checkout byte-compiles the package
    warm = runner.setup_only()
    if warm.get("error"):
        sys.exit("perfbench: workload process failed to start:\n%s"
                 % warm["error"])
    setup = []
    reps = []
    t0 = time.monotonic()
    while True:
        t_round = time.monotonic()
        if args.trace:
            reps.append(runner.repetition(0))
        else:
            # set-up samples spread over the run, like the repetitions, so
            # that a slow spell of the host weighs on both alike
            setup.append(runner.setup_only())
        reps.append(runner.repetition(args.trace))
        now = time.monotonic()
        last = now - t_round
        # whole rounds only, and none that would end past the run length
        # or the run limit; the first round always runs
        if (now - t0 + last > args.seconds
                or now - started + 1.5 * last > RUN_LIMIT_S):
            break

    failed = [r for r in reps if r["failed"]]
    timed = [r for r in reps if "run_s" in r]
    lines = ["workload=%s seed=%d trace=%d repetitions=%d"
             % (args.workload, args.seed, args.trace, len(reps))]
    for r in failed:
        lines.append("  failed repetition: %s"
                     % (r.get("error") or "; ".join(r["problems"])))
    if not timed or (args.trace and not any(r["trace"] for r in timed)):
        print("\n".join(lines))
        sys.exit("perfbench: no repetition finished")

    if args.trace:
        metrics = traced_metrics(timed, lines)
        units = PER_LAYER_UNITS
        spans_out = [r for r in timed if r["trace"]][-1]
    else:
        started_ok = [r for r in setup + reps
                      if "setup_s" in r and not r.get("error")]
        samples = {
            "run_s": [r["run_s"] for r in timed],
            "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
            "setup_s": [r["setup_s"] for r in started_ok],
        }
        metrics = {}
        for name, values in samples.items():
            lines.append(describe(name, values, END_TO_END_UNITS[name]))
            metrics[name] = statistics.median(values)
        units = END_TO_END_UNITS
        spans_out = None
    lines.append("  %-32s %d/%d = %.4f ratio"
                 % ("fail_ratio", len(failed), len(reps),
                    len(failed) / len(reps)))

    env = environment(root, args.seed)
    env["versions"] = warm["versions"]
    lines.append("env: " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "metrics": metrics,
        "repetitions": [{k: r.get(k) for k in
                         ("trace", "run_s", "peak_rss_mb", "setup_s",
                          "failed", "error", "problems")} for r in reps],
    }
    if spans_out is not None:
        record["spans"] = spans_out["spans"]
        record["counters"] = spans_out["counters"]
    results = os.path.join(work_root, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def traced_metrics(timed, lines):
    traced = [r for r in timed if r["trace"]]
    untraced = [r for r in timed if not r["trace"]]
    per_rep = []
    for r in traced:
        m = spans.layer_metrics(r["spans"], r["counters"])
        m["experiments.bytes_written"] = r.get("bytes_written", 0)
        per_rep.append(m)
        if r.get("not_traced"):
            lines.append("  not traced (missing): %s"
                         % ", ".join(r["not_traced"]))
    metrics = {}
    for name in PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            continue
        values = [m[name] for m in per_rep]
        lines.append(describe(name, values, PER_LAYER_UNITS[name]))
        if name in COUNT_METRICS and len(set(values)) == 1:
            metrics[name] = values[0]  # counts repeat exactly; keep them whole
        else:
            metrics[name] = statistics.median(values)
    traced_s = statistics.median(r["run_s"] for r in traced)
    untraced_s = (statistics.median(r["run_s"] for r in untraced)
                  if untraced else traced_s)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    lines.append("  %-32s %.6g s (traced run_s %.6g s, untraced %.6g s)"
                 % ("trace.overhead_s", metrics["trace.overhead_s"],
                    traced_s, untraced_s))
    return metrics


if __name__ == "__main__":
    sys.exit(run(parse_args()))
