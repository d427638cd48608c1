"""groupca benchmark: run one workload through the CLI and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --selftest

Each workload (see ``workloads.py``) is a seeded list of ``groupca`` CLI
jobs, run in this process through ``groupca.cli.run_job``, one after
another.  After set-up and one untimed warm-up job, the benchmark repeats
passes over the job list for ``--seconds`` (at least two passes), checks
every report, and prints a summary followed, on the last line, by one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` splits the
time between untraced and traced passes and reports the per-layer metrics
of ``tracer.py``.  Spans, environment records and the full summary are
written under ``.perfbench_work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 2
ORACLE_SAMPLE = 16


def import_groupca():
    """Import groupca from this checkout's ``src``, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "groupca" / "__init__.py").is_file():
        sys.exit("perfbench: no groupca sources under %s" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import groupca.cli

    if Path(groupca.__file__).resolve().parent != (src / "groupca").resolve():
        sys.exit("perfbench: imported groupca from %s, not from %s" % (groupca.__file__, src))
    return groupca


def worker_count():
    return min(2, len(os.sched_getaffinity(0)))


def setup(name, seed, tiny):
    """Import groupca, generate the workload's inputs and write its files."""
    started = time.perf_counter()
    groupca = import_groupca()
    workdir = WORK / ("%s-seed%d" % (name, seed))
    workdir.mkdir(parents=True, exist_ok=True)
    wl = workloads.build(name, seed, workdir, worker_count(), tiny)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    return time.perf_counter() - started, wl, groupca


def setup_seconds(name, seed, tiny, reps):
    """Median set-up time over ``reps`` fresh interpreters (so the import is cold each time)."""
    samples = []
    for _ in range(reps):
        argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", name, "--seed", str(seed)]
        done = subprocess.run(argv + (["--tiny"] if tiny else []), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


@dataclass
class Record:
    latency: float
    code: object  # exit status, or a description of the exception that replaced it
    text: str
    error: str


def run_one(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run_job(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = "SystemExit(%r)" % (exc.code,)
    except Exception as exc:  # a job that crashes is a failed job, not a failed benchmark
        code = "%s: %s" % (type(exc).__name__, exc)
    latency = time.perf_counter() - started
    return Record(latency, code, out.getvalue(), err.getvalue().strip())


@dataclass
class Pass:
    wall: float
    records: list
    traced: bool


def run_pass(wl, cli, tracer=None):
    gc.collect()
    records = []
    started = time.perf_counter()
    for i, job in enumerate(wl.jobs):
        if tracer is not None:
            tracer.job = i
        records.append(run_one(cli, job.argv))
    return Pass(time.perf_counter() - started, records, tracer is not None)


@dataclass
class Result:
    name: str
    seed: int
    trace: int
    wl: object
    passes: list
    setup_s: float
    failures: list = field(default_factory=list)
    attempted: int = 0
    tracer: object = None
    metrics: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    def fail(self, where, job_index, problem):
        self.failures.append({"where": where, "job": job_index, "argv": self.wl.jobs[job_index].argv,
                              "problem": problem})


def _check_pass(result, number, p):
    first = result.passes[0].records
    for i, (job, rec) in enumerate(zip(result.wl.jobs, p.records)):
        result.attempted += 1
        problem = checks.check_report(job, rec.code, rec.text)
        if problem and rec.error:
            problem += " (%s)" % rec.error.splitlines()[-1]
        if problem is None and rec.text != first[i].text:
            problem = "report differs from pass 1"
        if problem:
            result.fail("pass %d" % number, i, problem)


def _run_passes(result, cli, until, minimum, tracer=None):
    walls = []
    while len(walls) < minimum or time.perf_counter() + statistics.median(walls) <= until:
        p = run_pass(result.wl, cli, tracer)
        result.passes.append(p)
        walls.append(p.wall)
        _check_pass(result, len(result.passes), p)


def _cross_checks(result, cli):
    """Checks outside the timed passes: worker-count independence and the sympy oracle."""
    first = result.passes[0].records
    for i, job in result.wl.rerun_single_worker():
        rec = run_one(cli, job.argv)
        result.attempted += 1
        problem = checks.check_report(job, rec.code, rec.text)
        if problem is None and rec.text != first[i].text:
            problem = "report differs between --workers 1 and --workers %d" % result.wl.workers
        if problem:
            result.fail("workers 1", i, problem)
    sample = [i for i, job in enumerate(result.wl.jobs)
              if job.check in ("star", "embed") and job.expect["field"] in ("q", "f5")
              and checks.check_report(job, first[i].code, first[i].text) is None]
    if sample:
        from reference import StarOracle

        oracle = StarOracle()
        rng = random.Random("oracle:%d" % result.seed)
        for i in sorted(rng.sample(sample, min(ORACLE_SAMPLE, len(sample)))):
            problem = checks.oracle_check(oracle, result.wl.jobs[i], first[i].text)
            if problem:
                result.fail("sympy oracle", i, problem)


def measure(name, seed, seconds, trace, tiny=False, setup_reps=SETUP_REPS):
    setup_s = setup_seconds(name, seed, tiny, setup_reps)
    _, wl, groupca = setup(name, seed, tiny)
    cli = groupca.cli
    result = Result(name, seed, trace, wl, [], setup_s)
    run_one(cli, wl.jobs[wl.warmup].argv)
    started = time.perf_counter()
    if not trace:
        _run_passes(result, cli, started + seconds, MIN_PASSES)
    else:
        _run_passes(result, cli, started + seconds / 2, 1)
        result.tracer = tracing.Tracer()
        result.tracer.install()
        try:
            _run_passes(result, cli, started + seconds, 1, result.tracer)
        finally:
            result.tracer.uninstall()
    _cross_checks(result, cli)
    _metrics(result)
    return result


def _median_over(passes, per_pass):
    return statistics.median(per_pass(p) for p in passes)


def _metrics(result):
    plain = [p for p in result.passes if not p.traced]
    traced = [p for p in result.passes if p.traced]
    latencies = [r.latency for p in plain for r in p.records]
    jobs = result.wl.jobs
    docs = [json.loads(r.text) if r.text else {} for r in result.passes[0].records]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall = _median_over(plain, lambda p: p.wall)
    s = {
        "wall_s": (wall, "s", "median of %d passes of %d jobs: %s" % (
            len(plain), len(jobs), " ".join("%.3f" % p.wall for p in plain))),
        "job_p50_s": (statistics.median(latencies), "s", "%d job samples" % len(latencies)),
        "setup_s": (result.setup_s, "s", "median of %d set-ups" % SETUP_REPS),
        "peak_rss_mb": (max(own, children) / 1024.0, "MB", "self %.1f MB, children %.1f MB" % (own / 1024.0, children / 1024.0)),
        "fail_frac": (len(result.failures) / result.attempted, "ratio",
                      "%d failed of %d attempted" % (len(result.failures), result.attempted)),
    }
    if len(latencies) >= 1000:
        p99 = statistics.quantiles(latencies, n=100)[98]
        s["job_p99_s"] = (p99, "s", "%d job samples, %d beyond" % (len(latencies), sum(x > p99 for x in latencies)))
    searches = [i for i, job in enumerate(jobs) if job.check == "search"]
    if searches:
        betas = sum(docs[i].get("space_size", 0) for i in searches)
        rate = _median_over(plain, lambda p: betas / sum(p.records[i].latency for i in searches))
        s["betas_per_s"] = (rate, "1/s", "%d beta per pass" % betas)
    certificates = [i for i, job in enumerate(jobs) if job.check == "sofic"]
    if certificates:
        vertex_checks = 3 * sum(docs[i].get("counts", {}).get("V", 0) for i in certificates)
        rate = _median_over(plain, lambda p: vertex_checks / sum(p.records[i].latency for i in certificates))
        s["vertex_checks_per_s"] = (rate, "1/s", "%d vertex checks per pass" % vertex_checks)
    stars = [i for i, job in enumerate(jobs) if job.check == "star"]
    if stars:
        products = 2 * len(stars)
        rate = _median_over(plain, lambda p: products / sum(p.records[i].latency for i in stars))
        s["products_per_s"] = (rate, "1/s", "%d products per pass" % products)
        latencies = [p.records[i].latency for p in plain for i in stars]
        s["star_p50_s"] = (statistics.median(latencies), "s", "%d star job samples" % len(latencies))
        if len(latencies) >= 1000:
            p99 = statistics.quantiles(latencies, n=100)[98]
            s["star_p99_s"] = (p99, "s", "%d star job samples, %d beyond" % (
                len(latencies), sum(x > p99 for x in latencies)))
    if traced:
        traced_wall = statistics.median(p.wall for p in traced)
        overhead = traced_wall / wall - 1
        report_bytes = sum(len(r.text.encode()) for p in traced for r in p.records)
        s["trace.traced_wall_s"] = (traced_wall, "s", "median of %d traced passes" % len(traced))
        result.metrics = tracing.per_layer(result.tracer, len(traced), report_bytes, overhead)
    else:
        bench = _benchmark_spec()
        result.metrics = {m["name"]: {"value": s[m["name"]][0], "unit": s[m["name"]][1]} for m in bench["end_to_end"]}
    result.summary = s


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def environment(result):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    import groupca

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": result.wl.workers,
        "seed": result.seed,
        "commit": commit,
        "groupca": groupca.__version__,
    }


def report(result):
    env = environment(result)
    print("# groupca benchmark: workload=%s seed=%d trace=%d passes=%d" % (
        result.name, result.seed, result.trace, len(result.passes)))
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit, note) in result.summary.items():
        print("%-22s %14.6f %-5s %s" % (name, value, unit, note))
    for f in result.failures[:20]:
        print("FAILED %(where)s job %(job)d: %(problem)s" % f, file=sys.stderr)
    final = {
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": result.metrics,
    }
    stem = "%s-seed%d-trace%d" % (result.name, result.seed, result.trace)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    plain = [p for p in result.passes if not p.traced]
    job_medians = [statistics.median(p.records[i].latency for p in plain) for i in range(len(result.wl.jobs))]
    record = {"env": env, "summary": {k: {"value": v, "unit": u, "note": n} for k, (v, u, n) in result.summary.items()},
              "job_median_s": [[" ".join(job.argv), t] for job, t in zip(result.wl.jobs, job_medians)],
              "failures": result.failures, "result": final}
    (WORK / "results" / (stem + ".json")).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    if result.tracer is not None:
        result.tracer.write_jsonl(WORK / ("trace-%s-seed%d.jsonl" % (result.name, result.seed)))
    print(json.dumps(final, sort_keys=True))


def selftest():
    """Tiny inputs: metric names and units, self times within the traced wall, checks that can fail."""
    bench = _benchmark_spec()
    problems = []
    for name in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(name, 1, 0, trace, tiny=True, setup_reps=1)
            if result.failures:
                problems.append("%s trace=%d: %r" % (name, trace, result.failures[:3]))
            for m in bench[group]:
                got = result.metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append("%s trace=%d: metric %s missing or without unit" % (name, trace, m["name"]))
            if trace:
                total_self = sum(result.tracer.self_times())
                traced_wall = sum(p.wall for p in result.passes if p.traced)
                if not 0 < total_self <= traced_wall:
                    problems.append("%s: self times %.6f s exceed traced wall %.6f s" % (name, total_self, traced_wall))
            else:
                problems.extend(_corruption_problems(result))
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: %s" % ("ok" if not problems else "%d problems" % len(problems)))
    return 1 if problems else 0


def _corruption_problems(result):
    from reference import StarOracle

    oracle, problems = StarOracle(), []
    first = result.passes[0].records
    for i, job in enumerate(result.wl.jobs):
        edit, oracle_only = checks.CORRUPT[job.check]
        if oracle_only and job.expect["field"] not in ("q", "f5"):
            continue
        doc = json.loads(first[i].text)
        edit(doc)
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        caught = checks.oracle_check(oracle, job, text) if oracle_only else checks.check_report(job, 0, text)
        if caught is None:
            problems.append("%s job %d: corrupted %s report passed its check" % (result.name, i, job.check))
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="check the benchmark itself on tiny inputs")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.selftest:
        import_groupca()
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        elapsed, _, _ = setup(args.workload, args.seed, args.tiny)
        print("%.9f" % elapsed)
        return 0
    import_groupca()
    report(measure(args.workload, args.seed, args.seconds, args.trace, args.tiny))
    return 0


if __name__ == "__main__":
    sys.exit(main())
