#!/usr/bin/env python3
"""Compare this checkout's CLI reports with those of another git revision.

    python3 tools/report_diff.py REF [--seed N]

Builds the seed-N ``exact`` and ``kaplansky`` job lists with this
checkout's ``perfbench/workloads.py`` and writes their input files to one
temporary directory that both sides share.  Then it runs every job through
``groupca.cli.run_job`` twice, each time in one fresh interpreter: once on
REF's ``src/`` (extracted with ``git archive``) and once on this
checkout's ``src/``.  For each job it records the argv, the exit code,
stdout and stderr.

It prints each side's job count and the md5 of its records.  When the two
differ it names the first differing job and exits with status 1; it exits
with status 0 when they agree.  Nothing is written inside the repository.

CI runs it against a pull request's base commit in a job that does not
gate the merge: a change may alter reports on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.dont_write_bytecode = True  # imports from this checkout must leave no __pycache__ in it

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact", "kaplansky")
SEARCH_WORKERS = 2


def build_jobs(seed, tmp):
    """The argv of every job of the seed's workloads, with their files written to ``tmp/jobs``.

    The argv name the files relative to ``tmp``, where both sides run, so
    the records and their md5 do not depend on the temporary directory.
    """
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    (tmp / "jobs").mkdir()
    argvs = []
    for name in WORKLOADS:
        wl = workloads.build(name, seed, "jobs", SEARCH_WORKERS)
        for fname, text in wl.files.items():
            (tmp / "jobs" / fname).write_text(text, encoding="utf-8")
        argvs.extend(job.argv for job in wl.jobs)
    return argvs


def run_side(src, jobs_path, out_path):
    """Run every job on the groupca under ``src`` and write one record per job."""
    sys.path.insert(0, src)
    import groupca.cli

    if Path(groupca.__file__).resolve().parent != (Path(src) / "groupca").resolve():
        sys.exit("report_diff: imported groupca from %s, not from %s" % (groupca.__file__, src))
    records = []
    for argv in json.loads(Path(jobs_path).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = groupca.cli.run_job(argv)
        except SystemExit as exc:
            code = "SystemExit(%r)" % (exc.code,)
        except Exception as exc:  # a crashing job is a record to compare, not a failed comparison
            code = "%s: %s" % (type(exc).__name__, exc)
        records.append([argv, code, out.getvalue(), err.getvalue()])
    Path(out_path).write_text(json.dumps(records), encoding="utf-8")


def extract_src(ref, dest):
    """Unpack REF's ``src/`` under ``dest`` with ``git archive``; return the ``src`` path."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest / "src"


def side_records(src, jobs_path, out_path, tmp):
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side", str(src), str(jobs_path), str(out_path)],
        cwd=tmp, check=True,
    )
    text = Path(out_path).read_text(encoding="utf-8")
    return json.loads(text), hashlib.md5(text.encode("utf-8")).hexdigest()


def first_difference(ref_records, head_records):
    for i, (a, b) in enumerate(zip(ref_records, head_records)):
        if a != b:
            fields = [name for name, x, y in zip(("argv", "exit code", "stdout", "stderr"), a, b) if x != y]
            return "job %d (%s) differs in %s" % (i, " ".join(b[0]), ", ".join(fields))
    return "the job counts differ"


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare the seed's exact and kaplansky reports with REF's.")
    parser.add_argument("ref", help="git revision to compare against, e.g. HEAD or a commit id")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="report_diff-") as name:
        tmp = Path(name)
        jobs_path = tmp / "jobs.json"
        jobs_path.write_text(json.dumps(build_jobs(args.seed, tmp)), encoding="utf-8")
        ref_src = extract_src(args.ref, tmp / "ref")
        ref_records, ref_md5 = side_records(ref_src, jobs_path, tmp / "ref.json", tmp)
        head_records, head_md5 = side_records(ROOT / "src", jobs_path, tmp / "head.json", tmp)
    print("%s: %d jobs, md5 %s" % (args.ref, len(ref_records), ref_md5))
    print("checkout: %d jobs, md5 %s" % (len(head_records), head_md5))
    if ref_md5 != head_md5:
        print("DIFFERENT: " + first_difference(ref_records, head_records))
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--side":
        run_side(*sys.argv[2:])
    else:
        sys.exit(main())
