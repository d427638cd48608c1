"""Jobs run one after another through ``run_job`` keep their options apart.

``run_job`` builds its argparse parser once per process and reuses it.
``check_parser_reuse`` runs, in this process, a job with an option and
then the same job without it, for an output path, a worker count and a job
file, with a usage error and two ``--help`` calls in between, and asserts
that no job's options reach the next one.  It needs only the standard
library, so it also runs on interpreters without pytest:

    PYTHONPATH=src python3 tests/parser_reuse.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from groupca import cli

STAR = ["star", "--group", "zd:1", "--field", "q", "--alpha", "X[(1)]^2 + 1", "--beta", "X[(0)] - X[(1)]"]
UNITS = ["units", "--group", "zd:1", "--field", "f2", "--degree", "1", "--radius", "1"]


def _run(argv):
    """(exit code, stdout, stderr) of one job."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_job(argv)
    return code, out.getvalue(), err.getvalue()


def _search_workers(argv):
    """Run a search job and return the ``workers`` value it passed to the search."""
    seen = []
    search = cli.exhaustive_search

    def recording(*args, **kwargs):
        seen.append(kwargs["workers"])
        return search(*args, **kwargs)

    cli.exhaustive_search = recording
    try:
        code, out, err = _run(argv)
    finally:
        cli.exhaustive_search = search
    assert code == 0 and err == "", (code, err)
    assert json.loads(out)["findings_count"] == 6
    return seen


def check_parser_reuse():
    with tempfile.TemporaryDirectory() as tmp:
        # --out, then no --out: the second report goes to stdout
        out_path = os.path.join(tmp, "star.json")
        assert _run(STAR + ["--out", out_path]) == (0, "", "")
        with open(out_path, encoding="utf-8") as fh:
            report = fh.read()
        assert json.loads(report)["product"] == "X[(2)]^2 + X[(1)]^2 - 2*X[(2)]*X[(1)] + 1"
        assert _run(STAR) == (0, report, "")

        code, usage, err = _run(["star", "--group", "zd:1"])
        assert code == 2 and usage == "" and "required" in err, (code, err)
        help_text = _run(["--help"])
        assert help_text[0] == 0 and help_text[1].startswith("usage: groupca"), help_text
        assert _run(["--help"]) == help_text

        # --workers 1, then no --workers: the search sees the default None
        assert _search_workers(UNITS + ["--workers", "1"]) == [1]
        assert _search_workers(UNITS) == [None]

        # a job file, then no job file: its seed and output path stay behind
        job = os.path.join(tmp, "job.json")
        job_out = os.path.join(tmp, "job_out.json")
        with open(job, "w", encoding="utf-8") as fh:
            json.dump({"seed": 7, "out": job_out}, fh)
        assert _run(STAR + ["--job", job]) == (0, "", "")
        with open(job_out, encoding="utf-8") as fh:
            assert json.loads(fh.read())["seed"] == 7
        assert _run(["star", "--help"]) == _run(["star", "--help"])
        assert _run(STAR) == (0, report, "")
        assert json.loads(report)["seed"] == 0
        assert _run(["star", "--group", "zd:1"]) == (code, usage, err)


if __name__ == "__main__":
    check_parser_reuse()
    print("parser reuse: ok (Python %d.%d)" % sys.version_info[:2])
