"""The report oracle: ``tools/report_digest.py --values`` prints what every
JSON report on the bundled and generated configs holds, and the output must
equal the checked-in ``tests/data/report_digest_values.txt``.

A change that moves report values on purpose regenerates the file, with
BLAS pinned to one thread as below::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 tools/report_digest.py --values \\
        > tests/data/report_digest_values.txt

and names the values that moved in CHANGES.md.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "tests" / "data" / "report_digest_values.txt"
# pinned as bench/run.py pins them, so that no sum changes its order
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_report_digest_matches_checked_in_values():
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py"), "--values"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    want = EXPECTED.read_text(encoding="utf-8")
    if done.stdout != want:
        pytest.fail("report digest differs from the checked-in values:\n"
                    + "".join(difflib.unified_diff(
                        want.splitlines(keepends=True),
                        done.stdout.splitlines(keepends=True),
                        str(EXPECTED.relative_to(ROOT)), "report_digest.py")))
