"""A small run of every benchmark workload through its own output checks.

Each workload in perfbench/workloads.py runs its seed-0 ops in process, set-up
first, as the benchmark worker does.  Every op must exit 0, the workload's
check must find no wrong output, and the joined stdout must hash to the digest
recorded in perfbench/digests.json, where one is recorded for this op count.
Nothing here is timed.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from denumerant.cli import run

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
OPS = 20


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
DIGESTS = json.loads((BENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_own_checks(name):
    workload = WORKLOADS[name]
    ops = workload.ops(0, OPS)
    workload.warm(ops)
    outputs, codes = [], []
    for argv in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            codes.append(run(argv))
        outputs.append(out.getvalue())
    assert codes == [0] * len(ops)
    assert workload.check(ops, outputs) == []
    recorded = DIGESTS.get(name, {}).get(str(OPS))
    if recorded is not None:
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        assert digest == recorded
