"""The output bytes of the benchmark's workloads, pinned.

Each workload of ``perfbench/workloads.py`` is generated at smoke size from
seed 0 and scored in-process; the SHA-256 of its output (a report, a sweep
or the ``anchors.csv`` bank) must equal the one recorded here. The report
digests were taken before the edge-mask matching, run counting and AP
ranking were rewritten, the bank digest before the k-means nearest-center
step was. A speed-up that changes one output byte fails.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
DIGESTS = {
    "long-window": "ac6c0aef4397eaf03d4d3a126dd90eb8c926c9a3c46c55e182827997ea6012b2",
    "dense-crowd": "4d92b8147ebe611bd78bfd37008cf86f2432088ba073319294a74c7cf6374bc7",
    "fps-sweep": "cc6490d9b4133616e30a774bfc1c3febb1cd32209795c4f917d35e7a068fc478",
    "anchors": "41d3618623edf07c37eee7e6c67828e00e6f27106b4327d80020f921a05784b5",
}


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py as a module, loaded without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write
    return module


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_smoke_workload_report_bytes_are_pinned(workloads, tmp_path, name):
    wl = workloads.WORKLOADS[name](workloads.SIZES["smoke"][name], tmp_path)
    wl.generate(0)
    assert hashlib.sha256(wl.score(0)).hexdigest() == DIGESTS[name]
