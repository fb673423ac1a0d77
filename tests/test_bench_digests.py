"""The output bytes of the benchmark's workloads, pinned.

Each workload of ``perfbench/workloads.py`` is generated at smoke size from
seed 0 (``long-window`` and ``dense-crowd`` from seeds 1 and 2 as well) and
scored in-process; the SHA-256 of its output (a report, a sweep or the
``anchors.csv`` bank) must equal the one recorded here. The seed-0 report
digests were taken before the edge-mask matching, run counting and AP
ranking were rewritten, the bank digest before the k-means nearest-center
step was, and the seed 1 and 2 digests before the similarity columns, the
conflict levels and the AP level sort were rewritten. A speed-up that
changes one output byte fails. Each workload's CLI commands also run in
process, as ``perfbench/run.py --smoke`` runs them, and must write the bytes
of the in-process scoring.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from mtmceval import cli

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
DIGESTS = {
    "long-window": "ac6c0aef4397eaf03d4d3a126dd90eb8c926c9a3c46c55e182827997ea6012b2",
    "dense-crowd": "4d92b8147ebe611bd78bfd37008cf86f2432088ba073319294a74c7cf6374bc7",
    "fps-sweep": "cc6490d9b4133616e30a774bfc1c3febb1cd32209795c4f917d35e7a068fc478",
    "anchors": "41d3618623edf07c37eee7e6c67828e00e6f27106b4327d80020f921a05784b5",
}
SEEDED_DIGESTS = {
    ("long-window", 1): "144b4cfff2f801c95f5d748c733636a594c6d83fa6787db562322425ecc97b6c",
    ("long-window", 2): "e7bf6291a4ce1f2c2b1e6948c69da69f098d4ad02bce6f153f5bd92e8f91beb4",
    ("dense-crowd", 1): "eb6442aba5404afb661fa71d7900de8c6641c818dcaed07524e232ad380b6313",
    ("dense-crowd", 2): "9be215c53ad737cdb2be16518c99e86f3610ea9887db83dac4ba81027c648943",
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


def smoke_digest(workloads, tmp_path, name, seed):
    wl = workloads.WORKLOADS[name](workloads.SIZES["smoke"][name], tmp_path)
    wl.generate(seed)
    return hashlib.sha256(wl.score(0)).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_smoke_workload_report_bytes_are_pinned(workloads, tmp_path, name):
    assert smoke_digest(workloads, tmp_path, name, 0) == DIGESTS[name]


@pytest.mark.parametrize(("name", "seed"), sorted(SEEDED_DIGESTS))
def test_smoke_workload_report_bytes_are_pinned_on_more_seeds(workloads, tmp_path, name, seed):
    assert smoke_digest(workloads, tmp_path, name, seed) == SEEDED_DIGESTS[name, seed]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_smoke_workload_cli_output_equals_the_library_and_passes_its_checks(
    workloads, tmp_path, capsys, name
):
    """The check of ``perfbench/run.py --smoke``, in process: the workload's
    CLI commands exit 0, write the bytes of the in-process scoring, and
    those bytes pass the workload's own checks."""
    wl = workloads.WORKLOADS[name](workloads.SIZES["smoke"][name], tmp_path)
    wl.generate(0)
    for args in wl.commands(0):
        assert cli.main(args) == 0, (args, capsys.readouterr().err)
    output = b"".join((tmp_path / f).read_bytes() for f in wl.outputs)
    assert output == wl.score(0)
    assert wl.check(output) == []
