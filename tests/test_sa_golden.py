"""Golden pins for store compatibility and annealing trajectories.

Campaign stores are keyed by ``settings_digest``, and a stored result
is only reusable while the search that produced it is reproduced
exactly.  These tests pin both halves:

* the digests of two fixed ``SASettings`` (so a refactor of the
  settings dataclass cannot silently re-key every store);
* whole annealing runs — best costs as ``float.hex``, the run
  statistics and the ``diag`` record (convergence curve, temperature
  checkpoints, per-operator effectiveness) — on the compiled and the
  object evaluator, at N=1 and for a tempered population.

``tests/data/sa_golden.json`` holds the expected runs.  Regenerate it
only for a deliberate trajectory change (which must also bump
``CODE_MODEL_VERSION``)::

    PYTHONPATH=src python tests/test_sa_golden.py > tests/data/sa_golden.json
"""

import json
import pathlib
import sys

import pytest

from repro.arch import ArchConfig, g_arch
from repro.campaign.keys import settings_digest
from repro.core import SAController, SASettings
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.evalmodel import Evaluator
from repro.units import GB, MB
from repro.workloads.models import build

GOLDEN = pathlib.Path(__file__).parent / "data" / "sa_golden.json"


def _small_arch():
    return ArchConfig(
        cores_x=4, cores_y=4, xcut=2, ycut=1, dram_bw=64 * GB,
        noc_bw=32 * GB, d2d_bw=16 * GB, glb_bytes=1 * MB,
        macs_per_core=1024,
    )


#: name -> (model, arch factory, batch, object path?, SASettings kwargs)
CASES = {
    "gn-compiled": ("GN", _small_arch, 4, False,
                    dict(iterations=300, seed=3)),
    "gn-object": ("GN", _small_arch, 4, True,
                  dict(iterations=300, seed=3)),
    "rn50-compiled": ("RN-50", g_arch, 4, False,
                      dict(iterations=150, seed=5)),
    "gn-population": ("GN", _small_arch, 4, False,
                      dict(iterations=48, seed=3, population=4,
                           tempering=2)),
}


def run_case(name: str) -> dict:
    model, arch_of, batch, object_path, kwargs = CASES[name]
    graph = build(model)
    arch = arch_of()
    groups = partition_graph(graph, arch, batch=batch)
    lmss = [initial_lms(graph, g, arch) for g in groups]
    evaluator = Evaluator(arch, cache=not object_path)
    ctrl = SAController(graph, evaluator, lmss, batch,
                        SASettings(diag=True, **kwargs))
    ctrl.run()
    s = ctrl.stats
    return {
        "best_costs": [c.hex() for c in ctrl.best_costs],
        "stats": {
            "iterations": s.iterations,
            "proposed": s.proposed,
            "accepted": s.accepted,
            "improved": s.improved,
            "best_iteration": s.best_iteration,
            "operator_uses": dict(sorted(s.operator_uses.items())),
            "initial_cost": s.initial_cost.hex(),
            "final_cost": s.final_cost.hex(),
        },
        # A JSON round trip keeps every float exact (repr round-trips).
        "diag": json.loads(json.dumps(s.diag)),
    }


def test_default_settings_digest():
    assert settings_digest(SASettings()) == (
        "cf45f454e8e437c27c1a0f64903d2f61876c0c5e753ee135c55239f29c4b5a6d"
    )


def test_seeded_settings_digest():
    assert settings_digest(SASettings(iterations=300, seed=3)) == (
        "9ad479a0eb8231b6d665a0236a2c66f3442ee674ee0df0265d128dd527245a46"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())[name]
    got = run_case(name)
    assert got["best_costs"] == golden["best_costs"]
    assert got["stats"] == golden["stats"]
    assert got["diag"]["curve"] == golden["diag"]["curve"]
    assert got["diag"] == golden["diag"]


if __name__ == "__main__":
    json.dump({name: run_case(name) for name in sorted(CASES)},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
