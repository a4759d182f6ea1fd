"""Canonical content digests for campaign records.

A campaign must recognize work it has already done *across process
lifetimes*, so every store key is a SHA-256 over a canonical JSON
rendering of the evaluation inputs:

* dict keys are sorted, so field ordering never matters;
* every number is normalized to its float value before rendering, so
  ``256.0 * GB`` and ``int(256 * GB)`` digest identically;
* cosmetic fields (``ArchConfig.name``, ``Objective.name``) are
  excluded — renaming an architecture must not invalidate its results;
* :data:`CODE_MODEL_VERSION` is folded into every evaluation key, so
  results computed by an older cost model are never served as current.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict

from repro.arch.params import ArchConfig
from repro.core.sa import SASettings
from repro.dse.objective import Objective
from repro.fabric.spec import DEFAULT_FABRIC
from repro.io.serialization import arch_to_dict, graph_to_dict
from repro.workloads.graph import DNNGraph

#: Version of the evaluation semantics (cost model, SA schedule, traffic
#: analysis).  Bump whenever a change makes previously stored results
#: incomparable with freshly computed ones; stored records keyed under
#: an older version then simply stop matching and get re-evaluated.
CODE_MODEL_VERSION = "1"


def _canon(obj):
    """Normalize ``obj`` for canonical JSON rendering."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, float)):
        value = float(obj)
        if math.isnan(value):
            raise ValueError(f"cannot digest NaN {obj!r}")
        if math.isinf(value):
            # JSON has no infinity; cost models use inf tier bounds.
            return "__inf__" if value > 0 else "__-inf__"
        return value
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"cannot digest object of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """The canonical rendering digests are computed over."""
    return json.dumps(_canon(obj), sort_keys=True, separators=(",", ":"))


def content_digest(obj) -> str:
    """SHA-256 hex digest of ``obj``'s canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ----------------------------------------------------------------------
# Domain digests
# ----------------------------------------------------------------------


def arch_digest(arch: ArchConfig) -> str:
    """Digest of an architecture, ignoring the cosmetic ``name``.

    The fabric participates by *content*: a different kind, routing
    policy or knob changes the digest, while the fabric's cosmetic
    ``name`` — like the architecture's — does not.  A fabric whose
    content equals the default (mesh + XY) digests exactly as if the
    field were absent, so records stored before the fabric existed
    keep matching.
    """
    data = arch_to_dict(arch)
    data.pop("name", None)
    data.pop("fabric", None)
    fab = arch.fabric.content()  # normalized, name-free
    if fab != DEFAULT_FABRIC.content():
        data["fabric"] = fab
    return content_digest(data)


def graph_digest(graph: DNNGraph) -> str:
    """Digest of a workload graph (layers, shapes, typed edges)."""
    return content_digest(graph_to_dict(graph))


def workload_digest(graph: DNNGraph, batch: int) -> str:
    """Digest of one DSE workload: a graph at a batch size."""
    return content_digest({"graph": graph_to_dict(graph), "batch": batch})


def settings_digest(
    sa: SASettings,
    max_group_layers: int = 10,
    objective: Objective | None = None,
) -> str:
    """Digest of everything that steers the search besides the inputs."""
    sa_dict = asdict(sa)
    # Diagnostics recording is pure observation — it never changes what
    # gets computed, so a diag'd evaluation must keep matching the
    # store records a plain run wrote (and vice versa).
    sa_dict.pop("diag", None)
    # The retired best-of-K knob is hashed at its only surviving value,
    # so the stores written while it existed keep serving.
    sa_dict["proposal_batch"] = 1
    # population=1 is exactly the serial walk (the population fields
    # did not exist when older stores were written), so N=1 digests
    # must stay byte-identical to pre-population ones; any N>1 keys a
    # genuinely different search and digests distinctly.
    if sa_dict.get("population", 1) == 1:
        sa_dict.pop("population", None)
        sa_dict.pop("tempering", None)
    data: dict = {
        "sa": {**sa_dict, "operators": (
            None if sa.operators is None else list(sa.operators)
        )},
        "max_group_layers": max_group_layers,
        "version": CODE_MODEL_VERSION,
    }
    if objective is not None:
        data["objective"] = {
            "alpha": objective.alpha,
            "beta": objective.beta,
            "gamma": objective.gamma,
        }
    return content_digest(data)


def candidate_key(
    arch: ArchConfig,
    workload_digests: list[str],
    sa: SASettings,
    max_group_layers: int = 10,
    objective: Objective | None = None,
    mc_evaluator=None,
    warm_keys: dict[str, str] | None = None,
) -> str:
    """Store key of one DSE candidate evaluation.

    ``sa`` must be the candidate's *effective* settings (after any
    per-candidate seed stride), and ``workload_digests`` the workloads
    in evaluation order — both are part of what was computed.  The
    monetary-cost model's parameters (``mc_evaluator``, a dataclass
    tree of plain numbers) are folded in so results priced under a
    different cost model never collide.  ``warm_keys`` records warm-
    start provenance — the mapping key each workload's SA was seeded
    from — because a warm-started evaluation is a *different*
    computation than a cold one and must never share its key.
    """
    data = {
        "kind": "candidate",
        "arch": arch_digest(arch),
        "workloads": list(workload_digests),
        "settings": settings_digest(sa, max_group_layers, objective),
    }
    if mc_evaluator is not None:
        data["mc"] = asdict(mc_evaluator)
    if warm_keys:
        data["warm"] = dict(sorted(warm_keys.items()))
    return content_digest(data)


def mapping_key(candidate_key: str, workload_digest: str) -> str:
    """Store key of the winning mapping of one candidate evaluation.

    Derived from the full candidate key (which already covers the
    architecture, settings, cost model and warm-start provenance), so a
    mapping record's key uniquely identifies the computation that
    produced it — two evaluations that could anneal differently can
    never collide on a mapping record.
    """
    return content_digest({
        "kind": "mapping",
        "candidate": candidate_key,
        "workload": workload_digest,
    })


def scenario_key(
    arch: ArchConfig,
    graph: DNNGraph,
    batch: int,
    iters: int,
    seed: int,
) -> str:
    """Store key of one sweep scenario evaluation."""
    return content_digest({
        "kind": "scenario",
        "arch": arch_digest(arch),
        "workload": workload_digest(graph, batch),
        "iters": iters,
        "seed": seed,
        "version": CODE_MODEL_VERSION,
    })


# ----------------------------------------------------------------------
# Warm-start neighborhoods
# ----------------------------------------------------------------------


def arch_family(arch: ArchConfig) -> str:
    """Warm-start neighborhood: architectures with the same core count.

    A mapping references cores by index and DRAM attach points by
    ordinal, so any same-core-count architecture can at least *attempt*
    to reuse it (validation still guards ``n_dram``); bandwidths, cuts
    and buffer sizes only shift the cost surface the SA re-anneals.
    """
    return f"cores-{arch.n_cores}"


def _log_ratio(a: float, b: float) -> float:
    if a <= 0 or b <= 0:
        return 0.0 if a == b else 10.0
    return abs(math.log(a / b))


def arch_distance(a: ArchConfig, b: ArchConfig) -> float:
    """How far apart two same-family architectures are.

    Used to pick the *nearest* stored mapping as a warm start; smaller
    is closer.  Bandwidth and buffer deltas count logarithmically,
    differing chiplet cuts add a fixed penalty each (a cut changes the
    D2D topology, which perturbs the cost surface more than a bandwidth
    scale), and a different interconnect fabric adds a larger one still
    (swapping the mesh for a torus reshapes every route).
    """
    d = (
        _log_ratio(a.dram_bw, b.dram_bw)
        + _log_ratio(a.noc_bw, b.noc_bw)
        + _log_ratio(a.d2d_bw, b.d2d_bw)
        + _log_ratio(a.glb_bytes, b.glb_bytes)
        + _log_ratio(a.macs_per_core, b.macs_per_core)
    )
    if (a.xcut, a.ycut) != (b.xcut, b.ycut):
        d += 1.0
    if (a.cores_x, a.cores_y) != (b.cores_x, b.cores_y):
        d += 1.0
    if a.fabric.content() != b.fabric.content():
        d += 2.0
    return d
