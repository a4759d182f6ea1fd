"""Campaign subsystem: durable, resumable evaluation at scale.

The paper's DSE runs "on 80-100 threads" over thousands of candidates;
one crash used to throw the whole search away.  This package makes
evaluation campaigns durable:

* :mod:`repro.campaign.keys` — canonical content digests for
  architectures, workloads and search settings, stable across processes
  and cosmetic differences (``ArchConfig.name``, float formatting);
* :mod:`repro.campaign.store` — an append-only JSONL result store with
  an index, atomic writes and safe concurrent appends, holding full
  candidate results and the winning mapping per (arch, workload);
* :mod:`repro.campaign.runner` — a sharded, checkpointing
  :class:`CampaignRunner` that resumes after interruption with zero
  re-evaluation and warm-starts SA from mappings of nearby
  architectures;
* :mod:`repro.campaign.view` — the store-only campaign document behind
  ``repro campaign status``, ``watch`` and ``report`` (imported on
  demand, not here).
"""

from repro.campaign.keys import (
    CODE_MODEL_VERSION,
    arch_digest,
    arch_distance,
    arch_family,
    candidate_key,
    canonical_json,
    content_digest,
    graph_digest,
    mapping_key,
    scenario_key,
    settings_digest,
    workload_digest,
)
from repro.campaign.faults import CandidateTimeout, RetryPolicy, WorkerCrashed
from repro.campaign.fsck import FsckReport, fsck_store
from repro.campaign.runner import (
    CampaignError,
    CampaignInterrupted,
    CampaignReport,
    CampaignRunner,
    CampaignSpec,
    export_campaign,
)
from repro.campaign.store import ResultStore

__all__ = [
    "CODE_MODEL_VERSION",
    "CampaignError",
    "CampaignInterrupted",
    "CampaignReport",
    "CampaignRunner",
    "CampaignSpec",
    "CandidateTimeout",
    "FsckReport",
    "ResultStore",
    "RetryPolicy",
    "WorkerCrashed",
    "fsck_store",
    "arch_digest",
    "arch_distance",
    "arch_family",
    "candidate_key",
    "canonical_json",
    "export_campaign",
    "content_digest",
    "graph_digest",
    "mapping_key",
    "scenario_key",
    "settings_digest",
    "workload_digest",
]
