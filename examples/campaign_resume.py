"""Campaigns: durable DSE that survives crashes and resumes for free.

Runs a small campaign, interrupts it halfway with the built-in fault
injection, resumes it (zero re-evaluation of completed candidates),
proves the resumed export is bit-identical to an uninterrupted run, and
finally starts a second campaign that warm-starts its SA from the first
one's stored mappings.

Run:  python examples/campaign_resume.py
"""

import tempfile
from pathlib import Path

from repro.campaign import (
    CampaignInterrupted,
    CampaignRunner,
    CampaignSpec,
    export_campaign,
)
from repro.campaign.view import campaign_view
from repro.core import SASettings
from repro.dse import DseGrid, Workload, enumerate_candidates
from repro.perf import PERF
from repro.workloads.models import build


def make_spec(name, iterations=30):
    grid = DseGrid(
        tops=72, cuts=(1, 2), dram_bw_per_tops=(2.0,),
        noc_bw_gbps=(32, 64), d2d_ratio=(0.5,), glb_kb=(1024, 2048),
        macs_per_core=(1024,),
    )
    return CampaignSpec(
        name=name,
        candidates=enumerate_candidates(grid),
        workloads=[Workload(build("TF"), batch=64)],
        sa=SASettings(iterations=iterations, seed=7),
    )


def main():
    home = Path(tempfile.mkdtemp(prefix="repro-campaign-")) / "campaigns"
    spec = make_spec("demo")
    print(f"campaign home: {home}")
    print(f"candidates: {len(spec.candidates)}")

    # 1. Start, and get "killed" after 3 checkpointed evaluations.
    try:
        with CampaignRunner(make_spec("demo"), home) as runner:
            runner.run(workers=2, fail_after=3)
    except CampaignInterrupted as exc:
        print(f"\ninterrupted: {exc}")
    print(f"status after crash: {campaign_view(home, 'demo')['status']}")

    # 2. Resume with the same spec: only the pending candidates run.
    PERF.reset()
    with CampaignRunner(make_spec("demo"), home) as runner:
        report = runner.run(workers=2)
    print(f"\nresume evaluated {report.evaluated}, served "
          f"{report.store_hits} from the store "
          f"(SA evaluations: {PERF.get('dse.candidates'):.0f})")
    print(f"best: {report.best.arch.paper_tuple()} "
          f"score={report.best.score:.4g}")

    # 3. Export the full table + Pareto front.
    for label, path in sorted(export_campaign(home, "demo").items()):
        print(f"wrote {path}")

    # 4. A second campaign in the same home warm-starts from the first
    #    one's mappings (same core count, different knobs).
    PERF.reset()
    with CampaignRunner(make_spec("demo-hot", iterations=40), home) as runner:
        report2 = runner.run(workers=2)
    warm = PERF.get("sa.iters_to_best.warm.runs")
    cold = PERF.get("sa.iters_to_best.cold.runs")
    print(f"\nsecond campaign: {report2.evaluated} evaluated, "
          f"{warm:.0f} warm-started SA runs, {cold:.0f} cold")
    if warm:
        print("mean iterations-to-best: warm "
              f"{PERF.get('sa.iters_to_best.warm') / warm:.1f}"
              + (f", cold {PERF.get('sa.iters_to_best.cold') / cold:.1f}"
                 if cold else ""))


if __name__ == "__main__":
    main()
