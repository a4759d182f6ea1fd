"""Search-quality diagnostics: convergence curves + operator effectiveness.

PRs 6-7 made *execution* observable; this module makes the *search*
observable.  With ``SASettings(diag=True)`` every annealing run records

* a **convergence curve** — (iteration, best cost, current cost)
  triples, stride-sampled to a bounded number of points: when the
  buffer fills, every other point is dropped and the stride doubles,
  so a 10^6-iteration run still costs <= ``max_points`` triples and
  the kept points are exactly the iterations divisible by the final
  stride (deterministic, so identical seeds yield identical curves);
* **per-operator effectiveness** — draw/proposal/accept/improve counts
  and the delta-score distribution as streaming count/mean/M2 moments
  (Welford), never raw lists;
* **temperature checkpoints** — (iteration, T) at a coarse stride,
  enough to reconstruct the cooling schedule.

Design constraints mirror :mod:`repro.obs.trace`:

* **Opt-in and near-free when off.**  The controller holds ``None``
  instead of a recorder; the dormant cost is a ``None`` check per
  iteration.  Diagnostics never change what gets computed, so
  :func:`repro.campaign.keys.settings_digest` excludes the flag.
* **One owner per record.**  Each run's record lands in
  :attr:`SAStats.diag <repro.core.sa.SAStats.diag>`, and a campaign
  stores every restart's record with its candidate (``sa_diag``); the
  store-only campaign view folds a run's per-shard operator tables
  from there (:func:`merge_op_stats`).
* **Bounded memory.**  Curves are downsampled, distributions are
  three floats, temperatures are <= ~33 checkpoints.
"""

from __future__ import annotations

import math

#: Curve buffer bound: on reaching this many points, every other point
#: is dropped and the sampling stride doubles.
MAX_CURVE_POINTS = 512

#: Temperature checkpoints per run (plus the final iteration's).
TEMP_CHECKPOINTS = 32

#: Unicode sparkline ramp (space for "no signal").
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 32) -> str:
    """Render a numeric series as a fixed-width unicode sparkline."""
    values = [float(v) for v in values]
    if not values:
        return ""
    if len(values) > width:
        # Bucket means keep the overall shape at a glance.
        step = len(values) / width
        buckets = []
        for i in range(width):
            lo = int(i * step)
            hi = max(lo + 1, int((i + 1) * step))
            chunk = values[lo:hi]
            buckets.append(sum(chunk) / len(chunk))
        values = buckets
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[0] * len(values)
    span = hi - lo
    return "".join(
        _SPARK[min(len(_SPARK) - 1,
                   int((v - lo) / span * len(_SPARK)))]
        for v in values
    )


class StreamingMoments:
    """Welford count/mean/M2 accumulator (population variance)."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self, count: int = 0, mean: float = 0.0, m2: float = 0.0):
        self.count = count
        self.mean = mean
        self.m2 = m2

    def add(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def merge(self, other: "StreamingMoments") -> None:
        """Chan's parallel-merge of two accumulators."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = (
                other.count, other.mean, other.m2
            )
            return
        n = self.count + other.count
        delta = other.mean - self.mean
        self.m2 += other.m2 + delta * delta * self.count * other.count / n
        self.mean += delta * other.count / n
        self.count = n

    @property
    def variance(self) -> float:
        return self.m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean, "m2": self.m2}

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingMoments":
        return cls(
            count=int(data.get("count", 0)),
            mean=float(data.get("mean", 0.0)),
            m2=float(data.get("m2", 0.0)),
        )


class SARunDiag:
    """Recorder attached to one :class:`~repro.core.sa.SAController` run.

    The controller calls :meth:`draw` per operator draw,
    :meth:`proposal` per scored move, and — stride-gated by
    :meth:`want` — :meth:`sample` once per recorded iteration; all fast
    paths are dict lookups and integer adds.
    """

    __slots__ = ("seed", "iterations", "curve", "curve_stride",
                 "max_points", "temps", "temp_stride", "ops")

    def __init__(self, iterations: int, seed: int,
                 max_points: int = MAX_CURVE_POINTS):
        self.seed = seed
        self.iterations = iterations
        self.curve: list[list[float]] = []
        self.curve_stride = 1
        self.max_points = max_points
        self.temps: list[list[float]] = []
        self.temp_stride = max(1, iterations // TEMP_CHECKPOINTS)
        #: name -> {uses, proposed, accepted, improved, delta moments}
        self.ops: dict[str, dict] = {}

    # -- operator effectiveness ----------------------------------------

    def _op(self, name: str) -> dict:
        rec = self.ops.get(name)
        if rec is None:
            rec = self.ops[name] = {
                "uses": 0, "proposed": 0, "accepted": 0, "improved": 0,
                "delta": StreamingMoments(),
            }
        return rec

    def draw(self, name: str) -> None:
        """One operator draw (counted even when the op returns None)."""
        self._op(name)["uses"] += 1

    def proposal(self, name: str, rel_delta: float,
                 accepted: bool, improved: bool) -> None:
        """One scored move: its relative cost delta and outcome."""
        rec = self._op(name)
        rec["proposed"] += 1
        if accepted:
            rec["accepted"] += 1
        if improved:
            rec["improved"] += 1
        rec["delta"].add(rel_delta)

    # -- curve + temperature sampling ----------------------------------

    def want(self, iteration: int) -> bool:
        """True when ``iteration`` should be sampled (cheap gate)."""
        return (iteration % self.curve_stride == 0
                or iteration % self.temp_stride == 0)

    def sample(self, iteration: int, best: float, current: float,
               temperature: float) -> None:
        if iteration % self.temp_stride == 0:
            self.temps.append([iteration, temperature])
        if iteration % self.curve_stride == 0:
            self.curve.append([iteration, best, current])
            if len(self.curve) >= self.max_points:
                # Keep points where iteration % (2*stride) == 0 — the
                # same set a run started at the doubled stride would
                # have kept, so downsampling stays deterministic.
                self.curve = self.curve[::2]
                self.curve_stride *= 2

    # -- export --------------------------------------------------------

    def to_dict(self, stats=None) -> dict:
        """JSON-ready record of this run (curve, temps, operators)."""
        out = {
            "seed": self.seed,
            "iterations": self.iterations,
            "curve": [list(p) for p in self.curve],
            "curve_stride": self.curve_stride,
            "temps": [list(p) for p in self.temps],
            "operators": {
                name: {
                    "uses": rec["uses"],
                    "proposed": rec["proposed"],
                    "accepted": rec["accepted"],
                    "improved": rec["improved"],
                    "delta": rec["delta"].to_dict(),
                }
                for name, rec in sorted(self.ops.items())
            },
        }
        if stats is not None:
            out["initial_cost"] = stats.initial_cost
            out["final_cost"] = stats.final_cost
            out["best_iteration"] = stats.best_iteration
        return out


# ----------------------------------------------------------------------
# Operator-table merge
# ----------------------------------------------------------------------


def merge_op_stats(into: dict, ops: dict) -> None:
    """Fold one run's serialized operator table into ``into``."""
    for name, rec in ops.items():
        slot = into.get(name)
        if slot is None:
            slot = into[name] = {
                "uses": 0, "proposed": 0, "accepted": 0, "improved": 0,
                "delta": {"count": 0, "mean": 0.0, "m2": 0.0},
            }
        for key in ("uses", "proposed", "accepted", "improved"):
            slot[key] += int(rec.get(key, 0))
        moments = StreamingMoments.from_dict(slot["delta"])
        moments.merge(StreamingMoments.from_dict(rec.get("delta", {})))
        slot["delta"] = moments.to_dict()


# ----------------------------------------------------------------------
# Rendering helpers (sa-report and campaign report)
# ----------------------------------------------------------------------


OPERATOR_HEADERS = ["operator", "uses", "proposed", "accepted", "accept%",
                    "improved", "mean Δ", "σ(Δ)"]


def operator_rows(ops: dict) -> list[list]:
    """Table rows of one serialized operator-effectiveness dict."""
    rows = []
    for name, rec in sorted(ops.items()):
        moments = StreamingMoments.from_dict(rec.get("delta", {}))
        proposed = rec.get("proposed", 0)
        accepted = rec.get("accepted", 0)
        rows.append([
            name, rec.get("uses", 0), proposed, accepted,
            f"{accepted / proposed:.1%}" if proposed else "-",
            rec.get("improved", 0),
            f"{moments.mean:+.4f}" if moments.count else "-",
            f"{moments.stddev:.4f}" if moments.count else "-",
        ])
    return rows


def merged_operator_table(by_pid: dict) -> dict:
    """One operator table pooled over every pid's slot."""
    merged: dict[str, dict] = {}
    for ops in by_pid.values():
        merge_op_stats(merged, ops)
    return merged


def curve_summary(diag: dict) -> dict:
    """Headline numbers of one run diag (initial/final/spark/points)."""
    curve = diag.get("curve", [])
    best = [p[1] for p in curve]
    return {
        "points": len(curve),
        "stride": diag.get("curve_stride", 1),
        "initial": best[0] if best else diag.get("initial_cost", 0.0),
        "final": best[-1] if best else diag.get("final_cost", 0.0),
        "best_iteration": diag.get("best_iteration", 0),
        "spark": sparkline(best),
    }


def render_sa_diag(restart_diags: list[dict]) -> str:
    """Text report of one mapping's per-restart diagnostics."""
    from repro.reporting import format_table

    lines = []
    rows = []
    for i, diag in enumerate(restart_diags):
        cs = curve_summary(diag)
        improvement = (1.0 - cs["final"] / cs["initial"]
                       if cs["initial"] else 0.0)
        rows.append([
            i, diag.get("seed", "-"), cs["points"], cs["stride"],
            f"{cs['initial']:.4g}", f"{cs['final']:.4g}",
            f"{improvement:.1%}", cs["best_iteration"], cs["spark"],
        ])
    lines.append(format_table(
        ["restart", "seed", "points", "stride", "initial", "final",
         "improved", "best@", "best-cost curve"],
        rows,
    ))
    merged: dict[str, dict] = {}
    for diag in restart_diags:
        merge_op_stats(merged, diag.get("operators", {}))
    if merged:
        lines.append("")
        lines.append(format_table(OPERATOR_HEADERS, operator_rows(merged)))
    return "\n".join(lines)
