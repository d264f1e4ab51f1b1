"""Distribution-aware auto-tuning for irregular batches (§VI).

The paper's conclusion flags auto-tuning as an open problem: "most of the
tuning techniques that we are aware of take the problem size as an input
... In the case of irrLU-GPU ... we have a mix of sizes that are known
only at run time.  It is certainly a research direction to find robust
auto-tuning techniques based on the distributions of sizes in a single
batch."

This module implements the natural first answer: *measure a sketch of the
batch*.  The size distribution is summarized (it is known at run time —
the local-dimension vectors are on the host), a small random sub-batch is
sampled per candidate configuration, and the candidate with the best
modeled throughput wins.  Because the sub-batch preserves the size
distribution, the winner transfers to the full batch; the sampling cost
is a few percent of one full factorization.

Two failure-handling rules keep the tuner honest:

* A candidate that violates a hard device limit raises
  :class:`~repro.errors.InfeasibleConfig` and is *skipped* (recorded in
  :attr:`TuningResult.infeasible`).  Any other :class:`ValueError` is an
  argument bug — in the candidate grid or in the batch itself — and
  propagates instead of being silently swallowed as "infeasible".
* When **every** candidate is infeasible the tuner degrades, it does not
  crash: the result carries the default configuration, an empty trial
  table and ``exhausted=True``, so a caller can fall back to the kernel
  defaults (which self-select a feasible path at run time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..device.simulator import Device
from ..device.spec import DeviceSpec
from ..errors import InfeasibleConfig
from .getrf import irr_getrf
from .interface import IrrBatch

__all__ = ["autotune_getrf", "TuningResult", "size_distribution_summary"]

#: candidate grid: the §IV-E design parameter plus the §IV-F/§VI variants
_CANDIDATES = [
    {"nb": nb, "laswp_variant": lv, "concurrent_swaps": cs}
    for nb in (8, 16, 32, 64)
    for lv in ("rehearsed", "looped")
    for cs in (False, True)
]

#: the configuration a degraded tuner falls back to — the kernel defaults
#: (every knob self-selects a feasible path at run time).
_DEFAULT = {"nb": "auto", "laswp_variant": "rehearsed",
            "concurrent_swaps": False}


@dataclass
class TuningResult:
    """The chosen configuration and the full candidate table.

    ``exhausted`` marks a degraded result: every candidate was
    infeasible on this device/batch, so :attr:`best` is the default
    configuration and :attr:`trials` is empty.  ``infeasible`` lists the
    skipped candidates either way.
    """

    best: dict
    trials: list[tuple[dict, float]] = field(default_factory=list)
    sample_size: int = 0
    infeasible: list[dict] = field(default_factory=list)
    exhausted: bool = False

    def speedup_over_worst(self) -> float:
        times = [t for _, t in self.trials]
        return max(times) / min(times) if times else 1.0


def size_distribution_summary(m_vec, n_vec) -> dict:
    """The run-time size statistics the tuner keys on."""
    k = np.minimum(np.asarray(m_vec), np.asarray(n_vec))
    if len(k) == 0:
        return {"count": 0, "min": 0, "median": 0, "max": 0, "spread": 0.0}
    return {
        "count": int(len(k)),
        "min": int(k.min()),
        "median": float(np.median(k)),
        "max": int(k.max()),
        #: irregularity measure: interquartile range over the median
        "spread": float((np.percentile(k, 75) - np.percentile(k, 25)) /
                        max(np.median(k), 1.0)),
    }


def autotune_getrf(spec: DeviceSpec, matrices: list[np.ndarray], *,
                   sample_size: int = 24, seed: int = 0,
                   candidates: list[dict] | None = None) -> TuningResult:
    """Pick irrLU parameters for this batch's size distribution.

    Runs each candidate configuration on a sampled sub-batch on a *fresh*
    simulated device (so trials don't perturb the caller's device state)
    and returns the fastest.  ``matrices`` are host matrices; the
    factorization trials work on copies.

    Candidates that violate a hard device limit
    (:class:`~repro.errors.InfeasibleConfig`) are skipped and recorded;
    any other :class:`ValueError` propagates — a malformed candidate or
    batch is a bug, not an infeasibility.  When every candidate is
    infeasible the result degrades to the default configuration with an
    empty trial table (``exhausted=True``) instead of crashing.
    """
    if not matrices:
        return TuningResult(best=dict(_CANDIDATES[0]), trials=[])
    rng = np.random.default_rng(seed)
    n_samp = min(sample_size, len(matrices))
    idx = rng.choice(len(matrices), size=n_samp, replace=False)
    sample = [matrices[i] for i in idx]

    trials: list[tuple[dict, float]] = []
    infeasible: list[dict] = []
    for cand in (candidates or _CANDIDATES):
        dev = Device(spec)
        batch = IrrBatch.from_host(dev, [m.copy() for m in sample])
        try:
            with dev.timed_region() as t:
                irr_getrf(dev, batch, **cand)
        except InfeasibleConfig:
            infeasible.append(dict(cand))
            continue  # hard device limit (e.g. forced fused panel)
        trials.append((dict(cand), t["elapsed"]))

    if not trials:
        # every candidate infeasible on this device/batch: degrade to
        # the kernel defaults instead of crashing on trials[0]
        return TuningResult(best=dict(_DEFAULT), trials=[],
                            sample_size=n_samp, infeasible=infeasible,
                            exhausted=True)
    trials.sort(key=lambda kv: kv[1])
    return TuningResult(best=trials[0][0], trials=trials,
                        sample_size=n_samp, infeasible=infeasible)
