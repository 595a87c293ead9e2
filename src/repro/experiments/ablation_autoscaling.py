"""Experiment A11 — elastic scale-in/scale-out (the Fig 1 implication).

The paper's Section 2.4 reads the diurnal workload as an argument for
elastic provisioning: peak-sized fleets idle most of the day.  This
experiment provisions a front-end fleet against the synthetic hourly
volume four ways — static at the peak, a realistic reactive autoscaler, a
seasonal predictive autoscaler and the perfect-forecast oracle — and
checks the economics: the reactive policy recovers most of the oracle's
savings at a small under-provisioning risk.  Each strategy is a live
fleet controller fed the profile as fault-free signals.

The reactive arm bootstraps hour 0 from the first hour's load *with
headroom* (it used to peek at the raw current-hour load, an oracle
privilege no reactive controller has); on this 169-hour profile that
costs a few extra server-hours in hour 0 and leaves every check's margin
intact.

The predictive guardrail scores a forecast only once its hour has been
observed; it used to score the hour being sized, another peek (its row
moved from 709 to 699 server-hours; no check reads it).
"""

from __future__ import annotations

import numpy as np

from ..core.workload import workload_series
from ..service.autoscaler import AutoscalerPolicy, compare_strategies
from .base import ExperimentResult
from .common import DEFAULT_SEED, DEFAULT_USERS, prepared_trace

GB = 1024.0**3


def run(
    n_users: int = DEFAULT_USERS, seed: int = DEFAULT_SEED
) -> ExperimentResult:
    trace = prepared_trace(n_users=n_users, seed=seed)
    series = workload_series(trace.mobile_records)
    profile = series.store_volume + series.retrieve_volume
    # Headroom 2x: hour-over-hour load swings on mobile traces are large
    # (whale sessions), so a lean 1.3x buffer under-provisions too often.
    policy = AutoscalerPolicy(
        capacity_per_server=float(np.quantile(profile[profile > 0], 0.5)),
        headroom=2.0,
    )
    outcomes = compare_strategies(profile, policy)

    result = ExperimentResult(
        experiment="A11",
        title="Elastic provisioning vs the diurnal workload",
    )
    result.add_row(
        f"  profile: {profile.size} hours, peak/mean="
        f"{series.peak_to_mean:4.1f}"
    )
    static = outcomes["static"]
    for outcome in outcomes.values():
        result.add_row(
            f"  {outcome.strategy:<9s} server-hours={outcome.server_hours:6d} "
            f"({outcome.savings_over(static):6.1%} vs static) "
            f"underprovisioned={outcome.underprovisioned_hours} h "
            f"({outcome.violation_rate:.1%})"
        )

    reactive = outcomes["reactive"]
    oracle = outcomes["oracle"]
    result.add_check(
        "reactive scaling cuts server-hours substantially (>30%)",
        paper=0.30,
        measured=reactive.savings_over(static),
        kind="greater",
    )
    result.add_check(
        "oracle bounds the reactive policy",
        paper=float(reactive.server_hours),
        measured=float(oracle.server_hours),
        kind="less",
    )
    result.add_check(
        "reactive under-provisioning risk stays small (<8% of hours)",
        paper=0.08,
        measured=reactive.violation_rate,
        kind="less",
    )
    result.add_check(
        "reactive recovers much of the oracle savings (>50%)",
        paper=0.50,
        measured=reactive.savings_over(static) / oracle.savings_over(static),
        kind="greater",
    )
    return result


if __name__ == "__main__":
    print(run().render())
