"""Experiment harnesses: one module per paper figure/table.

Each module exposes ``run(...) -> ExperimentResult``; running a module as a
script prints the reproduced rows/series next to the paper's reference
values.  ``run_all()`` executes the full battery (the EXPERIMENTS.md
source of truth)."""

from . import (
    ablation_autoscaling,
    ablation_cache,
    ablation_dedup,
    ablation_decoupling,
    ablation_deferral,
    ablation_initial_window,
    ablation_mitigations,
    ablation_pacing,
    ablation_parallel,
    ablation_window_cost,
    ablation_window_length,
    d1_dataset,
    fig01_workload,
    fig03_intervals,
    fig04_burstiness,
    fig05_session_size,
    fig06_filesize_model,
    fig07_usage_ratio,
    fig08_engagement,
    fig09_retrieval_return,
    fig10_activity_se,
    fig12_chunk_time,
    fig13_inflight,
    fig14_rtt,
    fig15_swnd,
    fig16_idle,
    r2_fault_resilience,
    r3_correlated_failures,
    r4_open_loop,
    r5_partial_unavailability,
    r6_autoscaler,
    recovery,
    s1_session_classes,
    table3_user_types,
)
from .base import Check, ExperimentResult

ALL_EXPERIMENTS = (
    d1_dataset,
    fig01_workload,
    fig03_intervals,
    s1_session_classes,
    fig04_burstiness,
    fig05_session_size,
    fig06_filesize_model,
    fig07_usage_ratio,
    table3_user_types,
    fig08_engagement,
    fig09_retrieval_return,
    fig10_activity_se,
    fig12_chunk_time,
    fig13_inflight,
    fig14_rtt,
    fig15_swnd,
    fig16_idle,
    ablation_mitigations,
    ablation_deferral,
    ablation_dedup,
    ablation_cache,
    ablation_pacing,
    ablation_parallel,
    ablation_window_cost,
    ablation_initial_window,
    ablation_window_length,
    ablation_decoupling,
    ablation_autoscaling,
    recovery,
    r2_fault_resilience,
    r3_correlated_failures,
    r4_open_loop,
    r5_partial_unavailability,
    r6_autoscaler,
)


def run_all(verbose: bool = True) -> list[ExperimentResult]:
    """Run every experiment; returns the results (and prints them)."""
    results = []
    for module in ALL_EXPERIMENTS:
        result = module.run()
        results.append(result)
        if verbose:
            print(result.render())
            print()
    return results


__all__ = [
    "ALL_EXPERIMENTS",
    "Check",
    "ExperimentResult",
    "run_all",
]
