"""What the benchmark measures: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repository root is written from these tables by
``python3 bench/run.py --write-manifest``.
"""

RUN_SECONDS = 20

WORKLOADS = {
    "kernel-mult": "mult-norm (pencil, bisection), contraction, kl-check and gram on 4 kernels, 16-48 points; Gram assembly by per-entry kernel_eval dominates",
    "pick-sweep": "pick-solve on 6-12 halving-gap nodes plus carleson-probe sweeps with m 5-7; the PSD bisection in hardy_pick dominates, kernel_eval never runs",
    "metric-realize": "realize, roundtrip, rank-check, topology-probe, lip-dual and submult on 40-240 point dyadic graph metrics; n^3 triangle validation dominates time and memory",
}

#: Seconds one pool of rounds (``workloads.POOL_ROUNDS``) took on the machine
#: the benchmark was built on.  A run attempts ``pools(workload, seconds)``
#: whole pools, a number fixed by the workload and ``--seconds`` alone, so
#: ``attempted`` and ``failed`` are the same in every run and on both sides of
#: a comparison, and a faster program finishes the same work sooner.
POOL_SECONDS = {"kernel-mult": 6.9, "pick-sweep": 20.0, "metric-realize": 19.5}


def pools(workload: str, seconds: float) -> int:
    """Whole pools a run attempts: about ``seconds`` of work at today's speed."""
    return max(1, round(seconds / POOL_SECONDS[workload]))


# (name, unit, better, bound).  On the shared 2-vCPU machine the benchmark was
# built on, the speed of the machine drifts by up to 70% over minutes.  The
# timings are scaled to a reference speed (speed.py), which removes most of
# that drift but not all of it, so the timing bounds are the largest allowed.
# Peak memory does not drift (IQR 0.3% over seeds).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_p90_ms", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
)

# (name, unit, better).  Times and counts are per operation of the traced
# run; "_self_" leaves out the traced calls the layer makes.  A layer that a
# workload never enters reads 0 there.
PER_LAYER = (
    ("import.modules", "count", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("cli.report_kib", "KiB", "lower"),
    ("kernels.kernel_eval_calls", "count", "lower"),
    ("kernels.gram_ms", "ms", "lower"),
    ("kernels.hermitian_from_upper_ms", "ms", "lower"),
    ("kernels.psd_check_calls", "count", "lower"),
    ("kernels.psd_check_ms", "ms", "lower"),
    ("multipliers.sampled_mult_norm_self_ms", "ms", "lower"),
    ("multipliers.contraction_check_self_ms", "ms", "lower"),
    ("hardy_pick.pick_min_norm_self_ms", "ms", "lower"),
    ("hardy_pick.psd_checks_per_solve", "count", "lower"),
    ("hardy_pick.separability_probe_ms", "ms", "lower"),
    ("geometry.metric_space_ms", "ms", "lower"),
    ("geometry.metric_space_peak_mib", "MiB", "lower"),
    ("geometry.submult_ratio_ms", "ms", "lower"),
    ("realization.build_model_ms", "ms", "lower"),
    ("realization.coefficient_roundtrip_ms", "ms", "lower"),
    ("realization.very_independence_check_ms", "ms", "lower"),
)


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
