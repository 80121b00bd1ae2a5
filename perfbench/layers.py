"""Per-layer metrics: per-round statistics of the traced functions, named
``<module>.<function>.<stat>``, plus a few derived ratios.

Which end-to-end metric each should move, and on which workload:

- engine.optimal_constant_{entropic,analytic}: wall_s (and the reported
  task_p50_s) on both crosscheck workloads; no calls on verify-sampling.
- engine.{analytic_gap,induced_analytic_witness,entropic_gap}: exact
  re-evaluation; small on crosscheck (entropic_gap makes no calls there),
  the per-sample cost on verify-sampling.
- applications.{six_state_check,mu_analytic_check}, channels.*,
  operators.*, entropy.*: verify-sampling; small share on crosscheck.
- applications.{uncertainty_bound_*,min_output_entropy,
  contraction_coefficient}: crosscheck-small.
- sampling.*, cli.main, presets.build_preset, serialization.decode_datum:
  input generation and parsing; setup_s, should not move.
"""

from __future__ import annotations

ALL = ("calls", "self_s", "total_s")

LAYER_STATS = [
    ("engine.optimal_constant_entropic", ALL),
    ("engine.optimal_constant_analytic", ALL),
    ("engine.analytic_gap", ALL),
    ("engine.induced_analytic_witness", ALL),
    ("engine.entropic_gap", ALL),
    ("engine.bl_membership", ("total_s",)),
    ("engine.duality_crosscheck", ("total_s",)),
    ("applications.six_state_check", ALL),
    ("applications.mu_analytic_check", ALL),
    ("applications.uncertainty_bound_entropic", ("total_s",)),
    ("applications.uncertainty_bound_analytic", ("total_s",)),
    ("applications.min_output_entropy", ("total_s",)),
    ("applications.contraction_coefficient", ("total_s",)),
    ("channels.apply", ALL),
    ("channels.apply_adjoint", ALL),
    ("channels.Channel", ("calls", "total_s")),
    ("channels.measurement_channel", ("calls",)),
    ("operators.PSDOperator", ALL),
    ("operators.matrix_log", ALL),
    ("operators.sum_on_joint_support", ALL),
    ("operators.lieb_triple_integral", ALL),
    ("entropy.relative_entropy", ALL),
    ("entropy.supports_contained", ALL),
    ("sampling.random_density", ("self_s",)),
    ("sampling.random_pd", ("self_s",)),
    ("sampling.bloch_sample", ("self_s",)),
    ("cli.main", ("self_s",)),
    ("presets.build_preset", ("total_s",)),
    ("serialization.decode_datum", ("total_s",)),
]

# the application checkers whose Channel constructions per_sample counts
CHECKERS = ["applications.six_state_check", "applications.mu_analytic_check"]

# derived metrics: name -> unit
DERIVED = {
    "engine.entropic_share": "ratio",  # entropic / (entropic + analytic) estimator time
    # Channel constructions inside CHECKERS per checker call that evaluates
    # an analytic gap: 2.5 at seed (3 per six-state call, 2 per MU call),
    # 0 once the measurement channels are built once
    "channels.Channel.per_sample": "ratio",
    "crosscheck.max_dc_nats": "nats",  # worst |C_ent - C_ana|
    "crosscheck.max_ref_dev_nats": "nats",  # worst deviation from a reference constant
    "trace.overhead_s": "s",  # traced minus untraced round time
}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s"}

_CROSSCHECK = [
    "cli.main", "presets.build_preset", "engine.duality_crosscheck",
    "engine.optimal_constant_entropic", "engine.optimal_constant_analytic",
    "engine.analytic_gap", "engine.induced_analytic_witness", "channels.apply",
    "channels.Channel", "operators.PSDOperator", "operators.matrix_log",
    "operators.sum_on_joint_support", "sampling.random_density",
]
# traced functions each workload must call, per the mapping above
CALLED_ON = {
    "crosscheck-small": _CROSSCHECK + [
        "serialization.decode_datum", "channels.measurement_channel",
        "applications.uncertainty_bound_entropic", "applications.uncertainty_bound_analytic",
        "applications.min_output_entropy", "applications.contraction_coefficient",
    ],
    "crosscheck-d8": _CROSSCHECK,
    "verify-sampling": [
        "cli.main", "presets.build_preset", "serialization.decode_datum",
        "engine.bl_membership", "engine.entropic_gap", "engine.analytic_gap",
        "applications.six_state_check", "applications.mu_analytic_check",
        "channels.apply", "channels.apply_adjoint", "channels.Channel",
        "channels.measurement_channel", "operators.PSDOperator", "operators.matrix_log",
        "operators.sum_on_joint_support", "operators.lieb_triple_integral",
        "entropy.relative_entropy", "entropy.supports_contained",
        "sampling.random_density", "sampling.random_pd", "sampling.bloch_sample",
    ],
}
# traced functions the mapping predicts no calls of
NOT_CALLED_ON = {
    "crosscheck-small": ["engine.entropic_gap"],
    "crosscheck-d8": ["engine.entropic_gap"],
    "verify-sampling": ["engine.optimal_constant_entropic", "engine.optimal_constant_analytic"],
}


def names() -> list[str]:
    out = [f"{fn}.{stat}" for fn, stats in LAYER_STATS for stat in stats]
    return out + list(DERIVED)


def metrics(stats: dict, rounds: int, checker_channels: int, checker_calls: int,
            max_dc: float, max_ref_dev: float, overhead_s: float) -> dict:
    """Per-round values of every per-layer metric.

    ``stats`` maps a traced function to its calls, total_s and self_s, and
    ``checker_channels`` counts the Channels built inside CHECKERS, both
    summed over ``rounds`` identical rounds; ``checker_calls`` is per round.
    """
    out = {}
    for fn, wanted in LAYER_STATS:
        for stat in wanted:
            out[f"{fn}.{stat}"] = {"value": stats[fn][stat] / rounds, "unit": UNITS[stat]}
    ent = stats["engine.optimal_constant_entropic"]["total_s"]
    ana = stats["engine.optimal_constant_analytic"]["total_s"]
    channels = checker_channels / rounds
    values = {
        "engine.entropic_share": ent / (ent + ana) if ent + ana > 0 else 0.0,
        "channels.Channel.per_sample": channels / checker_calls if checker_calls else 0.0,
        "crosscheck.max_dc_nats": max_dc,
        "crosscheck.max_ref_dev_nats": max_ref_dev,
        "trace.overhead_s": overhead_s,
    }
    out.update({name: {"value": values[name], "unit": unit} for name, unit in DERIVED.items()})
    return out
