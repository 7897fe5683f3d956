"""Metric names, units and directions, and the per-layer roll-up of a trace.

BENCHMARK.json lists the same names; test_perfbench.py keeps the two equal.
Per-layer values are per timed call, averaged over the traced calls of a
run, except the `_max` metrics, which are maxima over the run.
"""

from __future__ import annotations

END_TO_END = [
    ("adj_wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("val_accuracy_after", "fraction", "higher"),
    ("val_fidelity_after", "fraction", "higher"),
]

# wrapped functions reported as .calls / .s / .self_s
TIMED_FUNCTIONS = [
    "cli.cli_main",
    "data.load_dataset",
    "model.load_model", "model.forward", "model.capture_activations",
    "quantize.quantized_forward", "quantize.capture_activations_q",
    "quantize.layer_input_vector", "quantize.load_qmodel", "quantize.save_qmodel",
    "quantize.clone_quantized",
    "evaluate.accuracy", "evaluate.fidelity",
    "localize.classify_tests", "localize.build_diff_matrix", "localize.rank",
    "lp.build_neuron_lp", "lp.solve_lp",
    "simplex.simplex_solve",
    "repair.repair", "repair.apply_deltas",
    "experiment.train_mlp", "experiment.damaged_quantized_model",
]
# the three calls repair() makes to rank neurons, reported as one span
RANK_PARTS = ("localize.rank.accumulate_spectra", "localize.rank.importance_scores",
              "localize.rank.rank_neurons")
LAYER_KINDS = ("dense", "relu", "conv2d", "flatten")
# (name, better); the `_max` ones are maxima over the run
COUNTS = [
    ("model.Tensor.constructions", "lower"),
    ("lp.build_neuron_lp.empty", "lower"),
    ("lp.constraints", "higher"),
    ("lp.rows_max", "lower"),
    ("lp.cols_max", "lower"),
    ("lp.optimal", "higher"),
    ("lp.infeasible", "lower"),
    ("lp.timeout", "lower"),
    ("simplex.pivots", "lower"),
    ("simplex.pivots_per_lp_max", "lower"),
    ("repair.constraints_held", "higher"),
    ("repair.constraints_total", "higher"),
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    specs = []
    for fn in TIMED_FUNCTIONS:
        specs += [(f"{fn}.calls", "count", "lower"), (f"{fn}.s", "s", "lower"),
                  (f"{fn}.self_s", "s", "lower")]
    for kind in LAYER_KINDS:
        specs += [(f"model.apply_layer.{kind}.calls", "count", "lower"),
                  (f"model.apply_layer.{kind}.s", "s", "lower")]
    specs += [(name, "count", better) for name, better in COUNTS]
    specs.append(("trace_overhead", "ratio", "lower"))
    return specs


def roll_up(totals: dict, n_calls: int, trace_overhead: float) -> dict:
    """Per-layer metric values from a trace summed over `n_calls` traced calls.

    `totals` maps a wrapped-function key to [calls, s, self_s] and a count
    name to its sum (or maximum, for the `_max` counts).
    """
    agg = dict(totals)
    agg["localize.rank"] = [
        agg.get("localize.rank.rank_neurons", [0, 0.0, 0.0])[0],
        sum(agg.get(k, [0, 0.0, 0.0])[1] for k in RANK_PARTS),
        sum(agg.get(k, [0, 0.0, 0.0])[2] for k in RANK_PARTS),
    ]
    agg["model.Tensor.constructions"] = agg.get("model.Tensor", [0])[0]
    agg["simplex.pivots"] = agg.get("simplex._pivot", [0])[0]
    values = {}
    for fn in TIMED_FUNCTIONS:
        calls, s, self_s = agg.get(fn, [0, 0.0, 0.0])
        values[f"{fn}.calls"] = calls / n_calls
        values[f"{fn}.s"] = s / n_calls
        values[f"{fn}.self_s"] = self_s / n_calls
    for kind in LAYER_KINDS:
        calls, s, _ = agg.get(f"model.apply_layer.{kind}", [0, 0.0, 0.0])
        values[f"model.apply_layer.{kind}.calls"] = calls / n_calls
        values[f"model.apply_layer.{kind}.s"] = s / n_calls
    for name, _ in COUNTS:
        value = agg.get(name, 0)
        values[name] = value if name.endswith("_max") else value / n_calls
    values["trace_overhead"] = trace_overhead
    return values
