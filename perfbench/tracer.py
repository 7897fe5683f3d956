"""Tracer that wraps qrepair's public functions from outside the package.

Several qrepair modules import functions by name (`from .lp import
build_neuron_lp`), so wrapping only the defining module would miss most call
sites. `Tracer.install` therefore rebinds every attribute of every loaded
`qrepair` module (and the `Tensor` class) that *is* the wrapped object, and
`Tracer.restore` puts every original back.

Every wrapped call is timed. Self time is a call's duration minus the time
of wrapped calls made inside it. Coarse functions also leave a span record
(name, start, end, parent); the hot leaves (`apply_layer`, `Tensor`
construction, `_pivot`) and the per-sample forward functions are only
aggregated, because they run tens of thousands of times per timed call.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, metric key); these keep per-call span records
SPAN_TARGETS = [
    ("qrepair.cli", "cli_main", "cli.cli_main"),
    ("qrepair.data", "load_dataset", "data.load_dataset"),
    ("qrepair.model", "load_model", "model.load_model"),
    ("qrepair.quantize", "load_qmodel", "quantize.load_qmodel"),
    ("qrepair.quantize", "save_qmodel", "quantize.save_qmodel"),
    ("qrepair.quantize", "clone_quantized", "quantize.clone_quantized"),
    ("qrepair.evaluate", "accuracy", "evaluate.accuracy"),
    ("qrepair.evaluate", "fidelity", "evaluate.fidelity"),
    ("qrepair.localize", "classify_tests", "localize.classify_tests"),
    ("qrepair.localize", "build_diff_matrix", "localize.build_diff_matrix"),
    ("qrepair.localize", "accumulate_spectra", "localize.rank.accumulate_spectra"),
    ("qrepair.localize", "importance_scores", "localize.rank.importance_scores"),
    ("qrepair.localize", "rank_neurons", "localize.rank.rank_neurons"),
    ("qrepair.lp", "build_neuron_lp", "lp.build_neuron_lp"),
    ("qrepair.lp", "solve_lp", "lp.solve_lp"),
    ("qrepair.simplex", "simplex_solve", "simplex.simplex_solve"),
    ("qrepair.repair", "repair", "repair.repair"),
    ("qrepair.repair", "apply_deltas", "repair.apply_deltas"),
    ("qrepair.experiment", "run_experiment", "experiment.run_experiment"),
    ("qrepair.experiment", "train_mlp", "experiment.train_mlp"),
    ("qrepair.experiment", "damaged_quantized_model", "experiment.damaged_quantized_model"),
]
HOT_TARGETS = [
    ("qrepair.model", "forward", "model.forward"),
    ("qrepair.model", "capture_activations", "model.capture_activations"),
    ("qrepair.quantize", "quantized_forward", "quantize.quantized_forward"),
    ("qrepair.quantize", "capture_activations_q", "quantize.capture_activations_q"),
    ("qrepair.quantize", "layer_input_vector", "quantize.layer_input_vector"),
    ("qrepair.model", "apply_layer", "model.apply_layer"),  # keyed by layer kind
    ("qrepair.simplex", "_pivot", "simplex._pivot"),
]
# the repair reports alone, for failure accounting in untraced runs
REPORT_TARGETS = [("qrepair.repair", "repair", "repair.repair")]


class Tracer:
    """Wraps qrepair functions for one timed call; aggregates in memory.

    `full=False` installs only the `repair.repair` wrapper, which records the
    returned reports (neuron attempts and statuses) at negligible cost.
    """

    def __init__(self, full: bool = True):
        self.full = full
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, s, self_s]
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.spans = []  # (id, parent id, name, start, end)
        self.solved = []  # (NeuronLP, LPSolution) for every solve_lp call
        self.repairs = []  # (patched model, [(lp, sol), ...], report) per repair()
        self._stack = []  # [child seconds, span id or None] per open wrapped call
        self._span_ids = itertools.count()
        self._rebound = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> "Tracer":
        # import every module first: one imported while wrappers are installed
        # would bind a wrapper by name, and restore() could not see it
        for modname in sorted({m for m, _, _ in SPAN_TARGETS + HOT_TARGETS}):
            importlib.import_module(modname)
        targets = (SPAN_TARGETS + HOT_TARGETS) if self.full else REPORT_TARGETS
        hot = {key for _, _, key in HOT_TARGETS}
        for modname, attr, key in targets:
            orig = getattr(importlib.import_module(modname), attr)
            self._rebind(orig, self._wrap(orig, key, key not in hot))
        if self.full:
            tensor_cls = importlib.import_module("qrepair.model").Tensor
            orig = tensor_cls.__post_init__
            self._rebound.append((tensor_cls, "__post_init__", orig))
            tensor_cls.__post_init__ = self._wrap(orig, "model.Tensor", False)
        return self

    def _rebind(self, orig, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != "qrepair" and not name.startswith("qrepair."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._rebound.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._rebound):
            setattr(owner, attr, orig)
        self._rebound.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, fn, key, keep_span):
        before, after = self._hooks(key)
        stack, agg, spans = self._stack, self.agg, self.spans
        empty_lp = importlib.import_module("qrepair.lp").EmptyLPError

        def wrapper(*args, **kwargs):
            name = f"{key}.{args[0]}" if key == "model.apply_layer" else key
            span_id = next(self._span_ids) if keep_span else None
            token = before(args) if before else None
            if keep_span:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except empty_lp:
                if key == "lp.build_neuron_lp":
                    self.counters["lp.build_neuron_lp.empty"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                entry = agg[name]
                entry[0] += 1
                entry[1] += dur
                entry[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    spans.append((span_id, parent, name, t0, t1))
            if after:
                after(args, result, token)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, key):
        """Cheap bookkeeping run around specific functions, outside their span."""
        if key == "lp.build_neuron_lp":
            def after(args, lp, token):
                self.counters["lp.constraints"] += len(lp.constraints)
            return None, after
        if key == "lp.solve_lp":
            def after(args, sol, token):
                self.counters[f"lp.{sol.status}"] += 1
                self.solved.append((args[0], sol))
            return None, after
        if key == "simplex.simplex_solve":
            def before(args):
                return self.agg["simplex._pivot"][0]
            def after(args, result, pivots_before):
                rows, cols = args[1].shape
                self._max("lp.rows_max", rows)
                self._max("lp.cols_max", cols)
                self._max("simplex.pivots_per_lp_max",
                          self.agg["simplex._pivot"][0] - pivots_before)
            return before, after
        if key == "repair.repair":
            def before(args):
                return len(self.solved)
            def after(args, result, first_solved):
                patched, report = result
                self.repairs.append((patched, self.solved[first_solved:], report))
            return before, after
        return None, None

    def _max(self, key, value):
        if value > self.maxima[key]:
            self.maxima[key] = value
