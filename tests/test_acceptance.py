"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a [PASS]/[FAIL] line (visible with `pytest -s` or in the
captured output). Budgets are wall-clock upper bounds from the criteria.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import GOLDEN, make_desk_parts
from oracles import grid_oracle
from qrepair.evaluate import fidelity
from qrepair.experiment import MLP_BLOBS
from qrepair.localize import (
    METRICS,
    accumulate_spectra,
    build_diff_matrix,
    classify_tests,
    compare_at_layer,
    importance,
)
from qrepair.lp import NeuronLP, build_neuron_lp, check_solution, export_lp, solve_lp
from qrepair.model import dequantize
from qrepair.quantize import capture_activations_q, quantize_tensor
from qrepair.repair import RepairConfig, repair

HAND_COUNTERS = (2, 3, 1, 4)
HAND_VALUES = (0.666667, 0.516398, 1.0, 0.333333, 0.2, 2.449490, 1.0)


@contextmanager
def criterion(name, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] {name}")
        raise
    elapsed = time.monotonic() - t0
    if budget is not None and elapsed >= budget:
        print(f"\n[FAIL] {name} (runtime {elapsed:.2f}s over {budget}s budget)")
        raise AssertionError(f"{name}: {elapsed:.2f}s exceeds {budget}s")
    print(f"\n[PASS] {name} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def blobs_fixture():
    """mlp-blobs desk fixture at preset scale, seed 42."""
    return make_desk_parts(MLP_BLOBS, seed=42)


@pytest.fixture(scope="module")
def experiment_report(tmp_path_factory):
    import json

    from qrepair.cli import cli_main

    out = tmp_path_factory.mktemp("acceptance_experiment")
    t0 = time.monotonic()
    code = cli_main(["experiment", "--preset", "mlp-blobs", "--seed", "42",
                     "--out", str(out)])
    elapsed = time.monotonic() - t0
    assert code == 0
    report = json.loads((out / "experiment_report.json").read_text())
    return report, elapsed


def test_metric_correctness():
    with criterion("metric correctness", budget=1.0):
        for metric, want in zip(METRICS, HAND_VALUES):
            got = importance(HAND_COUNTERS, metric)
            assert abs(got - want) <= 1e-6, (metric, got, want)
        rng = np.random.default_rng(123)
        for _ in range(1000):
            c = tuple(int(v) for v in rng.integers(0, 100, size=4))
            for metric in METRICS:
                v = importance(c, metric)
                assert not math.isnan(v)
            for metric in ("tarantula", "ochiai", "jaccard", "ample"):
                assert 0.0 <= importance(c, metric) <= 1.0 + 1e-12
            assert importance(c, "euclid") >= 0.0
            if c[0] == 0:  # 0/0 guard: no failing evidence scores zero
                for metric in ("tarantula", "ochiai", "dstar", "jaccard"):
                    assert importance(c, metric) == 0.0
            bumped = (c[0] + 1, c[1], c[2], c[3])
            for metric in ("tarantula", "ochiai", "dstar", "jaccard"):
                assert importance(bumped, metric) >= importance(c, metric) - 1e-12


def test_quantization_round_trip():
    with criterion("quantization round-trip", budget=1.0):
        rng = np.random.default_rng(456)
        for _ in range(1000):
            size = int(rng.integers(1, 48))
            mag = 10.0 ** rng.uniform(-2, 2)
            values = (rng.normal(size=size) * mag).astype(np.float32)
            qt = quantize_tensor(values)
            back = dequantize(qt)
            assert np.all(
                np.abs(values.astype(np.float64) - back) <= qt.scale / 2 + 1e-9
            )
            neg = quantize_tensor(-values)
            assert np.array_equal(neg.data, -qt.data)


def test_lp_solver_oracle_equivalence():
    with criterion("lp solver oracle equivalence", budget=30.0):
        analytic = NeuronLP(0, 0, np.array([1.0, -2.0]), 0.0, [[1.0, 1.0]], [1], [0], 0.0)
        sol = solve_lp(analytic, 10.0)
        assert sol.status == "optimal"
        assert abs(sol.M - 0.5) <= 1e-6

        rng = np.random.default_rng(20240)
        compared = 0
        while compared < 100:
            m = int(rng.integers(1, 3))
            k = int(rng.integers(1, 4))
            w = rng.uniform(-1, 1, m)
            bias = float(rng.uniform(-0.3, 0.3))
            eps = float(rng.choice([0.0, 1e-3]))
            xs, ts = [], []
            for _ in range(k):
                xs.append(rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m))
                ts.append(int(rng.integers(0, 2)))
            ts = np.array(ts)
            lp = NeuronLP(0, 0, w, bias, xs, ts, 1 - ts, eps)
            oracle = grid_oracle(lp, bound=0.25, step=5e-4)
            sol = solve_lp(lp, 30.0)
            if oracle is None:
                # nothing feasible inside the grid box: solver must agree or
                # land strictly outside the box
                assert sol.status == "infeasible" or (
                    sol.status == "optimal" and sol.M > 0.25 - 1e-3
                )
                continue
            assert sol.status == "optimal"
            assert abs(sol.M - oracle) <= 1e-3
            assert check_solution(lp, sol, slack=1e-9)
            compared += 1


def test_constraint_fidelity_after_repair(blobs_fixture):
    with criterion("constraint fidelity after repair", budget=60.0):
        fmodel, qmodel, repair_set, val = blobs_fixture
        config = RepairConfig(metric="tarantula", top_n=5, patch_mode="float_patch")
        patched, report = repair(fmodel, qmodel, repair_set, val, config)
        target = report.target_layer
        comparison = compare_at_layer(fmodel, qmodel, repair_set, target)
        solved = [r for r in report.records if r.status == "optimal"]
        assert solved, "fixture must yield at least one repaired neuron"
        checked = 0
        for rec in solved:
            lp = build_neuron_lp(comparison, rec.neuron, epsilon=config.epsilon,
                                 max_constraints=config.max_constraints)
            for con in lp.constraints:
                x = repair_set.features[con.test_id].reshape(fmodel.input_shape)
                (rec_q,) = capture_activations_q(patched, x, {target})
                assert int(rec_q.status[rec.neuron]) == con.target_status
                checked += 1
        assert checked > 0


def test_end_to_end_repair_gain(experiment_report):
    report, elapsed = experiment_report
    with criterion("end-to-end repair gain", budget=None):
        assert elapsed < 300.0, f"experiment took {elapsed:.1f}s"
        assert report["gap_points"] >= 2.0
        assert report["best_accuracy"] >= report["quantized_accuracy"]
        assert "random" in report["strategies"]


def test_spectra_invariants(blobs_fixture):
    with criterion("spectra invariants", budget=None):
        fmodel, qmodel, repair_set, val = blobs_fixture
        target = fmodel.last_dense_index()
        for ds in (repair_set, val):
            outcomes = classify_tests(fmodel, qmodel, ds)
            failing = np.array([o.is_failing for o in outcomes], dtype=bool)
            n_fail = int(failing.sum())
            diff = build_diff_matrix(fmodel, qmodel, ds, target)
            counters = accumulate_spectra(diff, failing)
            assert np.all(counters.c_af + counters.c_nf == n_fail)
            assert np.all(counters.c_as + counters.c_ns == len(ds) - n_fail)
            fid = fidelity(fmodel, qmodel, ds)
            assert 1.0 - fid == pytest.approx(n_fail / len(ds), abs=1e-12)


def test_determinism_byte_identical_reports(blobs_fixture):
    with criterion("determinism of seeded repair reports", budget=None):
        fmodel, qmodel, repair_set, val = blobs_fixture
        config = RepairConfig(metric="euclid", top_n=5)
        _, r1 = repair(fmodel, qmodel, repair_set, val, config)
        _, r2 = repair(fmodel, qmodel, repair_set, val, config)
        assert r1.to_json().encode() == r2.to_json().encode()


def test_lp_export_golden_files(tmp_path):
    with criterion("lp export golden files", budget=None):
        lp_a = NeuronLP(0, 0, np.array([1.0, -2.0]), 0.0, [[1.0, 1.0]], [1], [0], 1e-3)
        export_lp(lp_a, tmp_path / "a.lp")
        assert (tmp_path / "a.lp").read_bytes() == (GOLDEN / "neuron_a.lp").read_bytes()
        lp_b = NeuronLP(5, 3, np.array([0.25, -0.75, 1.5]), 0.125,
                        [[1.5, -2.25, 0.5], [-0.5, 0.125, 2.0]], [0, 1], [1, 0],
                        0.01, big_M_bound=2.0)
        export_lp(lp_b, tmp_path / "b.lp")
        assert (tmp_path / "b.lp").read_bytes() == (GOLDEN / "neuron_b.lp").read_bytes()


def test_solve_outcome_accounting(blobs_fixture):
    with criterion("solve-outcome accounting", budget=None):
        fmodel, qmodel, repair_set, _ = blobs_fixture

        def weights_untouched(patched):
            return all(
                np.array_equal(b.eff_weights, a.eff_weights)
                for b, a in zip(qmodel.layers, patched.layers)
                if b.eff_weights is not None
            )

        timed_out, rep_t = repair(fmodel, qmodel, repair_set, None,
                                  RepairConfig(top_n=3, time_budget=0.0))
        assert rep_t.count("timeout") >= 1
        assert rep_t.count("optimal") == 0
        assert weights_untouched(timed_out)
        assert sum(rep_t.counts().values()) == rep_t.attempts

        infeasible, rep_i = repair(fmodel, qmodel, repair_set, None,
                                   RepairConfig(top_n=3, epsilon=5.0,
                                                delta_bound=1e-9))
        assert rep_i.count("infeasible") >= 1
        assert rep_i.count("optimal") == 0
        assert weights_untouched(infeasible)
        assert sum(rep_i.counts().values()) == rep_i.attempts
