"""Accuracy and model-agreement (fidelity) measurement.

`evaluate` scores label arrays that are already computed, so a caller that
holds a model's labels (a repair keeps the float model's validation labels,
say) measures without running the model again; `accuracy` and `fidelity`
run the models and score through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import forward_batch


@dataclass
class EvalResult:
    n: int
    correct: int
    accuracy: float
    fidelity: float | None = None


def predict(model, dataset) -> np.ndarray:
    """argmax label of every dataset row through a float or a quantized model."""
    return forward_batch(model, dataset.features)[0].argmax(axis=1)


def evaluate(predicted: np.ndarray, dataset, reference: np.ndarray | None = None) -> EvalResult:
    """Score one model's labels of the dataset rows against the stored labels.

    When `reference` holds another model's labels of the same rows, the
    result also carries the fidelity, (n - k)/n for k disagreements. Raises
    ValueError when either is not one label per dataset row.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    for name, labels in (("predicted", predicted), ("reference", reference)):
        if labels is not None and np.shape(labels) != (n,):
            raise ValueError(f"{name} has shape {np.shape(labels)}, not one label per "
                             f"each of the {n} dataset rows")
    correct = int(np.sum(predicted == dataset.labels))
    fid = None if reference is None else (n - int(np.sum(predicted != reference))) / n
    return EvalResult(n, correct, correct / n, fid)


def accuracy(model, dataset, reference=None) -> EvalResult:
    """Fraction of dataset rows whose predicted label matches the stored label.

    When `reference` is given, the result also carries the fidelity between
    `model` and the reference on the same inputs.
    """
    ref = None if reference is None else predict(reference, dataset)
    return evaluate(predict(model, dataset), dataset, ref)


def fidelity(model_a, model_b, dataset) -> float:
    """Fraction of inputs on which the two models emit the same label.

    Symmetric in its model arguments and independent of dataset labels.
    """
    return evaluate(predict(model_a, dataset), dataset, predict(model_b, dataset)).fidelity
