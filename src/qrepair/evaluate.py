"""Accuracy and model-agreement (fidelity) measurement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import forward_batch


@dataclass
class EvalResult:
    dataset_id: str
    n: int
    correct: int
    accuracy: float
    fidelity: float | None = None


def _labels(model, dataset) -> np.ndarray:
    """argmax label of every dataset row through a float or a quantized model."""
    return forward_batch(model, dataset.features)[0].argmax(axis=1)


def accuracy(model, dataset, dataset_id: str = "", reference=None) -> EvalResult:
    """Fraction of dataset rows whose predicted label matches the stored label.

    When `reference` is given, the result also carries the fidelity between
    `model` and the reference on the same inputs.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = int(np.sum(_labels(model, dataset) == dataset.labels))
    fid = fidelity(model, reference, dataset) if reference is not None else None
    return EvalResult(dataset_id, len(dataset), correct, correct / len(dataset), fid)


def fidelity(model_a, model_b, dataset) -> float:
    """Fraction of inputs on which the two models emit the same label.

    Computed as (n - k)/n where k counts label disagreements; symmetric in
    its model arguments and independent of dataset labels.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate fidelity on an empty dataset")
    k = int(np.sum(_labels(model_a, dataset) != _labels(model_b, dataset)))
    n = len(dataset)
    return (n - k) / n
