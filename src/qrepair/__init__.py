"""Repair toolkit for int8 weight-quantized classifiers.

Localizes the neurons responsible for float-vs-quantized prediction
disagreement via spectrum counters and suspiciousness metrics, then solves a
minimal weight-correction linear program per neuron and patches the solved
deltas into the quantized model.
"""

__version__ = "0.1.0"
