"""Adaptive exact completion of low-rank matrices with noisy-row detection."""

from . import completion, instances, linalg, oracle
