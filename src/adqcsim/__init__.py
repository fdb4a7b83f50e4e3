"""Simulator for ancilla-driven quantum computation with tunable coupling.

The register is steered entirely by preparing, coupling and measuring
single ancilla qubits.  The package covers interaction classification,
measurement-induced Kraus back-action, stochastic gate generation,
entangling-gate generation with repeat-until-success CZ synthesis, and the
iterative weak-measurement protocol, plus a reproducible CLI.
"""

from __future__ import annotations

__version__ = "0.1.0"
