"""Partial quantum shadow tomography (PQST) for registers of up to 4 qubits.

Reconstruct targeted density-matrix element classes from small sets of local
{1, H, HS} measurement unitaries with a pseudo-inverse map, combine partial
state estimators into full reconstructions, and benchmark against Pauli,
global-Clifford, and MUB classical shadows.
"""

__version__ = "0.1.0"
