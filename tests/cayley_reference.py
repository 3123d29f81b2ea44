"""Crank–Nicolson as dense matrices: the scheme that ``propagate_cranknicolson`` bands.

H = −(ħ²/2m)·D₄ − F((k + ½)·dt)·x on the grid, with D₄ the 5-point O(dx⁴) second
difference (−1/12, 4/3, −5/2, 4/3, −1/12 over dx², zero past the box), and each
step solves (I + i·dt·H/2ħ)ψ' = (I − i·dt·H/2ħ)ψ with ``np.linalg.solve``. The
oracle factors the left band once per force change and steps by the Cayley
identity ψ' = 2(I + iA)⁻¹ψ − ψ; this reference forms both matrices in full and
multiplies by the right one, so it shares none of that code.
"""

import numpy as np

from lrwp.forcing import ForceProfile
from lrwp.oracle import GridSpec


def cayley_reference(
    rows: np.ndarray, profile: ForceProfile, m: float, hbar: float, spec: GridSpec
) -> list[np.ndarray]:
    """The (cases, n) array ``rows`` after each step 0 … n_steps, t = 0 included."""
    n, x = spec.n, spec.grid.points
    c = hbar * hbar / (2.0 * m * spec.grid.spacing**2)
    kinetic = c * (2.5 * np.eye(n)
                   - 4.0 / 3.0 * (np.eye(n, k=1) + np.eye(n, k=-1))
                   + 1.0 / 12.0 * (np.eye(n, k=2) + np.eye(n, k=-2)))
    psi = np.array(rows, dtype=complex)
    out = [psi]
    for k in range(spec.n_steps):
        h = kinetic - profile.force((k + 0.5) * spec.dt) * np.diag(x)
        a = 1j * spec.dt / (2.0 * hbar) * h
        psi = np.linalg.solve(np.eye(n) + a, (np.eye(n) - a) @ psi.T).T
        out.append(psi)
    return out
