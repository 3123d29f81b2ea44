"""The force that the split-step oracle integrates exactly: a train of impulses.

For H = p²/2m − F(t)·x, [T,[T,V]] = 0 and [V,[V,T]] is a c-number, so the
Strang step e^{iF(t)x·dt/2ħ}·e^{−iħk²dt/2m}·e^{iF(t+dt)x·dt/2ħ} is exactly the
evolution under impulses: F(0)·dt/2 at t = 0, F(k·dt)·dt at each inner step
and F(t)·dt/2 at the end. Between impulses the particle is free, with the
momentum shift c_j = dt·(F0/2 + F1 + … + Fj) during step j. So the packet
closed form ``gtwp_psi``, fed this profile, is what ``propagate_splitstep``
computes, up to rounding and the grid's spectral truncation.
"""

from dataclasses import dataclass

import numpy as np

from lrwp.forcing import ForceProfile


@dataclass(frozen=True)
class KickTrainProfile(ForceProfile):
    """G, G1 and G2 of the impulse train at the step times t_k = k·dt:

    G(t_k)  = dt·(F0/2 + F1 + … + F_{k−1} + F_k/2)   (the trapezoid sum)
    G1(t_k) = dt·Σ_{j<k} c_j
    G2(t_k) = dt·Σ_{j<k} c_j²
    """

    forces: np.ndarray  # F(k·dt) for k = 0 … n_steps, sampled as the oracle samples them
    dt: float

    @classmethod
    def sampling(cls, profile: ForceProfile, dt: float, n_steps: int) -> "KickTrainProfile":
        forces = np.asarray(profile.force(np.arange(n_steps + 1) * dt), dtype=float)
        return cls(forces=forces, dt=dt)

    def _step(self, t: float) -> int:
        k = int(round(t / self.dt))
        if not 0 <= k < len(self.forces) or abs(k * self.dt - t) > 1e-9 * self.dt:
            raise ValueError(f"t = {t!r} is not a step time of the kick train")
        return k

    def _shifts(self, k: int) -> np.ndarray:
        """c_j for j = 0 … k − 1."""
        f = self.forces
        return self.dt * (np.cumsum(f[:k]) - 0.5 * f[0])

    def g(self, t):
        k = self._step(t)
        if k == 0:
            return 0.0
        return float(self._shifts(k)[-1] + 0.5 * self.dt * self.forces[k])

    def g1(self, t):
        return float(self.dt * np.sum(self._shifts(self._step(t))))

    def g2(self, t):
        return float(self.dt * np.sum(self._shifts(self._step(t)) ** 2))
