"""The one-path Gillespie loop the package ran before its paths ran in
lockstep, kept as the tests' reference.

``reference_simulate`` draws from its generator exactly as one lane of
``simulate_paths`` does (the ``simulate.py`` docstring states the order),
so both give the same path bits and leave the generator at the same
position.  Tests compare the kernel against it, and use it wherever they
need many one-path draws from one shared generator fast.
"""

import importlib

import numpy as np

from crnverify import Trajectory
from crnverify.model import _falling_product, compiled_reactions, point_values

SIM = importlib.import_module("crnverify.simulate")


class _DrawBuffer:
    """Blocked draws from one generator: a block of exponentials, then one
    of uniforms, each refilled only when a draw needs it."""

    def __init__(self, rng):
        self.rng = rng
        self._exp = rng.standard_exponential(SIM._BLOCK)
        self._uni = rng.random(SIM._BLOCK)
        self._ei = 0
        self._ui = 0

    def exponential(self):
        if self._ei == len(self._exp):
            self._exp = self.rng.standard_exponential(SIM._BLOCK)
            self._ei = 0
        v = self._exp[self._ei]
        self._ei += 1
        return v

    def uniform(self):
        if self._ui == len(self._uni):
            self._uni = self.rng.random(SIM._BLOCK)
            self._ui = 0
        v = self._uni[self._ui]
        self._ui += 1
        return v


def reference_simulate(pcrn, point, t_end, rng):
    compiled = compiled_reactions(pcrn)
    values = point_values(pcrn.params.names, point)
    rates = [values[k] for _, _, k in compiled]
    reactants = [r for r, _, _ in compiled]
    n_reactions = len(compiled)
    state = list(pcrn.initial_state)
    t = 0.0
    states = [tuple(state)]
    times = [0.0]
    draws = _DrawBuffer(rng)
    props = [0.0] * n_reactions
    while True:
        total = 0.0
        for j in range(n_reactions):
            a = rates[j] * _falling_product(reactants[j], state)
            props[j] = a
            total += a
        if total <= 0.0:
            break
        t += draws.exponential() / total
        if t >= t_end:
            break
        u = draws.uniform() * total
        acc = 0.0
        chosen = n_reactions - 1
        for j in range(n_reactions):
            acc += props[j]
            if u < acc:
                chosen = j
                break
        for i, d in compiled[chosen][1]:
            state[i] += d
        states.append(tuple(state))
        times.append(t)
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        times=np.array(times, dtype=float),
        horizon=float(t_end),
    )
