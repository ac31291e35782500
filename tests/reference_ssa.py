"""The one-path Gillespie loop, kept as the tests' reference for the
lockstep kernel, and the path-list forms of the kernel's results.

``reference_call`` runs each lane of a ``simulate_visits`` call alone: a
lane reads only its own column of the call's shared draw blocks (the
``simulate.py`` docstring states the contract), so it gives that lane's
path bits whatever the other lanes do, and the generator ends where the
call leaves it.  ``reference_simulate`` is the one-lane call.  Tests
compare the kernel against them, and use the one-lane call wherever they
need many one-path draws from one shared generator fast.

The package keeps paths as flat visit arrays.  ``simulate_paths`` cuts
those arrays into a ``Trajectory`` per lane.  ``check_until_visits`` is
the stored-path form of the verdicts ``simulate_until`` reaches as its
lanes run: the kernel's until rule (``simulate._until_step``) applied to
every interval of every path at once, and ``check_until_paths`` is it on
a list of paths.  ``discrepancy`` is the distance ``simulate_distances``
adds up, computed from a stored path by lookup rather than as the
kernel's clock passes each observation.
"""

import numpy as np

import crnverify.simulate as SIM
from crnverify import BoundedUntil, Trajectory
from crnverify.model import _falling_product, point_values


def simulate_paths(pcrn, points, t_end, rng) -> list[Trajectory]:
    """The lanes of one ``simulate_visits`` call, a ``Trajectory`` each."""
    states, times, ends = SIM.simulate_visits(pcrn, points, t_end, rng)
    ends = ends.tolist()
    return [
        Trajectory(states=states[start:end], times=times[start:end], horizon=float(t_end))
        for start, end in zip([0, *ends], ends)
    ]


def check_until_visits(states, a, ends, phi1, phi2, t_lo, t_hi, index):
    """Check  phi1 U[t_lo, t_hi] phi2  on every stored path at once.  Path
    ``i`` holds rows ``ends[i-1]:ends[i]`` (from 0 for path 0) of
    ``states`` and their entry times ``a``, and reaches ``t_hi``.

    A path satisfies the formula iff some witness time tau in [t_lo, t_hi]
    has phi2 at the state occupied at tau and phi1 at every strictly
    earlier time.  Returns ``(satisfied, witness)``, one entry per path;
    the witness is the earliest fulfilling time, NaN where the formula
    fails.  Each state row opens the interval [a, b) up to the next jump;
    the last interval of a path ends at infinity, so it covers the closed
    window end.  A path is satisfied iff its first witnessing interval
    comes no later than its first failing one.
    """
    path = BoundedUntil(phi1=phi1, phi2=phi2, t_lo=t_lo, t_hi=t_hi)
    starts = np.append(0, ends[:-1])
    b = np.append(a[1:], 0.0)
    b[ends - 1] = np.inf
    witnesses, failures = SIM._until_step(path, phi1.mask(states, index), phi2.mask(states, index), a, b)
    row, none = np.arange(len(a)), len(a)
    first_witness = np.minimum.reduceat(np.where(witnesses, row, none), starts)
    first_failure = np.minimum.reduceat(np.where(failures, row, none), starts)
    satisfied = (first_witness < none) & (first_witness <= first_failure)
    witness = np.full(len(ends), np.nan)
    witness[satisfied] = np.maximum(a, t_lo)[first_witness[satisfied]]
    return satisfied, witness


def check_until_paths(paths, phi1, phi2, t_lo, t_hi, index):
    """``check_until_visits`` on a list of paths, each reaching ``t_hi``."""
    if any(p.horizon < t_hi for p in paths):
        raise ValueError(f"trajectory horizon {min(p.horizon for p in paths)} ends before t'={t_hi}")
    ends = np.cumsum([len(p.times) for p in paths])
    states = np.concatenate([p.states for p in paths])
    times = np.concatenate([p.times for p in paths])
    return check_until_visits(states, times, ends, phi1, phi2, t_lo, t_hi, index)


def discrepancy(data, sim: Trajectory) -> float:
    """Euclidean distance between observed and simulated counts: the
    square root of the sum, over every observation time and component, of
    squared differences, added observation by observation and species in
    order.  The simulated path must reach the last observation time."""
    last = float(data.times[-1])
    if sim.horizon < last:
        raise ValueError(f"simulation horizon {sim.horizon} ends before last observation at {last}")
    x = SIM.states_at(sim, data.times).astype(float)
    diff = data.observations - x
    return float(np.sqrt(np.cumsum(diff * diff)[-1]))


class _DrawBuffer:
    """Column ``lane`` of a call's draw blocks over ``lanes`` lanes.

    The call draws (rows x lanes) blocks in the order exponentials 0,
    uniforms 0, exponentials 1, uniforms 1, ...; the first two at once, and
    a later one only when this lane first needs it."""

    def __init__(self, rng, lane=0, lanes=1):
        self.rng, self.lane, self.lanes = rng, lane, lanes
        self.rows = -(-SIM._BLOCK // lanes)
        self._blocks = []
        self._draw(1, 0)  # the first two blocks, as the call draws them
        self._ei = 0
        self._ui = 0

    def _draw(self, index, i):
        while len(self._blocks) <= index:
            shape = (self.rows, self.lanes)
            exponential = len(self._blocks) % 2 == 0
            self._blocks.append(self.rng.standard_exponential(shape) if exponential else self.rng.random(shape))
        return self._blocks[index][i % self.rows, self.lane]

    def exponential(self):
        v = self._draw(2 * (self._ei // self.rows), self._ei)
        self._ei += 1
        return v

    def uniform(self):
        v = self._draw(2 * (self._ui // self.rows) + 1, self._ui)
        self._ui += 1
        return v


def reference_simulate(pcrn, point, t_end, rng):
    """One path alone on ``rng``: the one-lane call."""
    return _simulate(pcrn, point, t_end, _DrawBuffer(rng))


def reference_call(pcrn, points, t_end, rng):
    """Every lane of one call on ``rng``, each run alone on a copy of it.
    ``rng`` then moves past the blocks the lanes drew, as the call moves
    it: the call draws a block past its first two only when some lane
    needs it."""
    paths, drawn = [], 0
    for j, point in enumerate(points):
        draws = _DrawBuffer(_copy(rng), j, len(points))
        paths.append(_simulate(pcrn, point, t_end, draws))
        drawn = max(drawn, len(draws._blocks))
    _DrawBuffer(rng, 0, len(points))._draw(drawn - 1, 0)
    return paths


def _copy(rng):
    """A generator at the same position as ``rng``."""
    twin = np.random.Generator(type(rng.bit_generator)())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _simulate(pcrn, point, t_end, draws):
    values = point_values(pcrn.params.names, point)
    rates = [values[r.rate] for r in pcrn.reactions]
    reactants = [r.reactants for r in pcrn.reactions]
    n_reactions = len(pcrn.reactions)
    state = list(pcrn.initial_state)
    t = 0.0
    states = [tuple(state)]
    times = [0.0]
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
        for i, d in enumerate(pcrn.reactions[chosen].change):
            state[i] += d
        states.append(tuple(state))
        times.append(t)
    return Trajectory(
        states=np.array(states, dtype=np.int64),
        times=np.array(times, dtype=float),
        horizon=float(t_end),
    )
