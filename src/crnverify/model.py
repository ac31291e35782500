"""Parametric chemical reaction networks and their finite Markov-chain semantics.

A network is a set of species, mass-action reactions whose rate constants
are free parameters confined to a hyperrectangle, and an initial molecule
count vector.  States of the induced continuous-time Markov chain are
molecule-count vectors; reaction j fires in state x at propensity
``theta_j * g_j(x)`` where ``g_j`` counts distinct reactant combinations
(product of falling factorials).  A parameter point is a 1-D sequence of
rates in ``params.names`` order.  One kernel computes ``g_j`` for the
simulator, the state enumeration and the chain builder alike.  Enumerated
states are keyed by mixed-radix integers, so looking many of them up is
one binary search over a sorted array.

All types are immutable after construction and safe to share across
concurrent tasks.
"""

import math
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, StateSpaceCapError

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class Reaction:
    """One mass-action reaction in the index form every kernel reads.

    ``reactants`` holds sorted (species index, order) pairs, ``change``
    the net count change of each species, and ``rate`` the index of the
    reaction's rate in ``params.names``.  ``PCRN`` checks them against
    its species and parameters.
    """

    reactants: tuple[tuple[int, int], ...]
    change: tuple[int, ...]
    rate: int
    name: str = ""


@dataclass(frozen=True)
class ParameterSpace:
    """Compact hyperrectangle of admissible rate-parameter values."""

    dims: tuple[tuple[str, float, float], ...]

    def __post_init__(self):
        seen = set()
        for name, lo, hi in self.dims:
            if name in seen:
                raise ConfigError(f"duplicate parameter {name!r}")
            seen.add(name)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ConfigError(f"parameter {name!r} bounds must be finite")
            if not lo < hi:
                raise ConfigError(f"parameter {name!r} needs lower < upper bound")
            if lo < 0:  # every parameter is a rate constant
                raise ConfigError(f"parameter {name!r} is a rate: its lower bound {lo} must be nonnegative")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.dims)

    @property
    def lower(self) -> np.ndarray:
        return np.array([lo for _, lo, _ in self.dims])

    @property
    def upper(self) -> np.ndarray:
        return np.array([hi for _, _, hi in self.dims])

    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


@dataclass(frozen=True)
class PCRN:
    """A parametric chemical reaction network.

    ``species`` holds the species names in state-vector order.
    ``conserved_total``, when set, bounds the total molecule count during
    state-space enumeration (the SIR case conserves S+I+R exactly).
    """

    species: tuple[str, ...]
    reactions: tuple[Reaction, ...]
    params: ParameterSpace
    initial_state: tuple[int, ...]
    conserved_total: int | None = None

    def __post_init__(self):
        n, names = len(self.species), self.params.names
        if len(set(self.species)) != n:
            raise ConfigError("duplicate species names")
        if len(self.initial_state) != n:
            raise ConfigError("initial state length does not match species count")
        if any(c < 0 for c in self.initial_state):
            raise ConfigError("initial molecule counts must be nonnegative")
        if self.conserved_total is not None and sum(self.initial_state) > self.conserved_total:
            raise ConfigError("initial state exceeds conserved total")
        for r in self.reactions:
            if not 0 <= r.rate < len(names):
                raise ConfigError(f"reaction {r.name or '?'!r} uses undeclared parameter number {r.rate} "
                                  f"of {list(names)}")
            label = repr(r.name or names[r.rate])  # the rate parameter names an unnamed reaction
            if not all(0 <= i < n and order > 0 for i, order in r.reactants):
                raise ConfigError(f"reaction {label} has a reactant outside species 0..{n - 1} or of order below 1")
            if len(r.change) != n:
                raise ConfigError(f"reaction {label} changes {len(r.change)} species of {n}")
            if not any(r.change):
                raise ConfigError(f"reaction {label} has zero net change")

    def species_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.species)}


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Enumerated reachable states with a state<->ordinal bijection.

    ``states`` is an (N, n) int array in lexicographic order.  A state's key
    is its mixed-radix number whose digit i is the count of species i in
    radix ``radices[i]`` (the species' maximum count + 1), species 0 most
    significant; lexicographic order makes ``keys`` ascending, so a lookup
    is a binary search.
    """

    states: np.ndarray
    radices: np.ndarray = field(repr=False)
    keys: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.states)

    def ordinals(self, rows) -> np.ndarray:
        """Row numbers of the states in ``rows`` (an (m, n) array), -1 where absent.

        A row with a count outside ``[0, radix)`` cannot be in the space and
        is rejected before keying, so no key can alias another state.
        """
        rows = np.asarray(rows, dtype=np.int64)
        valid = np.all((rows >= 0) & (rows < self.radices), axis=1)
        keys = rows[valid] @ _place_values(self.radices)
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        found = self.keys[pos] == keys
        out = np.full(len(rows), -1, dtype=np.int64)
        out[np.nonzero(valid)[0][found]] = pos[found]
        return out

    def ordinal(self, state) -> int:
        i = int(self.ordinals([state])[0])
        if i < 0:
            raise KeyError(tuple(int(c) for c in state))
        return i


def _place_values(radices: np.ndarray) -> np.ndarray:
    # digit i weighs the product of the radices after it
    return np.append(np.cumprod(radices[:0:-1])[::-1], 1)


def _falling_product(reactants, x):
    """Reactant-combination count prod_i x_i (x_i - 1) ... (x_i - u_i + 1).

    ``reactants`` is a reaction's ``((species index, order u_i), ...)`` pairs
    and ``x`` is indexed by species: one state of ints, or ``states.T`` as
    float columns to count in every state at once.  Counts are nonnegative,
    so a factor reaches 0 before any factor goes negative and no clamp is
    needed.  The factors multiply left to right, and a lone first-order
    reactant returns ``x[i]`` itself rather than a copy.
    """
    g = None
    for i, needed in reactants:
        for k in range(needed):
            factor = x[i] - k if k else x[i]
            g = factor if g is None else g * factor
    return 1 if g is None else g


def point_values(names: tuple[str, ...], point: Sequence[float]) -> list[float]:
    """A point's rates, one per name in ``names`` order, as Python floats;
    a ``ConfigError`` for a point of any other shape."""
    values = np.asarray(point, dtype=float)
    if values.shape != (len(names),):
        raise ConfigError(f"parameter point of shape {values.shape} does not match parameters {list(names)}")
    return values.tolist()


def enumerate_states(pcrn: PCRN, max_states: int = DEFAULT_STATE_CAP) -> StateSpace:
    """Breadth-first closure of the reachable state set.

    Successors whose total molecule count exceeds ``conserved_total`` (when
    set) are outside the modeled manifold and are not explored.  Exceeding
    ``max_states``, or a state space whose keys do not fit in int64, raises
    rather than truncating silently.
    """
    start = tuple(int(c) for c in pcrn.initial_state)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for r in pcrn.reactions:
            if _falling_product(r.reactants, state) == 0:
                continue
            nxt = [c + d for c, d in zip(state, r.change)]
            if any(c < 0 for c in nxt):
                continue
            if pcrn.conserved_total is not None and sum(nxt) > pcrn.conserved_total:
                continue
            nxt = tuple(nxt)
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise StateSpaceCapError(
                        f"state space exceeds cap of {max_states} states; "
                        "raise the cap or bound the network"
                    )
                seen.add(nxt)
                queue.append(nxt)
    states = np.array(sorted(seen), dtype=np.int64)
    radices = states.max(axis=0) + 1
    if math.prod(radices.tolist()) > np.iinfo(np.int64).max:
        raise StateSpaceCapError(
            f"state keys with per-species radices {radices.tolist()} overflow int64"
        )
    keys = states @ _place_values(radices)
    for a in (states, radices, keys):
        a.setflags(write=False)
    return StateSpace(states=states, radices=radices, keys=keys)
