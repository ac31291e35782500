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
from functools import cache

import numpy as np

from .errors import ConfigError, StateSpaceCapError

DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class Species:
    """A chemical species and its position in the state vector."""

    name: str
    index: int


@dataclass(frozen=True)
class Reaction:
    """One mass-action reaction: reactants -> products at a named rate parameter.

    ``reactants`` and ``products`` map species names to nonnegative counts.
    The net stoichiometric change must be nonzero.
    """

    reactants: tuple[tuple[str, int], ...]
    products: tuple[tuple[str, int], ...]
    rate_parameter: str
    name: str = ""

    def __post_init__(self):
        for side in (self.reactants, self.products):
            for species, count in side:
                if count < 0:
                    raise ConfigError(f"negative stoichiometric count for {species}")
        if not self.net_change():
            raise ConfigError(f"reaction {self.name or self.rate_parameter!r} has zero net change")

    def net_change(self) -> dict[str, int]:
        """Map species -> net count change, omitting zero entries."""
        delta: dict[str, int] = {}
        for species, count in self.products:
            delta[species] = delta.get(species, 0) + count
        for species, count in self.reactants:
            delta[species] = delta.get(species, 0) - count
        return {s: d for s, d in delta.items() if d != 0}


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

    ``conserved_total``, when set, bounds the total molecule count during
    state-space enumeration (the SIR case conserves S+I+R exactly).
    """

    species: tuple[Species, ...]
    reactions: tuple[Reaction, ...]
    params: ParameterSpace
    initial_state: tuple[int, ...]
    conserved_total: int | None = None

    def __post_init__(self):
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate species names")
        if [s.index for s in self.species] != list(range(len(names))):
            raise ConfigError("species indices must be contiguous from 0")
        if len(self.initial_state) != len(self.species):
            raise ConfigError("initial state length does not match species count")
        if any(c < 0 for c in self.initial_state):
            raise ConfigError("initial molecule counts must be nonnegative")
        declared = set(self.params.names)
        known = set(names)
        for r in self.reactions:
            if r.rate_parameter not in declared:
                raise ConfigError(f"reaction {r.name or '?'} uses undeclared parameter {r.rate_parameter!r}")
            for species, _ in r.reactants + r.products:
                if species not in known:
                    raise ConfigError(f"reaction {r.name or '?'} references unknown species {species!r}")
        if self.conserved_total is not None and sum(self.initial_state) > self.conserved_total:
            raise ConfigError("initial state exceeds conserved total")

    def species_index(self) -> dict[str, int]:
        return {s.name: s.index for s in self.species}

    def species_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.species)


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

    ``reactants`` is a compiled ``((species index, order u_i), ...)`` list
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


# Per-network compiled reaction structure: index-based reactant lists,
# sparse stoichiometric deltas and the index of each reaction's rate in
# ``params.names``, shared by the simulator and the chain builder.
@cache
def compiled_reactions(pcrn: PCRN):
    idx = pcrn.species_index()
    names = pcrn.params.names
    compiled = []
    for r in pcrn.reactions:
        reactants: dict[int, int] = {}
        for species, count in r.reactants:
            if count:
                reactants[idx[species]] = reactants.get(idx[species], 0) + count
        delta = tuple(sorted((idx[s], d) for s, d in r.net_change().items()))
        compiled.append((tuple(sorted(reactants.items())), delta, names.index(r.rate_parameter)))
    return tuple(compiled)


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
    compiled = compiled_reactions(pcrn)
    start = tuple(int(c) for c in pcrn.initial_state)
    seen = {start}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for reactants, delta, _ in compiled:
            if _falling_product(reactants, state) == 0:
                continue
            nxt = list(state)
            for i, d in delta:
                nxt[i] += d
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
