"""Tower of two-summand matrix algebras refining a continued fraction.

Level n carries the algebra M_{q_n} (+) M_{q_{n-1}} built from the
convergent denominators of theta.  Consecutive levels embed with partial
multiplicities [[m, 1], [1, 0]] where m is the next digit, so dimensions
obey q_{n+1} = m q_n + q_{n-1} on the nose.  Everything here is exact
integer / rational arithmetic:

* K0 classes push forward with the multiplicity matrix M;
* cohomology coefficient pairs pull back with M^{-1} = [[0, 1], [1, -m]],
  giving the inverse-limit functional that pairs 1 with the image of the
  identity and 0 with the image of the level-1 minimal projection;
* trace weights transport backwards from a far horizon and normalize at
  the target level, which lands exactly on a convergent of theta.

A sign-twisted closed form (-1)^n (-q_{n-1}, q_n) for the coefficient
pairs circulates; it annihilates the identity image instead of pairing it
to 1, so it disagrees with the recursion already at level 1.  Both are
computed and the comparison is reported; the recursion is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    HorizonTooSmall,
    InsufficientDigits,
    InvalidInput,
    LevelMismatch,
    MathCheckError,
)
from .exact_arith import CFExpansion, ConvergentTable, convergents


@dataclass(frozen=True)
class BratteliLevel:
    """Algebra M_big (+) M_small at one floor of the tower."""

    n: int
    dim_big: int    # q_n
    dim_small: int  # q_{n-1}

    def to_json_obj(self) -> dict:
        return {"level": self.n, "dims": [self.dim_big, self.dim_small]}


@dataclass(frozen=True)
class EmbeddingStep:
    """Partial embeddings from level n to n+1 with multiplicity matrix M."""

    n_from: int
    multiplicity: int

    @property
    def matrix(self) -> tuple:
        m = self.multiplicity
        return ((m, 1), (1, 0))

    @property
    def inverse(self) -> tuple:
        # det M = -1, so the inverse is integral: [[0, 1], [1, -m]]
        m = self.multiplicity
        return ((0, 1), (1, -m))

    def to_json_obj(self) -> dict:
        return {"from_level": self.n_from, "to_level": self.n_from + 1,
                "multiplicity": self.multiplicity,
                "matrix": [list(r) for r in self.matrix]}


def _mv(m: tuple, v: tuple) -> tuple:
    return (m[0][0] * v[0] + m[0][1] * v[1],
            m[1][0] * v[0] + m[1][1] * v[1])


@dataclass(frozen=True)
class BratteliTower:
    digits: tuple  # the partial quotients a_1 .. a_depth actually used
    levels: tuple  # BratteliLevel, n = 1 .. depth
    steps: tuple   # EmbeddingStep, n = 1 .. depth-1

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> BratteliLevel:
        if not 1 <= n <= self.depth:
            raise LevelMismatch(f"level {n} outside 1..{self.depth}")
        return self.levels[n - 1]

    def step(self, n: int) -> EmbeddingStep:
        """The embedding leaving level n."""
        if not 1 <= n <= self.depth - 1:
            raise LevelMismatch(f"no step leaves level {n} in a depth-{self.depth} tower")
        return self.steps[n - 1]

    def identity_class(self, n: int = 1) -> tuple:
        lv = self.level(n)
        return (lv.dim_big, lv.dim_small)

    def to_json_obj(self) -> dict:
        return {
            "depth": self.depth,
            "digits": [str(d) for d in self.digits],
            "levels": [lv.to_json_obj() for lv in self.levels],
            "steps": [st.to_json_obj() for st in self.steps],
        }

    def to_dot(self) -> str:
        """Graphviz rendering: one node per summand, labeled edges."""
        lines = ["digraph tower {", "  rankdir=LR;"]
        for lv in self.levels:
            lines.append(f'  b{lv.n} [label="L{lv.n} big ({lv.dim_big})"];')
            lines.append(f'  s{lv.n} [label="L{lv.n} small ({lv.dim_small})"];')
        for st in self.steps:
            a, b = st.n_from, st.n_from + 1
            lines.append(f'  b{a} -> b{b} [label="{st.multiplicity}"];')
            lines.append(f'  s{a} -> b{b} [label="1"];')
            lines.append(f'  b{a} -> s{b} [label="1"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_tower(cf: CFExpansion, depth: int) -> BratteliTower:
    """Floors 1..depth of the refinement tower for the expansion cf.

    Dimensions are the convergent denominators; each multiplicity is
    recovered from them by exact division, and the defining recursion is
    re-checked instead of trusted.
    """
    if depth < 1:
        raise InvalidInput("depth must be >= 1")
    if len(cf.digits) < depth:
        raise InsufficientDigits(
            f"expansion provides {len(cf.digits)} digits, tower needs {depth}")
    table = convergents(cf)
    q = [table.q(n) for n in range(-1, depth + 1)]  # q[i] = q_{i-1}
    levels = tuple(BratteliLevel(n, q[n + 1], q[n]) for n in range(1, depth + 1))
    steps = []
    for n in range(1, depth):
        num = q[n + 2] - q[n]
        if num % q[n + 1] != 0:
            raise MathCheckError(
                f"q_{n + 1} = {q[n + 1]} does not divide q_{n + 2} - q_{n} = {num}")
        m = num // q[n + 1]
        if m != cf.digits[n]:  # digit a_{n+1}, zero-indexed
            raise MathCheckError(
                f"recovered multiplicity {m} != expansion digit {cf.digits[n]}")
        step = EmbeddingStep(n, m)
        mat = step.matrix
        if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] != -1:
            raise MathCheckError("embedding matrix must have determinant -1")
        if m * q[n + 1] + q[n] != q[n + 2]:
            raise MathCheckError("dimension recursion failed")
        steps.append(step)
    return BratteliTower(tuple(cf.digits[:depth]), levels, tuple(steps))


def push_k0_class(tower: BratteliTower, vec: tuple, n_from: int,
                  n_to: int) -> tuple:
    """Transport an integer K0 vector up the tower with the step matrices."""
    if n_to < n_from:
        raise LevelMismatch("push runs upward; swap the levels")
    tower.level(n_from)
    tower.level(n_to)
    v = (int(vec[0]), int(vec[1]))
    for n in range(n_from, n_to):
        v = _mv(tower.step(n).matrix, v)
    return v


def khom_pullback_matrix(tower: BratteliTower, n: int) -> tuple:
    """Coefficient pairs against level n+1 restrict to level n via M itself.

    The multiplicity matrix is symmetric, so the transpose that a pullback
    formally requires is invisible here; it is still reported through this
    accessor so callers stay honest about the direction.
    """
    return tower.step(n).matrix


@dataclass(frozen=True)
class KHomCoefficients:
    """Inverse-limit coefficient pairs, one per level, plus the comparison
    against the circulating closed form."""

    vectors: tuple          # recursion values, level 1 .. depth
    closed_form: tuple      # (-1)^n (-q_{n-1}, q_n) per level
    matches_closed_form: bool

    def vector(self, n: int) -> tuple:
        if not 1 <= n <= len(self.vectors):
            raise LevelMismatch(f"level {n} outside 1..{len(self.vectors)}")
        return self.vectors[n - 1]

    def to_json_obj(self) -> dict:
        return {
            "vectors": [list(v) for v in self.vectors],
            "closed_form": [list(v) for v in self.closed_form],
            "matches_closed_form": self.matches_closed_form,
        }


def inverse_limit_coefficients(tower: BratteliTower) -> KHomCoefficients:
    """Solve the compatibility recursion downward from the seed (0, 1).

    The seed pairs the level-1 identity image (q_1, q_0) to 1 and the
    minimal projection (1, 0) to 0; each later vector is the unique
    integral solution restricting to the previous one.
    """
    vecs = [(0, 1)]
    for n in range(1, tower.depth):
        vecs.append(_mv(tower.step(n).inverse, vecs[-1]))
    closed = []
    for lv in tower.levels:
        sign = -1 if lv.n % 2 else 1  # (-1)^n
        closed.append((sign * (-lv.dim_small), sign * lv.dim_big))
    matches = all(a == b for a, b in zip(vecs, closed))
    return KHomCoefficients(tuple(vecs), tuple(closed), matches)


def pairing_along_tower(tower: BratteliTower, vec: tuple,
                        coeffs: Optional[KHomCoefficients] = None) -> int:
    """Pair a level-1 K0 vector against the inverse-limit functional.

    The value is computed independently at every level after pushing the
    class forward; any disagreement means the transports are inconsistent
    and is raised, not averaged away.
    """
    if coeffs is None:
        coeffs = inverse_limit_coefficients(tower)
    values = []
    for n in range(1, tower.depth + 1):
        w = push_k0_class(tower, vec, 1, n)
        c = coeffs.vector(n)
        values.append(c[0] * w[0] + c[1] * w[1])
    if any(v != values[0] for v in values):
        raise MathCheckError(f"pairing drifted along the tower: {values}")
    return values[0]


@dataclass(frozen=True)
class TraceWeightVector:
    """Exact weights of the two minimal projections at one level."""

    level: int
    horizon: int
    beta_big: Fraction
    beta_small: Fraction

    def normalized(self, dims: tuple) -> bool:
        return self.beta_big * dims[0] + self.beta_small * dims[1] == 1

    def to_json_obj(self) -> dict:
        return {
            "level": self.level,
            "horizon": self.horizon,
            "beta_big": str(self.beta_big),
            "beta_small": str(self.beta_small),
        }


def _transport_weights(tower: BratteliTower, n: int, horizon: int) -> tuple:
    s = (Fraction(1), Fraction(0))
    for k in range(horizon - 1, n - 1, -1):
        m = tower.step(k).matrix
        s = (m[0][0] * s[0] + m[0][1] * s[1], m[1][0] * s[0] + m[1][1] * s[1])
    lv = tower.level(n)
    total = s[0] * lv.dim_big + s[1] * lv.dim_small
    return (s[0] / total, s[1] / total)


def trace_weights(tower: BratteliTower, n: int,
                  horizon: Optional[int] = None) -> TraceWeightVector:
    """Weights making the level-n trace consistent far up the tower.

    The unit weight vector at the horizon is transported down with the
    multiplicity matrices and normalized so the identity has trace 1.
    With no explicit horizon the transport is extended until the big
    weight moves by less than 1e-12 between horizons (or the tower ends).
    """
    tower.level(n)
    if horizon is not None:
        if horizon < n + 2:
            raise HorizonTooSmall(f"horizon {horizon} < level + 2 = {n + 2}")
        if horizon > tower.depth:
            raise InvalidInput(
                f"horizon {horizon} beyond tower depth {tower.depth}")
        beta = _transport_weights(tower, n, horizon)
        return TraceWeightVector(n, horizon, beta[0], beta[1])
    h = min(tower.depth, n + 30)
    if h < n + 2:
        raise HorizonTooSmall(
            f"tower depth {tower.depth} leaves no room above level {n}")
    beta = _transport_weights(tower, n, h)
    while h < tower.depth:
        nxt = _transport_weights(tower, n, h + 1)
        moved = abs(nxt[0] - beta[0])
        beta, h = nxt, h + 1
        if moved <= Fraction(1, 10**12):
            break
    return TraceWeightVector(n, h, beta[0], beta[1])
