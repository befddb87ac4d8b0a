"""Universes, membership functions, linguistic variables and fuzzification.

A linguistic variable ties a named quantity (say, a temperature) to a
uniformly discretized universe of discourse and a list of linguistic terms.
Each term is described by one of five parameterized membership shapes, all
callable: ``mf(x)`` returns the membership grade of ``x`` in ``[0, 1]``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import FuzzyError, InvalidUniverse, NonFiniteInput, ValidationError


def _readonly(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _count(value, what: str, minimum: int, error: type[FuzzyError] = ValidationError) -> int:
    """``value`` as an ``int`` if it is a whole number of at least
    ``minimum``; anything else (bools, strings, NaN, infinities, fractions)
    raises ``error``."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            n = int(value)
        except (OverflowError, ValueError):
            pass
        else:
            if n == value and n >= minimum:
                return n
    raise error(f"{what} must be a whole number >= {minimum}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Universe:
    """Uniformly sampled base set of a linguistic variable.

    ``points`` is derived: ``n`` samples evenly spaced from ``min`` to
    ``max`` inclusive. ``offsets`` holds the same samples as fractions of
    the span, evenly spaced over ``[0, 1]``; center of gravity works on them
    so that its sums cannot overflow.
    """

    min: float
    max: float
    n: int
    points: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "min", float(self.min))
        object.__setattr__(self, "max", float(self.max))
        object.__setattr__(self, "n", _count(self.n, "sample count", 2, InvalidUniverse))
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise InvalidUniverse("universe bounds must be finite")
        if not self.min < self.max:
            raise InvalidUniverse(f"need min < max, got [{self.min}, {self.max}]")
        if not math.isfinite(self.span):
            raise InvalidUniverse(
                f"span of [{self.min}, {self.max}] overflows; use a narrower range"
            )
        pts = np.linspace(self.min, self.max, self.n)
        diffs = np.diff(pts)
        if not np.all(diffs > 0.0):
            raise InvalidUniverse("sample spacing underflows; use fewer samples")
        # the realized grid must be uniform to within 1e-9 of the span,
        # which a huge offset-to-span ratio makes unrepresentable
        step = (self.max - self.min) / (self.n - 1)
        if not np.all(np.abs(diffs - step) <= 1e-9 * (self.max - self.min)):
            raise InvalidUniverse(
                f"range [{self.min}, {self.max}] is too narrow relative to its "
                f"magnitude for a uniform grid"
            )
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "offsets", _readonly(np.linspace(0.0, 1.0, self.n)))

    @property
    def span(self) -> float:
        return self.max - self.min

    @property
    def midpoint(self) -> float:
        # halving is exact, so this is 0.5 * (min + max) without its overflow
        return 0.5 * self.min + 0.5 * self.max

    def clamp(self, x: float) -> float:
        """Saturate a crisp value to the universe bounds."""
        return min(max(x, self.min), self.max)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Universe):
            return NotImplemented
        return (self.min, self.max, self.n) == (other.min, other.max, other.n)

    def __hash__(self) -> int:
        return hash((self.min, self.max, self.n))


def _ramps(xs, a: float, b: float, c: float, d: float) -> np.ndarray:
    """Grades of the trapezoid with feet ``a``, ``d`` and plateau ``[b, c]``
    at every point of ``xs``, from the ramp expressions the scalar forms use.

    A vertical edge divides by zero (``±inf``, or NaN at the edge itself)
    and an open side of ``±inf`` gives NaN; ``fmin`` takes the other ramp
    wherever one is NaN, and the clip saturates the rest.
    """
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        rising = (xs - a) / (b - a)
        falling = (d - xs) / (d - c)
        np.fmin(rising, falling, out=rising)
        return np.clip(rising, 0.0, 1.0, out=rising)


class MembershipFunction:
    """Base class of the five shape families. Instances are callable and
    total over the reals: any ``x`` maps to a grade in ``[0, 1]``.

    ``mf(x)`` grades one point and ``mf.sample(xs)`` a whole array of
    points; the two agree bit for bit at every point. A subclass defines
    ``__call__`` and ``support``; the five shapes also override ``sample``
    with array arithmetic, and an override must keep that agreement and
    stay inside ``[0, 1]``, since its grades are used unchecked.
    """

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def sample(self, xs) -> np.ndarray:
        """Grades at every point of ``xs``, as a new float array.

        This default calls ``mf(x)`` once per point and rejects any grade
        outside ``[0, 1]``."""
        grades = np.array([self(x) for x in np.asarray(xs, dtype=float).tolist()], dtype=float)
        if not np.all((grades >= 0.0) & (grades <= 1.0)):
            raise ValidationError(f"{type(self).__name__} grades must lie in [0, 1]")
        return grades

    def support(self) -> tuple[float, float]:
        """Closure of ``{x : grade(x) > 0}`` as an interval; infinite ends
        where the shape never reaches zero."""
        raise NotImplementedError

    def _coerce(self, *names: str) -> None:
        for name in names:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(
                    f"{type(self).__name__}.{name} must be a number, got {value!r}"
                )
            if not math.isfinite(float(value)):
                raise ValidationError(f"{type(self).__name__}.{name} must be finite")
            # + 0.0 turns -0.0 into 0.0: a vertical edge from 0.0 to -0.0
            # would divide by -0.0 and flip the sign of its ramp
            object.__setattr__(self, name, float(value) + 0.0)

    def _check_width(self, lo: float, hi: float) -> None:
        # a ramp across an overflowing width would divide by infinity
        if not math.isfinite(hi - lo):
            raise ValidationError(
                f"{type(self).__name__} support width {hi} - ({lo}) overflows"
            )


@dataclass(frozen=True)
class Triangular(MembershipFunction):
    """Triangle with feet ``a``, ``c`` and peak ``b``. Degenerate edges
    (``a == b`` or ``b == c``) evaluate as a vertical jump at the peak."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        self._coerce("a", "b", "c")
        if not (self.a <= self.b <= self.c):
            raise ValidationError(
                f"triangular parameters must satisfy a <= b <= c, got "
                f"({self.a}, {self.b}, {self.c})"
            )
        if not self.a < self.c:
            raise ValidationError("triangular support must have positive width (a < c)")
        self._check_width(self.a, self.c)

    def __call__(self, x: float) -> float:
        if x == self.b:
            return 1.0
        if x <= self.a or x >= self.c:
            return 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        return (self.c - x) / (self.c - self.b)

    def sample(self, xs) -> np.ndarray:
        return _ramps(xs, self.a, self.b, self.b, self.c)

    def support(self) -> tuple[float, float]:
        return (self.a, self.c)


@dataclass(frozen=True)
class Trapezoidal(MembershipFunction):
    """Trapezoid with feet ``a``, ``d`` and plateau ``[b, c]``."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        self._coerce("a", "b", "c", "d")
        if not (self.a <= self.b <= self.c <= self.d):
            raise ValidationError(
                f"trapezoidal parameters must satisfy a <= b <= c <= d, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )
        if not self.a < self.d:
            raise ValidationError("trapezoidal support must have positive width (a < d)")
        self._check_width(self.a, self.d)

    def __call__(self, x: float) -> float:
        if self.b <= x <= self.c:
            return 1.0
        if x <= self.a or x >= self.d:
            return 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        return (self.d - x) / (self.d - self.c)

    def sample(self, xs) -> np.ndarray:
        return _ramps(xs, self.a, self.b, self.c, self.d)

    def support(self) -> tuple[float, float]:
        return (self.a, self.d)


@dataclass(frozen=True)
class Gaussian(MembershipFunction):
    """Bell curve ``exp(-(x - center)^2 / (2 sigma^2))``; never reaches zero.

    Both forms use numpy's ``exp``: ``math.exp`` rounds differently on a
    few percent of arguments.
    """

    center: float
    sigma: float

    def __post_init__(self) -> None:
        self._coerce("center", "sigma")
        if not self.sigma > 0:
            raise ValidationError(f"gaussian sigma must be positive, got {self.sigma}")

    def __call__(self, x: float) -> float:
        z = (x - self.center) / self.sigma
        return float(np.exp(-0.5 * z * z))

    def sample(self, xs) -> np.ndarray:
        with np.errstate(all="ignore"):
            z = (np.asarray(xs, dtype=float) - self.center) / self.sigma
            return np.exp(-0.5 * z * z)

    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)


@dataclass(frozen=True)
class ZShoulder(MembershipFunction):
    """Left shoulder: grade 1 up to ``a``, falling linearly to 0 at ``b``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        self._coerce("a", "b")
        if not self.a < self.b:
            raise ValidationError(f"shoulder needs a < b, got ({self.a}, {self.b})")
        self._check_width(self.a, self.b)

    def __call__(self, x: float) -> float:
        if x <= self.a:
            return 1.0
        if x >= self.b:
            return 0.0
        return (self.b - x) / (self.b - self.a)

    def sample(self, xs) -> np.ndarray:
        return _ramps(xs, -math.inf, -math.inf, self.a, self.b)

    def support(self) -> tuple[float, float]:
        return (-math.inf, self.b)


@dataclass(frozen=True)
class SShoulder(MembershipFunction):
    """Right shoulder: grade 0 up to ``a``, rising linearly to 1 at ``b``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        self._coerce("a", "b")
        if not self.a < self.b:
            raise ValidationError(f"shoulder needs a < b, got ({self.a}, {self.b})")
        self._check_width(self.a, self.b)

    def __call__(self, x: float) -> float:
        if x <= self.a:
            return 0.0
        if x >= self.b:
            return 1.0
        return (x - self.a) / (self.b - self.a)

    def sample(self, xs) -> np.ndarray:
        return _ramps(xs, self.a, self.b, math.inf, math.inf)

    def support(self) -> tuple[float, float]:
        return (self.a, math.inf)


def mf_parameters(mf: MembershipFunction) -> list[float]:
    """Shape parameters in declaration order, e.g. ``[a, b, c]`` for a triangle."""
    return [getattr(mf, f.name) for f in fields(mf)]


@dataclass(frozen=True)
class LinguisticTerm:
    """One qualitative label of a variable, e.g. ``"TM"`` for medium."""

    name: str
    mf: MembershipFunction

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("term name must be a non-empty string")
        if not isinstance(self.mf, MembershipFunction):
            raise ValidationError(
                f"term {self.name!r} needs a membership function, got {self.mf!r}"
            )


@dataclass(frozen=True)
class LinguisticVariable:
    """A named quantity described by linguistic terms over a universe."""

    name: str
    universe: Universe
    terms: tuple[LinguisticTerm, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("variable name must be a non-empty string")
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValidationError(f"variable {self.name!r} needs at least one term")
        seen = set()
        for term in self.terms:
            if term.name in seen:
                raise ValidationError(
                    f"variable {self.name!r} has duplicate term {term.name!r}"
                )
            seen.add(term.name)
            lo, hi = term.mf.support()
            if hi < self.universe.min or lo > self.universe.max:
                raise ValidationError(
                    f"term {term.name!r} lies entirely outside the universe "
                    f"[{self.universe.min}, {self.universe.max}]"
                )

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    def term_index(self, name: str) -> int:
        for i, term in enumerate(self.terms):
            if term.name == name:
                return i
        raise ValidationError(f"variable {self.name!r} has no term {name!r}")


@dataclass(frozen=True, eq=False)
class FuzzySet:
    """Vector of membership grades over a universe's sample points."""

    universe: Universe
    grades: np.ndarray

    def __post_init__(self) -> None:
        g = _readonly(self.grades)
        if g.ndim != 1 or g.shape[0] != self.universe.n:
            raise ValidationError(
                f"grades must be a vector of length {self.universe.n}, "
                f"got shape {g.shape}"
            )
        if not np.all((g >= 0.0) & (g <= 1.0)):
            raise ValidationError("grades must lie in [0, 1]")
        object.__setattr__(self, "grades", g)

    @classmethod
    def _trusted(cls, universe: Universe, grades: np.ndarray) -> FuzzySet:
        """Wrap a grade vector the library computed itself, of the right
        length and inside ``[0, 1]`` by construction: no copy, no check."""
        fset = object.__new__(cls)
        grades.setflags(write=False)
        object.__setattr__(fset, "universe", universe)
        object.__setattr__(fset, "grades", grades)
        return fset

    def __len__(self) -> int:
        return self.universe.n

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.grades.astype(dtype)
        return self.grades

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzySet):
            return NotImplemented
        return self.universe == other.universe and np.array_equal(
            self.grades, other.grades
        )

    __hash__ = None


def discretize(mf: MembershipFunction, universe: Universe) -> FuzzySet:
    """Sample a membership function over a universe's points."""
    return FuzzySet._trusted(universe, mf.sample(universe.points))


def singleton_fuzzify(x0: float, var: LinguisticVariable) -> np.ndarray:
    """Grade a crisp value against every term of a variable.

    The value is clamped to the universe before evaluation, so out-of-range
    readings saturate instead of failing. Returns one grade per term.
    """
    x = float(x0)
    if not math.isfinite(x):
        raise NonFiniteInput(f"crisp input must be finite, got {x0!r}")
    xc = var.universe.clamp(x)
    return np.array([term.mf(xc) for term in var.terms])
