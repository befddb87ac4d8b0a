"""Universes, membership functions, linguistic variables and fuzzification.

A linguistic variable ties a named quantity (say, a temperature) to a
uniformly discretized universe of discourse and a list of linguistic terms.
Each term is described by one of five parameterized membership shapes, all
callable: ``mf(x)`` returns the membership grade of ``x`` in ``[0, 1]``.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import FuzzyError, InvalidUniverse, NonFiniteInput, ValidationError


def _number_array(values, what: str, error: type[FuzzyError] = ValidationError) -> np.ndarray:
    """``values`` as a float array whose every element passes ``_real(v,
    what, error)``: as a whole for an ndarray of integers or of floats no
    wider than a double, else one by one, so ragged nesting is not a number."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf" and np.can_cast(values, float):
        arr = values.astype(float, copy=False)
        finite = np.isfinite(arr)
        if not finite.all():  # the first non-finite element fails the rule
            _real(arr.flat[int(np.argmin(finite))], what, error)
        return arr
    try:
        objs = np.asarray(values, dtype=object)
    except ValueError as exc:  # arrays of unequal shapes in one list
        raise ValidationError(f"{what} must be a number, got a ragged array ({exc})") from None
    return np.array([_real(v, what, error) for v in objs.flat], dtype=float).reshape(objs.shape)


def _instance(value, cls, what: str):
    """``value`` if it is an instance of ``cls``, else ``ValidationError``:
    the check of every public argument that takes an object, not numbers.
    ``cls`` may be a tuple of classes; the message names its first."""
    if not isinstance(value, cls):
        name = (cls[0] if isinstance(cls, tuple) else cls).__name__
        raise ValidationError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def _grade_array(values, what: str) -> np.ndarray:
    """A read-only float copy of a caller's ``values``, every one of which
    must be a number (``_number_array``) in ``[0, 1]``, else
    ``ValidationError``; the copy leaves the caller's array writable."""
    arr = np.array(_number_array(values, what), order="C")
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValidationError(f"{what} must lie in [0, 1]")
    arr.setflags(write=False)
    return arr


# The largest count _count accepts: universe samples, output resolution,
# sweep steps and plot samples. One row of 2^20 doubles is 8 MiB; a larger
# count is rejected before anything is allocated.
MAX_SAMPLES = 1 << 20

# The most terms x samples cells a regulator compiles or a plot samples:
# 128 MiB of doubles, where 128 terms at MAX_SAMPLES would be a gigabyte.
MAX_CELLS = 1 << 24

# Doubles per scratch block: a variable grades its terms this many cells at
# a time, and evaluate_many's buffers hold as many inputs as fit, at least one.
CHUNK_ELEMENTS = 1 << 16


def _count(value, what: str, minimum: int, error: type[FuzzyError] = ValidationError) -> int:
    """``value`` as an ``int`` if it is a whole number from ``minimum`` to
    :data:`MAX_SAMPLES`; anything else (bools, strings, NaN, infinities,
    fractions, larger counts) raises ``error``."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            n = int(value)
        except (OverflowError, ValueError):
            pass
        else:
            if n == value and minimum <= n <= MAX_SAMPLES:
                return n
    raise error(
        f"{what} must be a whole number from {minimum} to {MAX_SAMPLES}, got {value!r}"
    )


def _check_cells(terms: int, samples: int, what: str) -> None:
    """Reject more than :data:`MAX_CELLS` terms x samples before allocating."""
    if terms * samples > MAX_CELLS:
        raise ValidationError(f"{what} {samples} x {terms} terms exceeds MAX_CELLS ({MAX_CELLS})")


def _real(value, what: str, error: type[FuzzyError] = ValidationError) -> float:
    """``value`` as a ``float`` if it is a finite real number, the rule of
    every crisp number the library takes: a ``numbers.Real`` that is not a
    bool, so numpy's integer and floating scalars pass. Strings, bools and
    anything else raise ``ValidationError``; NaN, an infinity and an
    integer too large for a double raise ``error``."""
    if type(value) is not float:  # a float, the common case, skips these checks
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(f"{what} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            value = math.inf if value > 0 else -math.inf
    if not math.isfinite(value):
        raise error(f"{what} must be finite, got {value!r}")
    return value


class _Rebuilt:
    """A dataclass whose copies and pickles go through its constructor, so
    that their arrays are read-only and what it derives (a regulator's
    compiled matrix, a shape's corners) is derived again, not copied.

    One declared ``eq=False``, since its fields hold arrays, compares here:
    an object of the same class with equal init fields, arrays by value."""

    __slots__ = ()

    def __reduce__(self):
        return (type(self), tuple(getattr(self, name) for name in self.__match_args__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self.__reduce__()[1], other.__reduce__()[1])
        )


@dataclass(frozen=True)
class Universe(_Rebuilt):
    """Uniformly sampled base set of a linguistic variable.

    ``points`` is derived: ``n`` samples evenly spaced from ``min`` to
    ``max`` inclusive. ``offsets`` holds the same samples as fractions of
    the span, evenly spaced over ``[0, 1]``; center of gravity works on them
    so that its sums cannot overflow.
    """

    min: float
    max: float
    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # + 0.0 stores a -0.0 bound as 0.0: numpy's maximum and minimum
        # may return either zero on a tie, Python's max and min the first,
        # and the two forms of center of gravity clamp to these bounds
        object.__setattr__(self, "min", _real(self.min, "universe min", InvalidUniverse) + 0.0)
        object.__setattr__(self, "max", _real(self.max, "universe max", InvalidUniverse) + 0.0)
        object.__setattr__(self, "n", _count(self.n, "sample count", 2, InvalidUniverse))
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
        # in place, and let go before the offsets are made: the scratch
        # beyond the two rows kept is one row
        np.abs(np.subtract(diffs, step, out=diffs), out=diffs)
        uniform = np.all(diffs <= 1e-9 * (self.max - self.min))
        del diffs
        if not uniform:
            raise InvalidUniverse(
                f"range [{self.min}, {self.max}] is too narrow relative to its "
                f"magnitude for a uniform grid"
            )
        offsets = np.linspace(0.0, 1.0, self.n)
        pts.setflags(write=False)
        offsets.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "offsets", offsets)

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


def _ramps(xs, a, b, c, d) -> np.ndarray:
    """Grades of the trapezoid with feet ``a``, ``d`` and plateau ``[b, c]``
    at every point of ``xs``, from the ramp expressions the scalar forms use;
    corners given as ``(k, 1)`` arrays grade ``k`` trapezoids, one per row.

    A vertical edge divides by zero (``±inf``, or NaN at the edge itself)
    and an open side of ``±inf`` gives NaN; ``fmin`` takes the other ramp
    wherever one is NaN, and the clip saturates the rest. ``xs`` is a float
    array of at least one dimension, which the library builds.
    """
    with np.errstate(all="ignore"):
        rising = (xs - a) / (b - a)
        falling = (d - xs) / (d - c)
        np.fmin(rising, falling, out=rising)
        return np.clip(rising, 0.0, 1.0, out=rising)


def _bell(xs, center, sigma) -> np.ndarray:
    """Grades of the gaussian at ``center`` with width ``sigma`` at every
    point of ``xs``; ``(g, 1)`` arrays grade ``g`` gaussians, as in ``_ramps``."""
    with np.errstate(all="ignore"):
        z = (xs - center) / sigma
        return np.exp(-0.5 * z * z)


def _checked(mf, x) -> float:
    """``mf(x)`` as a float, which must be a number (``_real``) in ``[0, 1]``:
    how the library takes each grade of a shape that is not a built-in one."""
    grade = mf(x)
    if isinstance(grade, numbers.Real) and not 0.0 <= grade <= 1.0:  # NaN too
        raise ValidationError(f"{type(mf).__name__} grades must lie in [0, 1], got {grade!r}")
    return _real(grade, f"{type(mf).__name__} grade")


def _pointwise(mf, xs: np.ndarray) -> np.ndarray:
    """``_checked`` grades of ``mf`` at every point of the float vector ``xs``."""
    return np.array([_checked(mf, x) for x in xs.tolist()])


class MembershipFunction:
    """Base class of the five shape families. Instances are callable and
    total over the reals: any ``x`` maps to a grade in ``[0, 1]``.

    ``mf(x)`` grades one point, and ``mf.sample(xs)`` grades each point of
    an array alike unless overridden. A subclass defines ``__call__`` and
    ``support``: two numbers, low <= high, either end maybe infinite (the
    linear shapes share one set in ``_Linear``). The library grades a shape
    whose class is not one of the five built-in ones through ``__call__``
    alone, each grade a number in ``[0, 1]``, never through its ``sample``.
    A subclass need not be a dataclass; its copies follow Python's defaults.
    """

    def __call__(self, x: float) -> float:
        raise NotImplementedError

    def sample(self, xs) -> np.ndarray:
        """Grades at every point of ``xs``, each point a finite number
        (``_real``), as a new float array of its shape: graded by
        ``_families``, as every library path grades, so each equals ``mf(x)``."""
        xs = _number_array(xs, "sample point")
        [(_, grade, params)] = _families((self,))
        return grade(xs.reshape(-1), *params).reshape(xs.shape)

    def support(self) -> tuple[float, float]:
        """An interval outside which every grade is 0; infinite ends where
        the shape stays positive."""
        raise NotImplementedError

    def _coerce(self, *names: str) -> None:
        for name in names:
            value = _real(getattr(self, name), f"{type(self).__name__}.{name}")
            # + 0.0 turns -0.0 into 0.0: a vertical edge from 0.0 to -0.0
            # would divide by -0.0 and flip the sign of its ramp
            object.__setattr__(self, name, value + 0.0)


class _Linear(_Rebuilt, MembershipFunction):
    """The four linear shapes as one trapezoid with feet ``a``, ``d`` and
    plateau ``[b, c]``, on one rule: a shape's fields are finite and
    ascending, the first below the last by a finite width. Messages name
    the shape by its document ``type``, the lowercased class name. Its
    ``_CORNERS`` names the field at each corner, ``None`` for a shoulder's
    open side at ``±inf``; the corners are kept in a slot, so that
    ``vars(mf)`` holds only the shape's fields."""

    __slots__ = ("_corners",)
    _CORNERS: tuple[str | None, ...]

    def __post_init__(self) -> None:
        names = self.__match_args__  # a dataclass's init fields, in order
        self._coerce(*names)
        values = [getattr(self, name) for name in names]
        shape, lo, hi = type(self).__name__.lower(), values[0], values[-1]
        if values != sorted(values):
            order, got = " <= ".join(names), ", ".join(map(str, values))
            raise ValidationError(f"{shape} parameters must satisfy {order}, got ({got})")
        if not lo < hi:
            raise ValidationError(
                f"{shape} support must have positive width ({names[0]} < {names[-1]})"
            )
        # a ramp across an overflowing width would divide by infinity
        if not math.isfinite(hi - lo):
            raise ValidationError(f"{shape} support width {hi} - ({lo}) overflows")
        ends = (-math.inf, -math.inf, math.inf, math.inf)
        corners = tuple(getattr(self, n) if n else e for n, e in zip(self._CORNERS, ends))
        object.__setattr__(self, "_corners", corners)

    def __call__(self, x: float) -> float:
        a, b, c, d = self._corners
        if x < b:
            if x <= a:
                return 0.0
            return (x - a) / (b - a)
        if x <= c:
            return 1.0
        if x >= d:
            return 0.0
        return (d - x) / (d - c)

    def support(self) -> tuple[float, float]:
        return (self._corners[0], self._corners[3])


@dataclass(frozen=True)
class Triangular(_Linear):
    """Triangle with feet ``a``, ``c`` and peak ``b``. Degenerate edges
    (``a == b`` or ``b == c``) evaluate as a vertical jump at the peak."""

    a: float
    b: float
    c: float

    _CORNERS = ("a", "b", "b", "c")


@dataclass(frozen=True)
class Trapezoidal(_Linear):
    """Trapezoid with feet ``a``, ``d`` and plateau ``[b, c]``."""

    a: float
    b: float
    c: float
    d: float

    _CORNERS = ("a", "b", "c", "d")


# Sigmas from the center past which a gaussian's float grade is 0: it
# underflows at about 38.604, and the margin covers rounding.
GAUSSIAN_REACH = 38.61


@dataclass(frozen=True)
class Gaussian(MembershipFunction):
    """Bell curve ``exp(-(x - center)^2 / (2 sigma^2))``, whose float grade
    is 0 beyond :data:`GAUSSIAN_REACH` sigmas: that bounds its support.

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

    def support(self) -> tuple[float, float]:
        reach = GAUSSIAN_REACH * self.sigma
        return (self.center - reach, self.center + reach)


@dataclass(frozen=True)
class ZShoulder(_Linear):
    """Left shoulder: grade 1 up to ``a``, falling linearly to 0 at ``b``."""

    a: float
    b: float

    _CORNERS = (None, None, "a", "b")


@dataclass(frozen=True)
class SShoulder(_Linear):
    """Right shoulder: grade 0 up to ``a``, rising linearly to 1 at ``b``."""

    a: float
    b: float

    _CORNERS = ("a", "b", None, None)


# the five built-in shapes, whose grades lie in [0, 1] by construction: an
# object of exactly one of these classes is graded by the kernels above
_SHAPE_CLASSES = (Triangular, Trapezoidal, Gaussian, ZShoulder, SShoulder)


def _families(mfs) -> tuple:
    """``(rows, sample, params)`` triples: ``sample(xs, *params)`` grades
    ``xs`` under the shapes at ``rows`` of ``mfs``. The built-in linear
    shapes share one ``_ramps`` call and the gaussians one ``_bell`` call;
    any other shape, a subclass of a built-in one included, is graded
    point by point through its ``__call__`` (``_pointwise``)."""
    linear, bells, families = [], [], []
    for i, mf in enumerate(mfs):
        if type(mf) is Gaussian:
            bells.append(i)
        elif type(mf) in _SHAPE_CLASSES:
            linear.append(i)
        else:
            families.append((i, partial(_pointwise, mf), ()))
    if linear:
        corners = np.array([mfs[i]._corners for i in linear]).T[:, :, None]
        families.append((np.array(linear), _ramps, tuple(corners)))
    if bells:
        params = np.array([(mfs[i].center, mfs[i].sigma) for i in bells]).T[:, :, None]
        families.append((np.array(bells), _bell, tuple(params)))
    return tuple(families)


def mf_parameters(mf: MembershipFunction) -> list[float]:
    """Shape parameters in declaration order, e.g. ``[a, b, c]`` for a
    triangle: a dataclass's init fields, which it lists in ``__match_args__``."""
    names = getattr(mf, "__match_args__", None)
    if names is None:
        raise ValidationError(f"{type(mf).__name__} is not a dataclass: its parameters are unknown")
    return [getattr(mf, name) for name in names]


def _check_name(name, what: str) -> None:
    if not isinstance(name, str) or not name:
        raise ValidationError(f"{what} name must be a non-empty string")
    try:
        name.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, which libyaml cannot write
        raise ValidationError(f"{what} name {name!r} is not valid Unicode text") from None


@dataclass(frozen=True)
class LinguisticTerm:
    """One qualitative label of a variable, e.g. ``"TM"`` for medium."""

    name: str
    mf: MembershipFunction

    def __post_init__(self) -> None:
        _check_name(self.name, "term")
        _instance(self.mf, MembershipFunction, f"term {self.name!r} shape")


@dataclass(frozen=True)
class LinguisticVariable(_Rebuilt):
    """A named quantity described by linguistic terms over a universe. It
    grades its own terms: every scalar and array grading path calls it."""

    name: str
    universe: Universe
    terms: tuple[LinguisticTerm, ...]

    def __post_init__(self) -> None:
        _check_name(self.name, "variable")
        what = f"variable {self.name!r}"
        u = _instance(self.universe, Universe, f"{what} universe")
        terms = tuple(_instance(self.terms, Iterable, f"{what} terms"))
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValidationError(f"{what} needs at least one term")
        seen = set()
        for term in terms:
            _instance(term, LinguisticTerm, f"{what} term")
            if term.name in seen:
                raise ValidationError(f"{what} has duplicate term {term.name!r}")
            seen.add(term.name)
            ends = term.mf.support()
            if type(term.mf) not in _SHAPE_CLASSES and not (  # two numbers, low <= high (no NaN)
                    isinstance(ends, tuple) and len(ends) == 2 and all(
                        isinstance(e, numbers.Real) and not isinstance(e, bool) for e in ends)
                    and ends[0] <= ends[1]):
                raise ValidationError(f"term {term.name!r} support must be two numbers, "
                                      f"low <= high, got {ends!r}")
            lo, hi = ends
            if hi < u.min or lo > u.max:
                raise ValidationError(
                    f"term {term.name!r} lies entirely outside the universe "
                    f"[{u.min}, {u.max}]"
                )
        mfs = tuple(term.mf for term in terms)
        # each term's scalar grader: a built-in shape, or _checked on any other
        graders = tuple(mf if type(mf) in _SHAPE_CLASSES else partial(_checked, mf) for mf in mfs)
        object.__setattr__(self, "_graders", graders)
        object.__setattr__(self, "_families", _families(mfs))

    @property
    def term_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    def term_index(self, name: str) -> int:
        for i, term in enumerate(self.terms):
            if term.name == name:
                return i
        raise ValidationError(f"variable {self.name!r} has no term {name!r}")

    def _fuzzify(self, x0) -> tuple[float, float, list[float]]:
        """``x0`` as a finite float, that value clamped to the universe, and
        its grade under each term."""
        x = _real(x0, "crisp input", NonFiniteInput)
        clamped = self.universe.clamp(x)
        # the scalar shape forms equal the array forms _grade uses
        return x, clamped, [grade(clamped) for grade in self._graders]

    def _grade(self, xs: np.ndarray) -> np.ndarray:
        """Grade of every point of the float vector ``xs`` under every term,
        terms x points, equal bit for bit to each term's scalar grades: one
        call per shape family per block of at most :data:`CHUNK_ELEMENTS`
        cells, so that scratch space does not grow with the points."""
        grades = np.empty((len(self.terms), xs.shape[0]))
        for cols in self._blocks(xs.shape[0]):
            for rows, sample, params in self._families:
                grades[rows, cols] = sample(xs[cols], *params)
        return grades

    def _blocks(self, points: int):
        """Column slices that split ``points`` columns of terms x points
        grades into blocks of at most :data:`CHUNK_ELEMENTS` cells."""
        block = max(1, CHUNK_ELEMENTS // len(self.terms))
        return (slice(p0, p0 + block) for p0 in range(0, points, block))


@dataclass(frozen=True, eq=False)
class FuzzySet(_Rebuilt):
    """Vector of membership grades over a universe's sample points."""

    universe: Universe
    grades: np.ndarray

    def __post_init__(self) -> None:
        _instance(self.universe, Universe, "fuzzy set universe")
        g = _grade_array(self.grades, "grades")
        if g.ndim != 1 or g.shape[0] != self.universe.n:
            raise ValidationError(
                f"grades must be a vector of length {self.universe.n}, "
                f"got shape {g.shape}"
            )
        object.__setattr__(self, "grades", g)

    @classmethod
    def _trusted(cls, universe: Universe, grades: np.ndarray) -> FuzzySet:
        """Wrap a grade vector the library computed itself, of the right
        length and inside ``[0, 1]`` by construction: no copy, no check."""
        fset = object.__new__(cls)
        grades.setflags(write=False)
        # one update of the instance dict, as EvalTrace._trusted does
        fset.__dict__.update(universe=universe, grades=grades)
        return fset

    def __len__(self) -> int:
        return self.universe.n

    def __array__(self, dtype=None, copy=None):
        return np.array(self.grades, dtype=dtype, copy=copy)


def discretize(mf: MembershipFunction, universe: Universe) -> FuzzySet:
    """Sample a membership function over a universe's points."""
    _instance(mf, MembershipFunction, "discretize shape")
    _instance(universe, Universe, "discretize universe")
    # the base method, since the library never calls a shape's own sample
    return FuzzySet(universe, MembershipFunction.sample(mf, universe.points))


def singleton_fuzzify(x0: float, var: LinguisticVariable) -> np.ndarray:
    """Grade a crisp value against every term of a variable.

    The value is clamped to the universe before evaluation, so out-of-range
    readings saturate instead of failing. Returns one grade per term.
    """
    var = _instance(var, LinguisticVariable, "singleton_fuzzify variable")
    return np.array(var._fuzzify(x0)[2])
