"""The complete regulator: fuzzify, infer, defuzzify, and response sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import membership
from .defuzz import _cog_vector, cog_rows
from .errors import DimensionMismatch, NonFiniteInput, ZeroMass
from .inference import RuleBase, _grades
from .membership import (
    FuzzySet,
    LinguisticVariable,
    Universe,
    _check_cells,
    _count,
    _instance,
    _number_array,
    _real,
    _Rebuilt,
)

# a ZeroMass error says which of the two ways an aggregate can be all zero
_NO_RULE = "all grades are zero; no rule fired"
_NO_SAMPLE = "all grades are zero; rules fired only onto terms zero at every output sample"


class ZeroMassPolicy(Enum):
    """What to do when the aggregate is all zero: fail loudly, or emit the
    output universe's midpoint and flag the trace."""

    ERROR = "error"
    MIDPOINT = "midpoint"


@dataclass(frozen=True, eq=False)
class EvalTrace(_Rebuilt):
    """Every intermediate stage of one evaluation, for inspection and audit."""

    input: float
    clamped_input: float
    activations: np.ndarray
    aggregated: FuzzySet
    output: float
    zero_mass_fallback: bool = False

    def __post_init__(self) -> None:
        for name in ("input", "clamped_input", "output"):
            object.__setattr__(self, name, _real(getattr(self, name), f"trace {name}"))
        object.__setattr__(self, "activations", _grades(self.activations, "activations"))
        _instance(self.aggregated, FuzzySet, "trace aggregated set")
        fallback = _instance(self.zero_mass_fallback, (bool, np.bool_), "trace zero_mass_fallback")
        object.__setattr__(self, "zero_mass_fallback", bool(fallback))

    @classmethod
    def _trusted(
        cls,
        input: float,
        clamped_input: float,
        activations: np.ndarray,
        aggregated: FuzzySet,
        output: float,
        zero_mass_fallback: bool,
    ) -> EvalTrace:
        """Wrap stages the regulator computed itself: ``activations`` is a
        new float vector it owns, so it is made read-only, not copied."""
        trace = object.__new__(cls)
        activations.setflags(write=False)
        # one update of the instance dict, where the frozen dataclass would
        # go through object.__setattr__ once per field
        trace.__dict__.update(
            input=input,
            clamped_input=clamped_input,
            activations=activations,
            aggregated=aggregated,
            output=output,
            zero_mass_fallback=zero_mass_fallback,
        )
        return trace


@dataclass(frozen=True)
class Regulator(_Rebuilt):
    """Immutable single-input single-output Mamdani controller.

    Construction compiles the rule base: every consequent term is sampled
    once into one terms x samples matrix over an output universe resampled
    at ``output_resolution`` points (defaulting to the output variable's own
    sample count). :meth:`evaluate`, :meth:`evaluate_many` and :meth:`sweep`
    all run the same clip, max and center-of-gravity kernel on it, so they
    agree bit for bit. Evaluation is pure and keeps its scratch space per
    call, so one regulator may serve any number of threads.
    """

    rulebase: RuleBase
    output_resolution: int | None = None
    zero_mass_policy: ZeroMassPolicy = ZeroMassPolicy.ERROR
    # derived: the resampled output universe, and each output term on it as
    # a read-only view of its row of the compiled matrix, in term order
    output_universe: Universe = field(init=False, repr=False, compare=False)
    consequent_sets: tuple[FuzzySet, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        out_var = _instance(self.rulebase, RuleBase, "regulator rule base").output_var
        res = out_var.universe.n if self.output_resolution is None else self.output_resolution
        object.__setattr__(self, "output_resolution", _count(res, "output_resolution", 2))
        _check_cells(len(out_var.terms), self.output_resolution, "output_resolution")
        _instance(self.zero_mass_policy, ZeroMassPolicy, "regulator zero-mass policy")

        universe = Universe(out_var.universe.min, out_var.universe.max, self.output_resolution)
        consequents = out_var._grade(universe.points)
        consequents.setflags(write=False)
        spans = []
        for row in consequents:
            positive = row > 0.0
            first = int(positive.argmax())
            last = universe.n - int(positive[::-1].argmax())
            spans.append((first, last) if positive[first] else (0, 0))
        rules = self.rulebase.rules
        object.__setattr__(self, "output_universe", universe)
        object.__setattr__(self, "_matrix", consequents)
        object.__setattr__(self, "_spans", tuple(spans))
        object.__setattr__(self, "_rule_pairs", tuple((r.antecedent, r.consequent) for r in rules))
        object.__setattr__(
            self,
            "consequent_sets",
            tuple(FuzzySet._trusted(universe, row) for row in consequents),
        )

    @property
    def input_var(self) -> LinguisticVariable:
        return self.rulebase.input_var

    @property
    def output_var(self) -> LinguisticVariable:
        return self.rulebase.output_var

    def _strengths(self, activations: np.ndarray) -> np.ndarray:
        """Firing strength of every output term, output terms x inputs: the
        largest activation, among the rules that conclude the term, of the
        rule's antecedent in ``activations`` (input terms x inputs)."""
        strengths = np.zeros((len(self._matrix), activations.shape[1]))
        # max is exact, so the order of the rules does not change a bit
        for a, c in self._rule_pairs:
            np.maximum(strengths[c], activations[a], out=strengths[c])
        return strengths

    def _clip_max(self, strengths: np.ndarray, agg: np.ndarray, tmp: np.ndarray) -> None:
        """Max-union into ``agg`` of every consequent clipped at its firing
        strength.

        ``strengths`` comes from :meth:`_strengths`: clipping each term once
        at its largest activation gives the same union as one clip per rule,
        because min distributes over max. ``agg`` (zeroed by the caller) and
        ``tmp`` are inputs x samples. A term is clipped only over the inputs
        where it fires and the columns where its consequent is non-zero:
        elsewhere the clip is zero, and max with zero leaves the
        non-negative aggregate unchanged. Every step is an exact min or max,
        so no order of steps changes a bit.
        """
        matrix = self._matrix
        for j in np.flatnonzero(strengths.any(axis=1)).tolist():
            c0, c1 = self._spans[j]
            fires = np.flatnonzero(strengths[j])
            r0, r1 = int(fires[0]), int(fires[-1]) + 1
            clipped = tmp[r0:r1, c0:c1]
            np.minimum(strengths[j, r0:r1, None], matrix[j, c0:c1], out=clipped)
            np.maximum(agg[r0:r1, c0:c1], clipped, out=agg[r0:r1, c0:c1])

    def _zero_mass(self, fired: bool, at: float | None = None) -> float:
        """The output of an all-zero aggregate by the zero-mass policy, or
        ``ZeroMass`` saying whether a rule ``fired``, at input ``at``."""
        if self.zero_mass_policy is ZeroMassPolicy.ERROR:
            why = _NO_SAMPLE if fired else _NO_RULE
            raise ZeroMass(why if at is None else f"at input {at}: {why}")
        return self.output_universe.midpoint

    def evaluate(self, x0: float) -> EvalTrace:
        """Run the full pipeline for one crisp input and keep every stage.

        Out-of-range inputs are clamped to the input universe. When no rule
        fires, the behavior follows the zero-mass policy. The result equals
        :meth:`evaluate_many`'s bit for bit: the strengths are the same
        exact maxima, the clip the same exact minima and maxima, and the
        center of gravity ``defuzz_cog``'s form of the same sums.
        """
        x, clamped, grades = self.rulebase.input_var._fuzzify(x0)
        # each term's strength as _strengths takes it, and the terms that fire
        strengths = [0.0] * len(self._matrix)
        fired = []
        for a, c in self._rule_pairs:
            if grades[a] > strengths[c]:
                if not strengths[c]:
                    fired.append(c)
                strengths[c] = grades[a]
        matrix = self._matrix
        universe = self.output_universe
        # Only the terms that fire are clipped: one that does not clips to
        # zeros, which leave the max unchanged. The aggregate starts as the
        # first fired term's clip (term 0's at strength 0, all zeros, when
        # none fires) and each other fired term's clip is maxed into it:
        # 2k - 1 ufunc calls and two rows of scratch. Adjacent input terms
        # cross, so k is one or two on most inputs; inputs that fire many
        # terms, as gaussians do, pay two calls a term. Every step is an
        # exact min or max.
        j = fired[0] if fired else 0
        agg = np.minimum(strengths[j], matrix[j])
        for j in fired[1:]:
            np.maximum(agg, np.minimum(strengths[j], matrix[j]), out=agg)
        mass, output = _cog_vector(universe, agg)
        fallback = mass == 0.0
        if fallback:
            output = self._zero_mass(bool(fired))
        return EvalTrace._trusted(
            x, clamped, np.array(grades), FuzzySet._trusted(universe, agg), output, fallback
        )

    def evaluate_many(self, xs) -> np.ndarray:
        """Crisp outputs for a vector of inputs, equal bit for bit to
        ``evaluate(x).output`` for each ``x``.

        Each input follows ``evaluate``'s number rule and is clamped to the
        input universe; where the aggregate is all zero, the zero-mass
        policy applies, and the error names that input. Work runs
        in chunks of inputs, with scratch buffers of about
        ``membership.CHUNK_ELEMENTS`` doubles each, allocated once per call:
        memory stays bounded however many inputs there are.
        """
        xs = _number_array(xs, "crisp input", NonFiniteInput)
        if xs.ndim != 1:
            raise DimensionMismatch(f"expected a vector of inputs, got shape {xs.shape}")
        universe, in_var = self.output_universe, self.rulebase.input_var
        clamped = np.clip(xs, in_var.universe.min, in_var.universe.max)
        outputs = np.empty(xs.shape[0])
        chunk = membership.CHUNK_ELEMENTS
        rows = max(1, min(xs.shape[0], chunk // universe.n))
        # activations and strengths of many inputs at once, so that the
        # per-call cost of the shapes' array forms is shared
        block = max(rows, chunk // max(len(self._matrix), len(in_var.terms)))
        agg = np.empty((rows, universe.n))
        tmp = np.empty((rows, universe.n))
        for b0 in range(0, xs.shape[0], block):
            strengths = self._strengths(in_var._grade(clamped[b0:b0 + block]))
            for r0 in range(0, strengths.shape[1], rows):
                w = strengths[:, r0:r0 + rows]
                n = w.shape[1]
                agg[:n] = 0.0
                self._clip_max(w, agg[:n], tmp[:n])
                mass, y = cog_rows(universe, agg[:n], tmp[:n])
                empty = mass == 0.0
                if empty.any():
                    i = int(np.argmax(empty))
                    y[empty] = self._zero_mass(w[:, i].any(), float(xs[b0 + r0 + i]))
                outputs[b0 + r0:b0 + r0 + n] = y
        return outputs

    def sweep(self, steps: int) -> list[tuple[float, float]]:
        """Response curve: evaluate ``steps`` evenly spaced inputs spanning
        the input universe and return (input, output) pairs in input order."""
        steps = _count(steps, "sweep steps", 2)
        u = self.input_var.universe
        xs = np.linspace(u.min, u.max, steps)
        return list(zip(xs.tolist(), self.evaluate_many(xs).tolist()))
