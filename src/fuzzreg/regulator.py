"""The complete regulator: fuzzify, infer, defuzzify, and response sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .defuzz import cog_rows
from .errors import DimensionMismatch, NonFiniteInput, ValidationError, ZeroMass
from .inference import Rule, RuleBase
from .membership import (
    FuzzySet,
    LinguisticTerm,
    LinguisticVariable,
    SShoulder,
    Triangular,
    Universe,
    ZShoulder,
    _count,
    _readonly,
)

# Doubles per scratch buffer in evaluate_many: a chunk holds as many inputs
# as fit, and always at least one.
CHUNK_ELEMENTS = 1 << 16

_NO_MASS = "all grades are zero; no rule fired"


class DefuzzPolicy(Enum):
    CENTER_OF_GRAVITY = "cog"


class ZeroMassPolicy(Enum):
    """What to do when no rule fires: fail loudly, or emit the output
    universe's midpoint and flag the trace."""

    ERROR = "error"
    MIDPOINT = "midpoint"


@dataclass(frozen=True, eq=False)
class EvalTrace:
    """Every intermediate stage of one evaluation, for inspection and audit."""

    input: float
    clamped_input: float
    activations: np.ndarray
    aggregated: FuzzySet
    output: float
    zero_mass_fallback: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "activations", _readonly(self.activations))


@dataclass(frozen=True)
class Regulator:
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
    defuzz_policy: DefuzzPolicy = DefuzzPolicy.CENTER_OF_GRAVITY
    zero_mass_policy: ZeroMassPolicy = ZeroMassPolicy.ERROR

    def __post_init__(self) -> None:
        in_var = self.rulebase.input_var
        out_var = self.rulebase.output_var
        res = out_var.universe.n if self.output_resolution is None else self.output_resolution
        object.__setattr__(self, "output_resolution", _count(res, "output_resolution", 2))
        if not isinstance(self.defuzz_policy, DefuzzPolicy):
            raise ValidationError(f"unknown defuzzification policy {self.defuzz_policy!r}")
        if not isinstance(self.zero_mass_policy, ZeroMassPolicy):
            raise ValidationError(f"unknown zero-mass policy {self.zero_mass_policy!r}")

        universe = Universe(out_var.universe.min, out_var.universe.max, self.output_resolution)
        # filled row by row: sampling all terms first and stacking them
        # would hold every consequent twice at once
        consequents = np.empty((len(out_var.terms), universe.n))
        for row, term in zip(consequents, out_var.terms):
            row[:] = term.mf.sample(universe.points)
        consequents.setflags(write=False)
        spans = []
        for row in consequents:
            positive = row > 0.0
            first = int(positive.argmax())
            last = universe.n - int(positive[::-1].argmax())
            spans.append((first, last) if positive[first] else (0, 0))
        rules = self.rulebase.rules
        object.__setattr__(self, "_output_universe", universe)
        object.__setattr__(self, "_matrix", consequents)
        object.__setattr__(self, "_spans", tuple(spans))
        object.__setattr__(self, "_input_mfs", tuple(term.mf for term in in_var.terms))
        # rules grouped by consequent, for one max-reduction per output term
        # (np.unique would do, but maps about 0.2 MiB more of numpy's code)
        by_term = sorted(rules, key=lambda r: r.consequent)
        firsts = [i for i, r in enumerate(by_term)
                  if i == 0 or by_term[i - 1].consequent != r.consequent]
        object.__setattr__(self, "_rule_antecedents", np.array([r.antecedent for r in by_term]))
        object.__setattr__(self, "_rule_groups", np.array(firsts))
        object.__setattr__(self, "_ruled_terms", np.array([by_term[i].consequent for i in firsts]))
        object.__setattr__(
            self,
            "_consequents",
            tuple(FuzzySet._trusted(universe, row) for row in consequents),
        )

    @property
    def input_var(self) -> LinguisticVariable:
        return self.rulebase.input_var

    @property
    def output_var(self) -> LinguisticVariable:
        return self.rulebase.output_var

    @property
    def output_universe(self) -> Universe:
        return self._output_universe

    @property
    def consequent_sets(self) -> tuple[FuzzySet, ...]:
        """Cached discretization of each output term, in term order; each
        is a read-only view of one row of the compiled consequent matrix."""
        return self._consequents

    def _strengths(self, activations: np.ndarray) -> np.ndarray:
        """Firing strength of every output term, output terms x inputs: the
        largest activation, among the rules that conclude the term, of the
        rule's antecedent in ``activations`` (input terms x inputs)."""
        strengths = np.zeros((len(self._matrix), activations.shape[1]))
        strengths[self._ruled_terms] = np.maximum.reduceat(
            activations[self._rule_antecedents], self._rule_groups, axis=0
        )
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

    def evaluate(self, x0: float) -> EvalTrace:
        """Run the full pipeline for one crisp input and keep every stage.

        Out-of-range inputs are clamped to the input universe. When no rule
        fires, the behavior follows the zero-mass policy. Strengths and
        center of gravity are :meth:`evaluate_many`'s, on a batch of one.
        """
        x = float(x0)
        if not math.isfinite(x):
            raise NonFiniteInput(f"crisp input must be finite, got {x0!r}")
        clamped = self.input_var.universe.clamp(x)
        # the scalar shape forms equal the array forms evaluate_many uses
        grades = [mf(clamped) for mf in self._input_mfs]
        # a user-defined shape's mf(x) is not checked anywhere else
        if not all(0.0 <= g <= 1.0 for g in grades):
            raise ValidationError(f"grades must lie in [0, 1], got {grades}")
        activations = np.array(grades)
        universe = self._output_universe
        # one dense clip of every term, not _clip_max: on the reference
        # regulator, its per-term loop made evaluate about 1.5x slower. The
        # dense clip allocates terms x samples doubles (7.5 MiB for 15 terms
        # at 65 537 samples), where evaluate_many stays within its chunks.
        clipped = np.minimum(self._strengths(activations[:, None]), self._matrix)
        agg = clipped.max(axis=0, keepdims=True)
        mass, y = cog_rows(universe, agg, np.empty_like(agg))
        fallback = bool(mass[0] == 0.0)
        if fallback:
            if self.zero_mass_policy is ZeroMassPolicy.ERROR:
                raise ZeroMass(_NO_MASS)
            output = universe.midpoint
        else:
            output = float(y[0])
        return EvalTrace(
            input=x,
            clamped_input=clamped,
            activations=activations,
            aggregated=FuzzySet._trusted(universe, agg[0]),
            output=output,
            zero_mass_fallback=fallback,
        )

    def evaluate_many(self, xs) -> np.ndarray:
        """Crisp outputs for a vector of inputs, equal bit for bit to
        ``evaluate(x).output`` for each ``x``.

        Inputs are clamped to the input universe and must be finite; when
        no rule fires at an input, the zero-mass policy applies, and the
        error names that input. Work runs in chunks of inputs, with scratch
        buffers of about ``CHUNK_ELEMENTS`` doubles each, allocated once
        per call: memory stays bounded however many inputs there are.
        """
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1:
            raise DimensionMismatch(f"expected a vector of inputs, got shape {xs.shape}")
        finite = np.isfinite(xs)
        if not finite.all():
            bad = xs[int(np.argmin(finite))]
            raise NonFiniteInput(f"crisp input must be finite, got {float(bad)!r}")
        u_in = self.input_var.universe
        universe = self._output_universe
        clamped = np.clip(xs, u_in.min, u_in.max)
        outputs = np.empty(xs.shape[0])
        n_out, n_in = len(self._matrix), len(self._input_mfs)
        rows = max(1, min(xs.shape[0], CHUNK_ELEMENTS // universe.n))
        # activations and strengths of many inputs at once, so that the
        # per-call cost of the shapes' array forms is shared
        block = max(rows, CHUNK_ELEMENTS // max(n_out, n_in))
        agg = np.empty((rows, universe.n))
        tmp = np.empty((rows, universe.n))
        for b0 in range(0, xs.shape[0], block):
            chunk = clamped[b0:b0 + block]
            strengths = self._strengths(np.array([mf.sample(chunk) for mf in self._input_mfs]))
            for r0 in range(0, chunk.shape[0], rows):
                w = strengths[:, r0:r0 + rows]
                n = w.shape[1]
                agg[:n] = 0.0
                self._clip_max(w, agg[:n], tmp[:n])
                mass, y = cog_rows(universe, agg[:n], tmp[:n])
                empty = mass == 0.0
                if empty.any():
                    if self.zero_mass_policy is ZeroMassPolicy.ERROR:
                        x = float(xs[b0 + r0 + int(np.argmax(empty))])
                        raise ZeroMass(f"at input {x}: {_NO_MASS}")
                    y[empty] = universe.midpoint
                outputs[b0 + r0:b0 + r0 + n] = y
        return outputs

    def sweep(self, steps: int) -> list[tuple[float, float]]:
        """Response curve: evaluate ``steps`` evenly spaced inputs spanning
        the input universe and return (input, output) pairs in input order."""
        steps = _count(steps, "sweep steps", 2)
        u = self.input_var.universe
        xs = np.linspace(u.min, u.max, steps)
        return list(zip(xs.tolist(), self.evaluate_many(xs).tolist()))


def reference_regulator() -> Regulator:
    """The built-in five-term temperature controller.

    Temperature runs over [0, 100] with terms TFJ (very low), TJ (low),
    TM (medium), TI (high) and TFI (very high); the normalized command over
    [0, 1] with terms CVS (very small) through CVB (very big). Adjacent
    terms cross at grade 0.5 and each input term drives exactly one rule:
    the colder the reading, the bigger the command.
    """
    temperature = LinguisticVariable(
        "Temperature",
        Universe(0.0, 100.0, 101),
        (
            LinguisticTerm("TFJ", ZShoulder(0.0, 25.0)),
            LinguisticTerm("TJ", Triangular(0.0, 25.0, 50.0)),
            LinguisticTerm("TM", Triangular(25.0, 50.0, 75.0)),
            LinguisticTerm("TI", Triangular(50.0, 75.0, 100.0)),
            LinguisticTerm("TFI", SShoulder(75.0, 100.0)),
        ),
    )
    command = LinguisticVariable(
        "Command",
        Universe(0.0, 1.0, 101),
        (
            LinguisticTerm("CVS", ZShoulder(0.0, 0.25)),
            LinguisticTerm("CS", Triangular(0.0, 0.25, 0.5)),
            LinguisticTerm("CM", Triangular(0.25, 0.5, 0.75)),
            LinguisticTerm("CB", Triangular(0.5, 0.75, 1.0)),
            LinguisticTerm("CVB", SShoulder(0.75, 1.0)),
        ),
    )
    rules = tuple(Rule(i, 4 - i) for i in range(5))
    return Regulator(RuleBase(temperature, command, rules))
