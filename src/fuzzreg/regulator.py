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

# numpy's ufunc buffer size, in elements, for evaluate_many's clip, max and
# COG products: its smallest, so that numpy does not copy a window of short
# rows through the buffer. Those ops are elementwise and none casts, so
# none needs the buffer and no bit depends on it. Sums stay outside: before
# numpy 2.3 a reduction is summed in blocks of the buffer size.
_SWEEP_BUFSIZE = 16


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
    sample count). A rule onto a term that is zero at every output sample
    cannot move the output, so it is left out of the compiled rule base; it
    only chooses the message of a ``ZeroMass`` error. :meth:`evaluate`,
    :meth:`evaluate_many` and :meth:`sweep` all run the same clip, max and
    center-of-gravity kernel on the matrix, so they agree bit for bit.
    Evaluation is pure and keeps its scratch space per call, so one
    regulator may serve any number of threads.
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
        # A term is live when its row has a positive sample; its span runs
        # from its first positive sample to just past its last. A live term
        # fired at strength s > 0 clips to min(s, m_k) > 0 at a positive
        # sample k, and a sum of non-negative doubles is at least its
        # largest term, so an input has a positive mass exactly when a rule
        # onto a live term fires: only those rules are compiled.
        live, spans = [], []
        for row in consequents:
            positive = row > 0.0
            first = int(positive.argmax())
            live.append(bool(positive[first]))
            spans.append((first, universe.n - int(positive[::-1].argmax())))
        pairs = [(r.antecedent, r.consequent) for r in self.rulebase.rules]
        object.__setattr__(self, "output_universe", universe)
        object.__setattr__(self, "_matrix", consequents)
        object.__setattr__(self, "_spans", tuple(spans))
        object.__setattr__(self, "_rule_pairs", tuple((a, c) for a, c in pairs if live[c]))
        object.__setattr__(self, "_silent", tuple(a for a, c in pairs if not live[c]))
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
        largest activation, among the compiled rules that conclude the term,
        of the rule's antecedent in ``activations`` (input terms x inputs)."""
        strengths = np.zeros((len(self._matrix), activations.shape[1]))
        # max is exact, so the order of the rules does not change a bit
        for a, c in self._rule_pairs:
            np.maximum(strengths[c], activations[a], out=strengths[c])
        return strengths

    def _clip_max(self, strengths: np.ndarray, agg: np.ndarray, tmp: np.ndarray) -> tuple[int, int]:
        """Max-union into ``agg`` of every consequent clipped at its firing
        strength, and the hull ``(c0, c1)`` of the columns it wrote.

        ``strengths`` comes from :meth:`_strengths`, so only live terms fire
        in it: clipping each term once at its largest activation gives the
        same union as one clip per rule, because min distributes over max.
        ``agg`` (zeroed by the caller) and ``tmp`` are inputs x samples. A
        term is clipped only over the inputs where it fires and the columns
        of its span, from its first positive sample to its last: elsewhere
        the clip is zero, and max with zero leaves the non-negative
        aggregate unchanged. So ``agg`` is zero outside the hull, the union
        of the fired terms' spans. Every step is an exact min or max, so no
        order of steps changes a bit. The first clip goes straight into the
        zeros, as in :meth:`evaluate`: it may differ from their max only in
        the sign of a zero grade, which no sum of a row with a positive
        grade sees.
        """
        matrix = self._matrix
        h0, h1 = agg.shape[1], 0
        for j in np.flatnonzero(strengths.any(axis=1)).tolist():
            c0, c1 = self._spans[j]
            fires = np.flatnonzero(strengths[j])
            r0, r1 = int(fires[0]), int(fires[-1]) + 1
            window = agg[r0:r1, c0:c1]
            if h1:
                clipped = tmp[r0:r1, c0:c1]
                np.minimum(strengths[j, r0:r1, None], matrix[j, c0:c1], out=clipped)
                np.maximum(window, clipped, out=window)
            else:  # the first clip, into zeros: max with zero is the clip
                np.minimum(strengths[j, r0:r1, None], matrix[j, c0:c1], out=window)
            h0, h1 = min(h0, c0), max(h1, c1)
        return h0, h1

    def _zero_mass(self, grades, at: float | None = None) -> float:
        """The output of an input that fires no compiled rule, by the
        zero-mass policy, or ``ZeroMass`` at input ``at``. The input's term
        ``grades`` choose the message: whether a rule onto a term that is
        zero at every output sample fired."""
        if self.zero_mass_policy is ZeroMassPolicy.ERROR:
            why = _NO_SAMPLE if any(grades[a] for a in self._silent) else _NO_RULE
            raise ZeroMass(why if at is None else f"at input {at}: {why}")
        return self.output_universe.midpoint

    def evaluate(self, x0: float) -> EvalTrace:
        """Run the full pipeline for one crisp input and keep every stage.

        Out-of-range inputs are clamped to the input universe. When no
        compiled rule fires, the aggregate is all zero and the output
        follows the zero-mass policy, with no clip and no center of
        gravity. The result equals :meth:`evaluate_many`'s bit for bit: the
        strengths are the same exact maxima, the clip the same exact minima
        and maxima, and the center of gravity ``defuzz_cog``'s form of the
        same sums.
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
        if fired:
            # Only the terms that fire are clipped: one that does not clips
            # to zeros, which leave the max unchanged. The aggregate starts
            # as the first fired term's clip and each other fired term's
            # clip is maxed into it: 2k - 1 ufunc calls and two rows of
            # scratch. Adjacent input terms cross, so k is one or two on
            # most inputs; inputs that fire many terms, as gaussians do,
            # pay two calls a term. Every step is an exact min or max.
            agg = np.minimum(strengths[fired[0]], matrix[fired[0]])
            for j in fired[1:]:
                np.maximum(agg, np.minimum(strengths[j], matrix[j]), out=agg)
            output = _cog_vector(universe, agg)
        else:
            agg = np.zeros(universe.n)
            output = self._zero_mass(grades)
        return EvalTrace._trusted(
            x, clamped, np.array(grades), FuzzySet._trusted(universe, agg), output, not fired
        )

    def evaluate_many(self, xs) -> np.ndarray:
        """Crisp outputs for a vector of inputs, equal bit for bit to
        ``evaluate(x).output`` for each ``x``.

        Each input follows ``evaluate``'s number rule and is clamped to the
        input universe. An input that fires no compiled rule has an all-zero
        aggregate, and any other a positive mass: a fired term clips to a
        positive grade at its positive sample, and a sum of non-negative
        doubles is at least its largest term. So the zero-mass policy is applied from the strengths alone (the
        error names the first such input), and only the other inputs are
        packed into chunks of rows, with scratch buffers of about
        ``membership.CHUNK_ELEMENTS`` doubles each, allocated once per call:
        memory stays bounded however many inputs there are. The aggregate
        rows stay zero between chunks: a chunk scales them by the sample
        offsets in place, then clears them, only over the hull of the
        columns its clip wrote. Outside it they are ``+0.0``, as ``grades *
        offsets`` is, so the sums still run over full rows of the same values.

        The clip, the max and the scaling run with numpy's ufunc buffer at
        its smallest, so that numpy does not copy their windows of short
        rows through the buffer; they are elementwise and none casts, so no
        bit changes. ``np.errstate()`` scopes the setting: the caller's size
        comes back on exit, an error included, and other threads and tasks
        never see it. Grading the inputs, which may call a user shape's
        ``__call__``, and the center of gravity's two sums run under the
        caller's size: before numpy 2.3 a sum runs in blocks of the buffer
        size, so these must run under the size ``evaluate``'s sums run under.
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
        # zero, and kept zero between chunks; filled, not np.zeros, since a
        # fresh calloc'd page that the sums read before a clip writes it
        # faults twice
        agg = np.empty((rows, universe.n))
        agg.fill(0.0)
        tmp = np.empty((rows, universe.n))
        for b0 in range(0, xs.shape[0], block):
            activations = in_var._grade(clamped[b0:b0 + block])
            strengths = self._strengths(activations)
            out = outputs[b0:b0 + strengths.shape[1]]
            live = strengths.any(axis=0)
            if not live.all():
                i = int(np.argmin(live))
                out[~live] = self._zero_mass(activations[:, i], float(xs[b0 + i]))
                strengths = strengths[:, live]
            where = np.flatnonzero(live)
            for r0 in range(0, strengths.shape[1], rows):
                w = strengths[:, r0:r0 + rows]
                n = w.shape[1]
                with np.errstate():
                    np.setbufsize(_SWEEP_BUFSIZE)
                    c0, c1 = self._clip_max(w, agg[:n], tmp[:n])
                hull = agg[:n, c0:c1]
                mass = agg[:n].sum(axis=1)
                with np.errstate():
                    np.setbufsize(_SWEEP_BUFSIZE)
                    np.multiply(hull, universe.offsets[c0:c1], out=hull)
                out[where[r0:r0 + n]] = cog_rows(universe, mass, agg[:n])
                hull[...] = 0.0
        return outputs

    def sweep(self, steps: int) -> list[tuple[float, float]]:
        """Response curve: evaluate ``steps`` evenly spaced inputs spanning
        the input universe and return (input, output) pairs in input order."""
        steps = _count(steps, "sweep steps", 2)
        u = self.input_var.universe
        xs = np.linspace(u.min, u.max, steps)
        return list(zip(xs.tolist(), self.evaluate_many(xs).tolist()))
