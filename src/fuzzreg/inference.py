"""Max-min relational inference: implication matrices, composition, aggregation.

The compositional machinery works on bare grade vectors and matrices, exactly
as the rule of inference is defined; a :class:`~fuzzreg.membership.FuzzySet`
is accepted anywhere a vector is (it exposes the array protocol). Attaching
results to an output universe is the job of :func:`infer`, which aggregates a
whole rule base into a fuzzy command set.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyRuleBase, ValidationError
from .membership import FuzzySet, LinguisticVariable, _count, _grade_array, _instance, _Rebuilt


def _grades(values, what: str = "grades") -> np.ndarray:
    g = _grade_array(values, what)
    if g.ndim != 1:
        raise DimensionMismatch(f"expected a grade vector, got shape {g.shape}")
    return g


@dataclass(frozen=True, eq=False)
class FuzzyRelation(_Rebuilt):
    """m x n matrix of grades; row i, column j holds the implication strength
    linking input sample i to output sample j."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = _grade_array(self.entries, "relation entries")
        if e.ndim != 2 or e.shape[0] < 1 or e.shape[1] < 1:
            raise ValidationError(f"relation must be a 2-D matrix, got shape {e.shape}")
        object.__setattr__(self, "entries", e)

    @classmethod
    def _trusted(cls, entries: np.ndarray) -> FuzzyRelation:
        """Wrap a matrix the library computed itself, 2-D with at least one
        row and one column and inside ``[0, 1]`` by construction: no copy,
        no check, as ``FuzzySet._trusted``."""
        relation = object.__new__(cls)
        entries.setflags(write=False)
        relation.__dict__.update(entries=entries)
        return relation

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def build_relation(antecedent, consequent) -> FuzzyRelation:
    """Encode one rule "IF A THEN B" as entries[i][j] = min(a[i], b[j])."""
    entries = np.minimum.outer(_grades(antecedent), _grades(consequent))
    # an empty vector makes an empty matrix, which the checked form rejects
    return FuzzyRelation._trusted(entries) if entries.size else FuzzyRelation(entries)


def cri(relation, activation) -> np.ndarray:
    """Max-min composition: out[j] = max over i of min(ap[i], R[i][j]).

    ``relation`` may be a :class:`FuzzyRelation` or a plain matrix, taken
    as one. The result has one grade per relation column.
    """
    if not isinstance(relation, FuzzyRelation):
        relation = FuzzyRelation(relation)
    r = relation.entries
    ap = _grades(activation)
    if ap.shape[0] != r.shape[0]:
        raise DimensionMismatch(
            f"activation length {ap.shape[0]} does not match relation rows {r.shape[0]}"
        )
    return np.max(np.minimum(ap[:, None], r), axis=0)


def union(a, b):
    """Elementwise max of two grade vectors.

    Two fuzzy sets must share a universe and yield a fuzzy set; plain
    vectors yield a plain vector.
    """
    if isinstance(a, FuzzySet) and isinstance(b, FuzzySet):
        if a.universe != b.universe:
            raise DimensionMismatch("cannot union fuzzy sets on different universes")
        return FuzzySet._trusted(a.universe, np.maximum(a.grades, b.grades))
    ga = _grades(a)
    gb = _grades(b)
    if ga.shape != gb.shape:
        raise DimensionMismatch(
            f"cannot union vectors of lengths {ga.shape[0]} and {gb.shape[0]}"
        )
    return np.maximum(ga, gb)


@dataclass(frozen=True)
class Rule:
    """IF input term [antecedent] THEN output term [consequent], by index."""

    antecedent: int
    consequent: int

    def __post_init__(self) -> None:
        for name in ("antecedent", "consequent"):
            object.__setattr__(self, name, _count(getattr(self, name), f"rule {name}", 0))


@dataclass(frozen=True)
class RuleBase:
    """Complete single-input single-output rule map.

    Each input term may drive at most one rule, so the base reads as a
    decision table over the input variable's terms.
    """

    input_var: LinguisticVariable
    output_var: LinguisticVariable
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        _instance(self.input_var, LinguisticVariable, "rule base input variable")
        _instance(self.output_var, LinguisticVariable, "rule base output variable")
        object.__setattr__(self, "rules", tuple(_instance(self.rules, Iterable, "rule base rules")))
        if not self.rules:
            raise EmptyRuleBase("a rule base needs at least one rule")
        seen = set()
        for rule in self.rules:
            _instance(rule, Rule, "rule base rule")
            for side, var in (("antecedent", self.input_var), ("consequent", self.output_var)):
                index = getattr(rule, side)
                if index >= len(var.terms):
                    raise ValidationError(
                        f"rule {side} index {index} is out of range for variable {var.name!r}"
                    )
            if rule.antecedent in seen:
                name = self.input_var.terms[rule.antecedent].name
                raise ValidationError(f"duplicate rule for input term {name!r}")
            seen.add(rule.antecedent)


def infer(
    rulebase: RuleBase,
    activations,
    consequents: Sequence[FuzzySet],
) -> FuzzySet:
    """Aggregate a rule base into the fuzzy command for given activations.

    ``activations`` holds one grade per input term (the singleton
    fuzzification of a crisp input); ``consequents`` holds the discretized
    set of every output term on a shared universe. Each rule clips its
    consequent at the antecedent's activation, and the clipped sets are
    combined by max-union. The clipping shortcut is equivalent to building
    the rule's implication matrix and composing with a crisp singleton.
    """
    _instance(rulebase, RuleBase, "infer rule base")
    acts = _grades(activations)
    if acts.shape[0] != len(rulebase.input_var.terms):
        raise DimensionMismatch(
            f"expected {len(rulebase.input_var.terms)} activations, got {acts.shape[0]}"
        )
    consequents = tuple(_instance(consequents, Iterable, "infer consequent sets"))
    if len(consequents) != len(rulebase.output_var.terms):
        raise DimensionMismatch(
            f"expected {len(rulebase.output_var.terms)} consequent sets, "
            f"got {len(consequents)}"
        )
    what = "infer consequent set"
    universe = _instance(consequents[0], FuzzySet, what).universe
    for cons in consequents[1:]:
        if _instance(cons, FuzzySet, what).universe != universe:
            raise DimensionMismatch("consequent sets must share one output universe")

    aggregated = np.zeros(universe.n)
    for rule in rulebase.rules:
        clipped = np.minimum(acts[rule.antecedent], consequents[rule.consequent].grades)
        np.maximum(aggregated, clipped, out=aggregated)
    return FuzzySet._trusted(universe, aggregated)
