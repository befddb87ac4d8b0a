"""Implication matrices, max-min composition, union and rule aggregation."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fuzzreg import (
    DimensionMismatch,
    EmptyRuleBase,
    FuzzyError,
    FuzzyRelation,
    FuzzySet,
    LinguisticTerm,
    LinguisticVariable,
    Rule,
    RuleBase,
    Triangular,
    Universe,
    ValidationError,
    build_relation,
    cri,
    discretize,
    infer,
    union,
)
from oracles import max_min_oracle

# Worked five-sample example: a falling antecedent against a rising
# consequent. Small enough to check every entry by hand.
AP = [1.0, 0.5, 0.1, 0.0, 0.0]
B = [0.0, 0.0, 0.1, 0.5, 1.0]
EXPECTED_R = [
    [0.0, 0.0, 0.1, 0.5, 1.0],
    [0.0, 0.0, 0.1, 0.5, 0.5],
    [0.0, 0.0, 0.1, 0.1, 0.1],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0],
]


grade_vec = arrays(np.float64, st.shared(st.integers(1, 16), key="n"),
                   elements=st.floats(0, 1))


class TestBuildRelation:
    def test_crisp_grades(self):
        r = build_relation([1.0, 0.0], [0.0, 1.0])
        assert r.entries.tolist() == [[0.0, 1.0], [0.0, 0.0]]

    def test_worked_example_matrix(self):
        r = build_relation(AP, B)
        assert r.entries.tolist() == EXPECTED_R
        assert np.round(r.entries, 1).tolist() == EXPECTED_R

    def test_unit_antecedent_copies_consequent_rows(self):
        r = build_relation([1.0, 1.0, 1.0], B[:3])
        for row in r.entries:
            assert row.tolist() == B[:3]

    def test_accepts_fuzzy_sets(self):
        u = Universe(0, 1, 5)
        r = build_relation(FuzzySet(u, AP), FuzzySet(u, B))
        assert r.entries.tolist() == EXPECTED_R

    def test_relation_validates_range(self):
        with pytest.raises(ValidationError):
            FuzzyRelation([[0.5, 1.5]])

    def test_relation_must_be_matrix(self):
        with pytest.raises(ValidationError):
            FuzzyRelation([0.5, 0.5])

    def test_relation_equality(self):
        assert FuzzyRelation([[0.5]]) == FuzzyRelation([[0.5]])
        assert FuzzyRelation([[0.5]]) != FuzzyRelation([[0.4]])

    def test_rows_cols(self):
        r = build_relation(AP, [0.0, 1.0])
        assert (r.rows, r.cols) == (5, 2)

    def test_result_is_read_only_and_equals_the_checked_form(self):
        r = build_relation(AP, B)
        assert not r.entries.flags.writeable
        assert r == FuzzyRelation(r.entries) == pickle.loads(pickle.dumps(r))

    @pytest.mark.parametrize("a, b", [([], B), (AP, [])], ids=["antecedent", "consequent"])
    def test_an_empty_vector_is_the_relations_error(self, a, b):
        # build_relation skips the relation's checks only for a matrix that
        # passes them
        shape = re.escape(str((len(a), len(b))))
        with pytest.raises(ValidationError, match=f"^relation must be a 2-D matrix, got shape {shape}$"):
            build_relation(a, b)


class TestCri:
    def test_zero_activation_gives_zero_output(self):
        r = build_relation(AP, B)
        assert cri(r, [0.0] * 5).tolist() == [0.0] * 5

    def test_unit_activation_gives_column_max(self):
        r = build_relation(AP, B)
        expected = np.max(r.entries, axis=0)
        assert cri(r, [1.0] * 5).tolist() == expected.tolist()

    def test_worked_example_composition(self):
        # column 3: max(min(1,.5), min(.5,.5), min(.1,.1), 0, 0) = 0.5 --
        # easy to mis-copy as 0.1 from the neighbouring column, so the
        # expectation is pinned to the literal oracle
        r = build_relation(AP, B)
        out = cri(r, AP)
        assert out.tolist() == [0.0, 0.0, 0.1, 0.5, 1.0]
        assert out.tolist() == max_min_oracle(EXPECTED_R, AP)

    def test_accepts_plain_matrix(self):
        assert cri(EXPECTED_R, AP).tolist() == [0.0, 0.0, 0.1, 0.5, 1.0]

    def test_dimension_mismatch(self):
        r = build_relation(AP, B)
        with pytest.raises(DimensionMismatch):
            cri(r, [1.0, 0.0])

    @pytest.mark.parametrize("matrix, ap", [
        (np.zeros((0, 3)), []), (np.zeros((2, 0)), [1.0, 1.0]), ([0.5, 0.5], [1.0, 1.0]),
    ], ids=["no_rows", "no_columns", "vector"])
    def test_plain_matrix_follows_the_relation_rule(self, matrix, ap):
        shape = re.escape(str(np.shape(matrix)))
        with pytest.raises(ValidationError, match=f"^relation must be a 2-D matrix, got shape {shape}$"):
            cri(matrix, ap)

    @given(data=st.data())
    def test_matches_oracle_on_random_instances(self, data):
        m = data.draw(st.integers(1, 7))
        n = data.draw(st.integers(1, 7))
        r = data.draw(arrays(np.float64, (m, n), elements=st.floats(0, 1)))
        ap = data.draw(arrays(np.float64, m, elements=st.floats(0, 1)))
        assert cri(r, ap).tolist() == pytest.approx(max_min_oracle(r, ap), abs=0)

    @given(data=st.data())
    def test_monotone_in_activation(self, data):
        m = data.draw(st.integers(1, 7))
        n = data.draw(st.integers(1, 7))
        r = data.draw(arrays(np.float64, (m, n), elements=st.floats(0, 1)))
        lo = data.draw(arrays(np.float64, m, elements=st.floats(0, 1)))
        hi = np.minimum(lo + data.draw(arrays(np.float64, m, elements=st.floats(0, 1))), 1.0)
        assert np.all(cri(r, lo) <= cri(r, hi))

    @given(data=st.data())
    def test_output_bounded_by_column_max(self, data):
        m = data.draw(st.integers(1, 7))
        n = data.draw(st.integers(1, 7))
        r = data.draw(arrays(np.float64, (m, n), elements=st.floats(0, 1)))
        ap = data.draw(arrays(np.float64, m, elements=st.floats(0, 1)))
        assert np.all(cri(r, ap) <= np.max(r, axis=0))

    @given(data=st.data())
    def test_recovery_for_normal_antecedent(self, data):
        # composing a rule's relation with its own (normal) antecedent
        # returns the consequent exactly
        m = data.draw(st.integers(2, 9))
        n = data.draw(st.integers(2, 9))
        a = data.draw(arrays(np.float64, m, elements=st.floats(0, 1)))
        a[data.draw(st.integers(0, m - 1))] = 1.0
        b = data.draw(arrays(np.float64, n, elements=st.floats(0, 1)))
        assert cri(build_relation(a, b), a).tolist() == b.tolist()


class TestUnion:
    def test_elementwise_max(self):
        assert union([0.0, 0.2, 0.9], [0.5, 0.1, 0.9]).tolist() == [0.5, 0.2, 0.9]

    def test_zero_identity_and_idempotence(self):
        x = np.array([0.3, 0.0, 1.0])
        assert union(x, np.zeros(3)).tolist() == x.tolist()
        assert union(x, x).tolist() == x.tolist()

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            union([0.1, 0.2], [0.1, 0.2, 0.3])

    def test_fuzzy_sets_keep_their_universe(self):
        u = Universe(0, 1, 3)
        out = union(FuzzySet(u, [0.1, 0.2, 0.3]), FuzzySet(u, [0.3, 0.1, 0.2]))
        assert isinstance(out, FuzzySet)
        assert out.universe == u
        assert out.grades.tolist() == [0.3, 0.2, 0.3]
        assert not out.grades.flags.writeable

    def test_universe_mismatch_rejected(self):
        a = FuzzySet(Universe(0, 1, 3), [0.1, 0.2, 0.3])
        b = FuzzySet(Universe(0, 2, 3), [0.1, 0.2, 0.3])
        with pytest.raises(DimensionMismatch):
            union(a, b)

    @given(a=grade_vec, b=grade_vec)
    def test_commutative(self, a, b):
        assert union(a, b).tolist() == union(b, a).tolist()

    @given(a=grade_vec, b=grade_vec, c=grade_vec)
    def test_associative(self, a, b, c):
        assert union(union(a, b), c).tolist() == union(a, union(b, c)).tolist()


def _two_term_var(name, universe):
    return LinguisticVariable(
        name,
        universe,
        (
            LinguisticTerm("lo", Triangular(universe.min, universe.min, universe.max)),
            LinguisticTerm("hi", Triangular(universe.min, universe.max, universe.max)),
        ),
    )


class TestRuleBase:
    def _vars(self):
        return _two_term_var("in", Universe(0, 10, 5)), _two_term_var("out", Universe(0, 1, 5))

    def test_empty_rejected(self):
        vin, vout = self._vars()
        with pytest.raises(EmptyRuleBase):
            RuleBase(vin, vout, ())

    def test_duplicate_antecedent_rejected(self):
        vin, vout = self._vars()
        with pytest.raises(ValidationError):
            RuleBase(vin, vout, (Rule(0, 0), Rule(0, 1)))

    def test_out_of_range_indices_rejected(self):
        vin, vout = self._vars()
        with pytest.raises(ValidationError):
            RuleBase(vin, vout, (Rule(2, 0),))
        with pytest.raises(ValidationError):
            RuleBase(vin, vout, (Rule(0, 5),))

    def test_negative_index_rejected(self):
        with pytest.raises(ValidationError):
            Rule(-1, 0)


class TestInfer:
    def _setup(self):
        vin, vout = _two_term_var("in", Universe(0, 10, 5)), _two_term_var(
            "out", Universe(0, 1, 5)
        )
        rb = RuleBase(vin, vout, (Rule(0, 1), Rule(1, 0)))
        consequents = tuple(discretize(t.mf, vout.universe) for t in vout.terms)
        return rb, consequents

    def test_zero_activations_give_zero_command(self):
        rb, cons = self._setup()
        assert not infer(rb, [0.0, 0.0], cons).grades.any()

    def test_single_full_activation_recovers_consequent(self):
        rb, cons = self._setup()
        assert infer(rb, [1.0, 0.0], cons) == cons[1]
        assert not infer(rb, [1.0, 0.0], cons).grades.flags.writeable
        assert infer(rb, [0.0, 1.0], cons) == cons[0]

    def test_partial_activations_union_clipped_sets(self):
        rb, cons = self._setup()
        out = infer(rb, [0.5, 0.5], cons)
        expected = np.maximum(
            np.minimum(0.5, cons[1].grades), np.minimum(0.5, cons[0].grades)
        )
        assert out.grades.tolist() == expected.tolist()

    def test_activation_length_checked(self):
        rb, cons = self._setup()
        with pytest.raises(DimensionMismatch):
            infer(rb, [1.0], cons)

    def test_consequent_count_checked(self):
        rb, cons = self._setup()
        with pytest.raises(DimensionMismatch):
            infer(rb, [1.0, 0.0], cons[:1])

    def test_consequents_must_share_universe(self):
        rb, cons = self._setup()
        other = FuzzySet(Universe(0, 2, 5), cons[1].grades)
        with pytest.raises(DimensionMismatch):
            infer(rb, [1.0, 0.0], (cons[0], other))

    @given(data=st.data())
    def test_clipping_equals_relation_path(self, data):
        # one rule, singleton activation on the grid: clipping the
        # consequent at the antecedent grade must equal composing the
        # full implication matrix with a one-hot vector
        m = data.draw(st.integers(2, 7))
        n = data.draw(st.integers(2, 7))
        uin = Universe(0, 10, m)
        uout = Universe(0, 1, n)
        vin = LinguisticVariable(
            "in", uin, (LinguisticTerm("t", Triangular(uin.min, uin.midpoint, uin.max)),)
        )
        vout = LinguisticVariable(
            "out", uout, (LinguisticTerm("u", Triangular(uout.min, uout.midpoint, uout.max)),)
        )
        rb = RuleBase(vin, vout, (Rule(0, 0),))
        a = data.draw(arrays(np.float64, m, elements=st.floats(0, 1)))
        b = data.draw(arrays(np.float64, n, elements=st.floats(0, 1)))
        i0 = data.draw(st.integers(0, m - 1))

        clipped = infer(rb, [a[i0]], (FuzzySet(uout, b),))
        one_hot = np.zeros(m)
        one_hot[i0] = 1.0
        relation_path = cri(build_relation(a, b), one_hot)
        assert clipped.grades.tolist() == pytest.approx(relation_path.tolist(), abs=0)


class TestGradeArguments:
    """The paper's API takes a ``FuzzySet`` wherever it takes a grade
    vector, as that set's ``grades``, and names a bad grade alike in a
    list and in an ndarray."""

    @staticmethod
    def _outcome(call, values):
        """``call(values)`` as a list, or the class and message it raised."""
        try:
            return call(values).tolist()
        except FuzzyError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("name", ["cri", "union", "union, other side", "build_relation",
                                      "build_relation, consequent", "infer"])
    def test_a_fuzzy_set_gives_what_its_grades_give(self, name):
        rb, cons = TestInfer()._setup()
        call = {
            "cri": lambda v: cri(build_relation(AP, B), v),
            "union": lambda v: union(v, B),
            "union, other side": lambda v: union(np.array(B), v),
            "build_relation": lambda v: build_relation(v, B).entries,
            "build_relation, consequent": lambda v: build_relation(AP, v).entries,
            "infer": lambda v: infer(rb, v, cons).grades,
        }[name]
        # a set of the length the call takes, and one of another length
        for grades in (AP, [0.25, 1.0], [0.0, 0.5, 1.0]):
            fset = FuzzySet(Universe(0, 1, len(grades)), grades)
            assert self._outcome(call, fset) == self._outcome(call, fset.grades)

    @pytest.mark.parametrize("form", [list, np.array])
    @pytest.mark.parametrize("bad, message", [
        ([0.5, float("nan")], "must be finite, got nan"),
        ([1.5, float("nan")], "must be finite, got nan"),
        ([0.5, 1.5], r"must lie in \[0, 1\]"),
        ([0.5, -0.5], r"must lie in \[0, 1\]"),
    ])
    def test_a_bad_grade_is_named_the_same_in_a_list_and_an_array(self, form, bad, message):
        with pytest.raises(ValidationError, match=f"^grades {message}$"):
            union(form(bad), [0.0, 0.0])
        with pytest.raises(ValidationError, match=f"^relation entries {message}$"):
            FuzzyRelation(form([bad, [0.0, 0.0]]))
