"""Controller document parsing, validation diagnostics and round-trips,
and the YAML loader's rules: duplicate keys, bounded nesting, and
properties over arbitrary input.

``yaml.safe_load`` (PyYAML's pure-Python loader) stays the oracle for what
a document means; the fuzzreg loader must return exactly the same tree for
every document it accepts.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzreg import (
    LinguisticTerm,
    LinguisticVariable,
    ParseError,
    Regulator,
    Rule,
    RuleBase,
    SShoulder,
    Triangular,
    Universe,
    ValidationError,
    ZeroMassPolicy,
    ZShoulder,
    load_config,
    parse_config,
    reference_config_path,
    reference_regulator,
    serialize_config,
)
from fuzzreg import config as config_module
from fuzzreg.config import MAX_DEPTH, _DocumentLoader

MINIMAL = """
input:
  name: x
  range: [0.0, 10.0]
  samples: 11
  terms:
    - {name: lo, type: zshoulder, params: [2.0, 8.0]}
    - {name: hi, type: sshoulder, params: [2.0, 8.0]}
output:
  name: y
  range: [0.0, 1.0]
  samples: 11
  terms:
    - {name: small, type: triangular, params: [0.0, 0.0, 0.5]}
    - {name: big, type: triangular, params: [0.5, 1.0, 1.0]}
rules:
  - {if: lo, then: big}
  - {if: hi, then: small}
"""


def with_lines(replacements: dict) -> str:
    text = MINIMAL
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    return text


class TestParse:
    def test_minimal_document(self):
        reg = parse_config(MINIMAL)
        assert isinstance(reg, Regulator)
        assert reg.input_var.term_names == ("lo", "hi")
        assert reg.zero_mass_policy is ZeroMassPolicy.ERROR
        assert reg.output_resolution == 11

    def test_optional_fields(self):
        text = MINIMAL + "\nzero_mass: midpoint\noutput_resolution: 21\n"
        reg = parse_config(text)
        assert reg.zero_mass_policy is ZeroMassPolicy.MIDPOINT
        assert reg.output_resolution == 21

    def test_shipped_reference_file_equals_builtin(self):
        # the document is the controller's only definition, so a literal of
        # its terms and rules pins it here
        def variable(name, hi, terms):
            return LinguisticVariable(name, Universe(0.0, hi, 101),
                                      tuple(LinguisticTerm(*t) for t in terms))

        temperature = variable("Temperature", 100.0, [
            ("TFJ", ZShoulder(0.0, 25.0)), ("TJ", Triangular(0.0, 25.0, 50.0)),
            ("TM", Triangular(25.0, 50.0, 75.0)), ("TI", Triangular(50.0, 75.0, 100.0)),
            ("TFI", SShoulder(75.0, 100.0))])
        command = variable("Command", 1.0, [
            ("CVS", ZShoulder(0.0, 0.25)), ("CS", Triangular(0.0, 0.25, 0.5)),
            ("CM", Triangular(0.25, 0.5, 0.75)), ("CB", Triangular(0.5, 0.75, 1.0)),
            ("CVB", SShoulder(0.75, 1.0))])
        rules = (Rule(0, 4), Rule(1, 3), Rule(2, 2), Rule(3, 1), Rule(4, 0))
        expected = Regulator(RuleBase(temperature, command, rules), output_resolution=101)
        assert load_config(reference_config_path()) == expected

    def test_round_trip_of_builtin(self):
        reg = reference_regulator()
        assert parse_config(serialize_config(reg)) == reg

    def test_round_trip_of_minimal(self):
        reg = parse_config(MINIMAL)
        assert parse_config(serialize_config(reg)) == reg

    def test_round_trip_preserves_policies(self):
        text = MINIMAL + "\nzero_mass: midpoint\noutput_resolution: 31\n"
        reg = parse_config(text)
        again = parse_config(serialize_config(reg))
        assert again == reg
        assert again.output_resolution == 31


class TestDocumentErrors:
    def test_unparseable_yaml(self):
        with pytest.raises(ParseError):
            parse_config("input: [unclosed")

    def test_non_mapping_document(self):
        with pytest.raises(ParseError):
            parse_config("- just\n- a\n- list\n")

    def test_missing_section(self):
        with pytest.raises(ValidationError, match="rules"):
            parse_config(MINIMAL.replace("rules:", "norules:").replace("  - {if", "  - {xf"))

    def test_unknown_top_level_key(self):
        with pytest.raises(ValidationError, match="extra"):
            parse_config(MINIMAL + "\nextra: 1\n")

    def test_unhashable_key(self):
        with pytest.raises(ParseError, match="found unhashable key"):
            parse_config(MINIMAL + "\n? [a, b]\n: 1\n")


class TestLoadConfig:
    def test_path_must_be_a_path(self):
        with pytest.raises(ValidationError, match="^load_config path must be str, got NoneType$"):
            load_config(None)

    @pytest.mark.parametrize("name, why", [("nope.yaml", "No such file or directory"),
                                           (".", "Is a directory")])
    def test_unreadable_file_is_named(self, tmp_path, name, why):
        path = tmp_path / name
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: cannot read: {why}$"):
            load_config(path)


class TestValidationDiagnostics:
    def test_unknown_mf_type_is_named(self):
        text = with_lines({"type: zshoulder": "type: wedge"})
        with pytest.raises(ValidationError, match="wedge"):
            parse_config(text)

    def test_mf_types_are_the_lowercased_class_names(self):
        assert list(config_module.MF_TYPES) == [
            "triangular", "trapezoidal", "gaussian", "zshoulder", "sshoulder"]
        for name, cls in config_module.MF_TYPES.items():
            assert name == cls.__name__.lower()

    def test_unknown_rule_term_is_named(self):
        text = with_lines({"{if: lo, then: big}": "{if: XX, then: big}"})
        with pytest.raises(ValidationError, match=r"^rules\[0\]\.if: unknown input term 'XX'$"):
            parse_config(text)

    def test_unknown_consequent_term_is_named(self):
        text = with_lines({"{if: hi, then: small}": "{if: hi, then: XL}"})
        with pytest.raises(ValidationError, match=r"^rules\[1\]\.then: unknown output term 'XL'$"):
            parse_config(text)

    def test_out_of_order_params_point_at_the_field(self):
        text = with_lines(
            {"{name: small, type: triangular, params: [0.0, 0.0, 0.5]}":
             "{name: small, type: triangular, params: [5.0, 2.0, 9.0]}"}
        )
        with pytest.raises(ValidationError, match=r"output\.terms\[0\]\.params"):
            parse_config(text)

    def test_params_must_be_a_list(self):
        text = with_lines({"{name: lo, type: zshoulder, params: [2.0, 8.0]}":
                           "{name: lo, type: zshoulder, params: 2.0}"})
        with pytest.raises(ValidationError, match=r"^input\.terms\[0\]\.params: expected a list of numbers$"):
            parse_config(text)

    def test_wrong_param_count(self):
        text = with_lines({"{name: lo, type: zshoulder, params: [2.0, 8.0]}":
                           "{name: lo, type: zshoulder, params: [2.0]}"})
        with pytest.raises(ValidationError, match="2 parameters"):
            parse_config(text)

    def test_bad_universe(self):
        text = with_lines({"range: [0.0, 10.0]": "range: [10.0, 0.0]"})
        with pytest.raises(ValidationError, match="input"):
            parse_config(text)

    def test_bad_sample_count(self):
        text = with_lines({"samples: 11\n  terms:\n    - {name: lo": "samples: 1\n  terms:\n    - {name: lo"})
        with pytest.raises(ValidationError):
            parse_config(text)

    def test_duplicate_rule_antecedent(self):
        text = with_lines({"{if: hi, then: small}": "{if: lo, then: small}"})
        with pytest.raises(ValidationError, match="lo"):
            parse_config(text)

    def test_duplicate_term_names(self):
        text = with_lines({"{name: hi, type: sshoulder, params: [2.0, 8.0]}":
                           "{name: lo, type: sshoulder, params: [2.0, 8.0]}"})
        with pytest.raises(ValidationError, match="duplicate"):
            parse_config(text)

    def test_rule_entry_must_be_mapping(self):
        text = with_lines({"- {if: lo, then: big}": "- 17"})
        with pytest.raises(ValidationError, match=r"rules\[0\]"):
            parse_config(text)

    def test_unknown_zero_mass_policy(self):
        with pytest.raises(ValidationError, match="sometimes"):
            parse_config(MINIMAL + "\nzero_mass: sometimes\n")

    def test_unknown_defuzzification_method(self):
        with pytest.raises(ValidationError, match="bisector"):
            parse_config(MINIMAL + "\ndefuzzification: bisector\n")

    def test_bad_output_resolution(self):
        with pytest.raises(ValidationError, match="output_resolution"):
            parse_config(MINIMAL + "\noutput_resolution: 1\n")
        with pytest.raises(ValidationError, match="output_resolution"):
            parse_config(MINIMAL + "\noutput_resolution: lots\n")

    def test_non_numeric_param_is_located(self):
        text = with_lines({"{name: lo, type: zshoulder, params: [2.0, 8.0]}":
                           "{name: lo, type: zshoulder, params: [2.0, much]}"})
        with pytest.raises(ValidationError, match=r"input\.terms\[0\]\.params\[1\]"):
            parse_config(text)


HUGE = "1" + "0" * 400  # 10**400 written out: past the largest double and any count
LO_TERM = "{name: lo, type: zshoulder, params: [2.0, 8.0]}"
IN_SAMPLES = "samples: 11\n  terms:\n    - {name: lo"


def narrow_output(resolution: int) -> str:
    """MINIMAL with an output range of 1e-12 around 1.0: a uniform grid at
    2 samples, while a million samples would space them below one ulp."""
    return with_lines({
        "range: [0.0, 1.0]\n  samples: 11": "range: [1.0, 1.000000000001]\n  samples: 2",
        "params: [0.0, 0.0, 0.5]": "params: [1.0, 1.0, 1.000000000001]",
        "params: [0.5, 1.0, 1.0]": "params: [1.0, 1.000000000001, 1.000000000001]",
    }) + f"output_resolution: {resolution}\n"


class TestNumbersAndCounts:
    """Document fields follow the number and count rules of the API, and
    every rejection names its field."""

    @pytest.mark.parametrize("text, path", [
        (with_lines({"range: [0.0, 10.0]": f"range: [0.0, {HUGE}]"}), r"input\.range: "),
        (with_lines({LO_TERM: LO_TERM.replace("8.0", HUGE)}), r"input\.terms\[0\]\.params: "),
        (with_lines({IN_SAMPLES: IN_SAMPLES.replace("11", HUGE)}), r"input\.samples "),
        (MINIMAL + f"output_resolution: {HUGE}\n", r"output_resolution "),
    ], ids=["range", "params", "samples", "output_resolution"])
    def test_huge_integers_name_their_field(self, text, path):
        with pytest.raises(ValidationError, match="^" + path):
            parse_config(text)

    @pytest.mark.parametrize("text, message", [
        (with_lines({"range: [0.0, 10.0]": "range: [0.0, ten]"}),
         "input.range[1] must be a number, got 'ten'"),
        (with_lines({LO_TERM: LO_TERM.replace("8.0", "much")}),
         "input.terms[0].params[1] must be a number, got 'much'"),
        (with_lines({IN_SAMPLES: IN_SAMPLES.replace("11", "true")}),
         "input.samples must be a whole number from 2 to 1048576, got True"),
    ], ids=["range", "params", "samples"])
    def test_diagnostics_name_the_field(self, text, message):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert str(err.value) == message

    def test_whole_float_sample_count_is_a_count(self):
        text = reference_config_path().read_text().replace("samples: 101", "samples: 101.0", 1)
        reg = parse_config(text)
        assert reg == reference_regulator()
        assert type(reg.input_var.universe.n) is int
        assert serialize_config(reg) == serialize_config(reference_regulator())
        assert "samples: 101\n" in serialize_config(reg)

    def test_fractional_sample_count_is_rejected(self):
        text = reference_config_path().read_text().replace("samples: 101", "samples: 101.5", 1)
        with pytest.raises(ValidationError, match=r"^input\.samples .*101\.5"):
            parse_config(text)

    def test_degenerate_output_resolution_names_its_field(self):
        assert parse_config(narrow_output(2)).output_resolution == 2
        with pytest.raises(ValidationError, match=r"^output_resolution: .*underflows"):
            parse_config(narrow_output(1_000_000))


# --- the YAML loader ---------------------------------------------------------

SRC = str(Path(config_module.__file__).resolve().parents[1])

# the three ways to nest: flow sequences, block sequences, flow mappings
NESTINGS = {
    "flow_sequence": lambda n: "[" * n + "]" * n,
    "block_sequence": lambda n: "- " * n + "x",
    "flow_mapping": lambda n: "{a: " * n + "b" + "}" * n,
}


def run_child(code: str, hide_libyaml: bool = False) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports fuzzreg from this
    checkout; with ``hide_libyaml`` PyYAML looks as if built without it."""
    prelude = "import yaml\n"
    if hide_libyaml:
        prelude += "del yaml.CSafeLoader, yaml.CSafeDumper\n"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )


class TestYamlBackend:
    def test_libyaml_is_used_when_present(self):
        if not yaml.__with_libyaml__:
            pytest.skip("PyYAML was built without libyaml")
        assert issubclass(_DocumentLoader, yaml.CSafeLoader)
        assert config_module._SafeDumper is yaml.CSafeDumper


class TestDuplicateKeys:
    def test_top_level_key(self):
        with pytest.raises(ParseError, match=r"duplicate key 'zero_mass'(.|\n)*line 20"):
            parse_config(MINIMAL + "zero_mass: error\nzero_mass: midpoint\n")

    def test_key_inside_a_term(self):
        text = MINIMAL.replace("{name: big, type: triangular,",
                               "{name: big, type: triangular, type: gaussian,")
        with pytest.raises(ParseError, match=r"duplicate key 'type'(.|\n)*line 15"):
            parse_config(text)

    def test_key_inside_a_block_term(self):
        text = MINIMAL.replace(
            "    - {name: lo, type: zshoulder, params: [2.0, 8.0]}\n",
            "    - name: lo\n      type: zshoulder\n      params: [2.0, 8.0]\n"
            "      params: [1.0, 8.0]\n",
        )
        with pytest.raises(ParseError, match=r"duplicate key 'params'(.|\n)*line 10"):
            parse_config(text)

    def test_equal_keys_written_differently(self):
        with pytest.raises(yaml.YAMLError, match="duplicate key 1"):
            _DocumentLoader.load("{1: a, 0x1: b}")

    @pytest.mark.parametrize("text", [
        "b: &b {x: 1}\nc: {<<: *b, x: 2}\n",                     # a key overrides a merged one
        "a: &a {x: 1}\nb: &b {y: 1}\nc: {<<: [*a, *b]}\n",       # a list of merges
        "a: &a {x: 1}\nb: &b {y: 1}\nc: {<<: *a, <<: *b}\n",     # repeated '<<' merges both
        "b: &b {x: 1}\nm: &m {<<: *b, x: 2}\ntop: {<<: *m, x: 3}\n",  # a merged node merged again
        "a: {m: &m {<<: &b {x: 1}, x: 2}}\ntop: {<<: *m}\n",     # merged before it is built
    ])
    def test_merge_keys_keep_pyyaml_semantics(self, text):
        assert _DocumentLoader.load(text) == yaml.safe_load(text)

    def test_duplicate_inside_a_merged_mapping(self):
        with pytest.raises(yaml.YAMLError, match="duplicate key 'k'"):
            _DocumentLoader.load("top: {<<: {k: 1, k: 2}}")

    def test_merged_controller_fields(self):
        text = MINIMAL.replace("input:\n", "input: &var\n").replace(
            "output:\n  name: y\n  range: [0.0, 1.0]\n  samples: 11\n",
            "output:\n  <<: *var\n  name: y\n  range: [0.0, 1.0]\n",
        )
        assert parse_config(text) == parse_config(MINIMAL)


class TestNesting:
    @pytest.mark.parametrize("form", sorted(NESTINGS))
    def test_bound_is_inclusive(self, form):
        assert _DocumentLoader.load(NESTINGS[form](MAX_DEPTH)) == yaml.safe_load(
            NESTINGS[form](MAX_DEPTH))
        with pytest.raises(yaml.YAMLError, match=f"deeper than {MAX_DEPTH}"):
            _DocumentLoader.load(NESTINGS[form](MAX_DEPTH + 1))

    def test_deep_field_is_a_parse_error(self):
        # the pure-Python loader raised RecursionError here
        with pytest.raises(ParseError, match="nested deeper"):
            parse_config("input: " + "[" * 2000 + "]" * 2000)

    def test_hundred_thousand_levels_in_a_child(self):
        # libyaml composes recursively in C: without the bound this dies
        # with SIGSEGV, so it runs in its own process
        result = run_child("""
            from fuzzreg import ParseError, parse_config
            forms = ["[" * 100000 + "]" * 100000, "- " * 100000 + "x",
                     "{a: " * 100000 + "b" + "}" * 100000]
            for text in forms:
                try:
                    parse_config(text)
                except ParseError as exc:
                    assert "nested deeper" in str(exc), exc
                else:
                    raise AssertionError("accepted")
            print("rejected", len(forms))
        """)
        assert result.returncode == 0, result.stderr[-2000:]
        assert result.stdout.strip() == "rejected 3"


class TestSurrogates:
    def test_lone_surrogate_in_text(self):
        with pytest.raises(ParseError):
            parse_config(MINIMAL.replace("name: lo,", "name: \"T\ud800\","))

    def test_escaped_lone_surrogate(self):
        # libyaml refuses the escape; the pure-Python reader accepts it
        # and the term then rejects the name
        with pytest.raises((ParseError, ValidationError)):
            parse_config(MINIMAL.replace("name: lo,", 'name: "T\\uD800",'))

    def test_term_name(self):
        with pytest.raises(ValidationError, match="term name"):
            LinguisticTerm("T\ud800", Triangular(0.0, 1.0, 2.0))

    def test_variable_name(self):
        term = LinguisticTerm("t", Triangular(0.0, 1.0, 2.0))
        with pytest.raises(ValidationError, match="variable name"):
            LinguisticVariable("\udfff", Universe(0.0, 2.0, 3), (term,))


class TestScalarErrors:
    @pytest.mark.parametrize("value", [
        "!!bool maybe", "!!int x", "!!int 0x", "!!float z", "2001-13-01",
        pytest.param("1" * 5000, id="int_of_5000_digits"),
    ])
    def test_unreadable_scalar_is_a_parse_error(self, value):
        # PyYAML's own constructors raise KeyError or ValueError for these
        with pytest.raises(ParseError, match="line 19"):
            parse_config(MINIMAL + f"zero_mass: {value}\n")


# --- properties -------------------------------------------------------------

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False), st.text(max_size=12),
)
keys = st.one_of(st.text(max_size=12), st.integers(), st.booleans(), st.none())
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)


@st.composite
def controller_trees(draw):
    """The minimal controller with one field replaced by an arbitrary tree."""
    doc = yaml.safe_load(MINIMAL)
    node = doc
    while True:
        key = draw(st.sampled_from(sorted(node, key=str) if isinstance(node, dict)
                                   else range(len(node))))
        if not isinstance(node[key], (dict, list)) or draw(st.booleans()):
            node[key] = draw(trees)
            return doc
        node = node[key]


def accepts_or_rejects(text: str) -> None:
    try:
        assert isinstance(parse_config(text), Regulator)
    except (ParseError, ValidationError):
        pass


def dump(tree, flow: bool) -> str:
    return yaml.safe_dump(tree, default_flow_style=flow, allow_unicode=True, sort_keys=False)


@st.composite
def regulators(draw):
    """A regulator whose term and variable names are any Unicode text."""
    names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=10)
    variables = []
    for _ in range(2):
        labels = draw(st.lists(names, min_size=1, max_size=4, unique=True))
        terms = tuple(
            LinguisticTerm(label, Triangular(float(i), i + 1.0, i + 2.0))
            for i, label in enumerate(labels)
        )
        variables.append(LinguisticVariable(draw(names), Universe(0.0, len(labels) + 1.0, 7),
                                            terms))
    inputs, outputs = variables
    rules = tuple(Rule(i, draw(st.integers(0, len(outputs.terms) - 1)))
                  for i in range(len(inputs.terms)))
    return Regulator(RuleBase(inputs, outputs, rules))


class TestProperties:
    @given(text=st.text())
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        accepts_or_rejects(text)

    @given(text=st.text(st.sampled_from("[]{}-:,?!&*<>|#'\"\\ \n\tabc01.eE+x"), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_yaml_like_text(self, text):
        accepts_or_rejects(text)

    @given(tree=trees, flow=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_any_tree(self, tree, flow):
        accepts_or_rejects(dump(tree, flow))

    @given(tree=controller_trees(), flow=st.booleans())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_any_tree_in_a_controller(self, tree, flow):
        accepts_or_rejects(dump(tree, flow))

    @given(tree=trees, flow=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_loader_returns_what_safe_load_returns(self, tree, flow):
        text = dump(tree, flow)
        # repr tells 1 from 1.0 and True, and keeps the key order
        assert repr(_DocumentLoader.load(text)) == repr(yaml.safe_load(text))

    @given(reg=regulators())
    @settings(max_examples=200, deadline=None)
    def test_round_trip_with_any_names(self, reg):
        assert parse_config(serialize_config(reg)) == reg


def test_without_libyaml():
    # PyYAML built without libyaml has no CSafeLoader or CSafeDumper;
    # fuzzreg then falls back to the pure-Python classes
    result = run_child("""
        import yaml
        from fuzzreg import ParseError, ValidationError, parse_config, reference_regulator
        from fuzzreg import serialize_config
        from fuzzreg.config import _DocumentLoader, _SafeDumper
        assert _DocumentLoader.__mro__[1] is yaml.SafeLoader, _DocumentLoader.__mro__
        assert _SafeDumper is yaml.SafeDumper
        reg = reference_regulator()
        text = serialize_config(reg)
        assert text == yaml.safe_dump(yaml.safe_load(text), sort_keys=False)
        assert parse_config(text) == reg
        for bad, error, words in [
            (text + "zero_mass: midpoint\\n", ParseError, "duplicate key 'zero_mass'"),
            ("input: " + "[" * 10000 + "]" * 10000, ParseError, "nested deeper"),
            ("- " * 10000 + "x", ParseError, "nested deeper"),
            ("{a: " * 10000 + "b" + "}" * 10000, ParseError, "nested deeper"),
            (text.replace("name: TFJ", 'name: "T\\\\uD800"'), ValidationError, "term name"),
        ]:
            try:
                parse_config(bad)
            except error as exc:
                assert words in str(exc), exc
            else:
                raise AssertionError(f"accepted {bad[:40]!r}")
        print("ok")
    """, hide_libyaml=True)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "ok"
