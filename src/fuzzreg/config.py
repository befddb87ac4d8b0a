"""Declarative controller definitions.

A controller is a single YAML document with three required sections and
three optional ones::

    input:                  # the measured variable
      name: Temperature
      range: [0.0, 100.0]   # universe bounds, min < max
      samples: 101          # universe sample count, >= 2
      terms:
        - name: TFJ
          type: zshoulder   # triangular | trapezoidal | gaussian
          params: [0.0, 25.0]  #   | zshoulder | sshoulder
    output:                 # the commanded variable, same layout
      ...
    rules:                  # one entry per rule; 'if' names an input term,
      - {if: TFJ, then: CVB}   # 'then' an output term; no input term twice
    defuzzification: cog    # optional; 'cog' is the only method
    zero_mass: error        # optional; 'error' or 'midpoint'
    output_resolution: 101  # optional; defaults to the output samples

Parameter counts per shape: triangular 3 (a <= b <= c), trapezoidal 4
(a <= b <= c <= d), gaussian 2 (center, sigma > 0), zshoulder/sshoulder 2
(a < b). Every structural problem is reported with the path of the
offending field.

Documents are read with libyaml when PyYAML was built with it, and with
PyYAML's pure-Python reader otherwise; either way a repeated mapping key
and collections nested deeper than ``MAX_DEPTH`` are rejected as
:class:`ParseError` before any field is validated.
"""

from __future__ import annotations

import os
from pathlib import Path

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError
from yaml.events import CollectionEndEvent, CollectionStartEvent

from .errors import InvalidUniverse, ParseError, ValidationError
from .inference import Rule, RuleBase
from .membership import (
    LinguisticTerm,
    LinguisticVariable,
    MembershipFunction,
    Universe,
    _SHAPE_CLASSES,
    _count,
    _instance,
    _real,
    mf_parameters,
)
from .regulator import Regulator, ZeroMassPolicy

# a term's document type is its shape's class name, lowercased
MF_TYPES: dict[str, type[MembershipFunction]] = {
    cls.__name__.lower(): cls for cls in _SHAPE_CLASSES
}

# libyaml's classes when PyYAML was built with it, the pure-Python ones otherwise
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_SafeDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

MAX_DEPTH = 32
"""Deepest collection nesting a document may use; a controller needs 5
(document, variable, term list, term, parameter list)."""

_MERGE_TAG = "tag:yaml.org,2002:merge"


class _DocumentLoader(_SafeLoader):
    """PyYAML's safe loader, with bounded nesting and no repeated keys.

    libyaml composes nodes by recursing in C, so a document nested a few
    thousand levels deep overflows the C stack. :meth:`load` therefore
    walks the parse events once, counting open collections, and composes
    only a document that stays within ``MAX_DEPTH``.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._key_checked: set = set()

    @classmethod
    def load(cls, text: str):
        probe = cls(text)
        try:
            probe._check_depth()
        finally:
            probe.dispose()
        loader = cls(text)
        try:
            return loader.get_single_data()
        finally:
            loader.dispose()

    def _check_depth(self) -> None:
        depth = 0
        while self.check_event():
            event = self.get_event()
            if isinstance(event, CollectionStartEvent):
                depth += 1
                if depth > MAX_DEPTH:
                    raise ComposerError(
                        None, None,
                        f"collections nested deeper than {MAX_DEPTH} levels",
                        event.start_mark,
                    )
            elif isinstance(event, CollectionEndEvent):
                depth -= 1

    def construct_object(self, node, deep=False):
        # the scalar constructors let int(), float(), date() and the bool
        # table raise their own errors, e.g. for '!!int x' or '2001-13-01'
        try:
            return super().construct_object(node, deep)
        except (ValueError, KeyError, OverflowError) as exc:
            raise ConstructorError(
                None, None, f"cannot read {node.tag} value: {exc}", node.start_mark
            ) from None

    def flatten_mapping(self, node):
        # Flattening rewrites node.value to hold the merged pairs too, which
        # may repeat a key on purpose, and a node merged into another one is
        # flattened again; so a node's keys are checked on its first
        # flattening only, while node.value still holds what was written.
        if node not in self._key_checked:
            self._key_checked.add(node)
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == _MERGE_TAG:
                    continue
                key = self.construct_object(key_node, deep=True)
                try:
                    repeated = key in seen
                    seen.add(key)
                except TypeError:  # unhashable; construct_mapping reports it
                    continue
                if repeated:
                    raise ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
        super().flatten_mapping(node)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ValidationError(f"{path}: missing required key {key!r}")
    return mapping[key]


def _check_mapping(value, path: str, allowed: set[str]) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{path}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if key not in allowed:
            raise ValidationError(f"{path}: unknown key {key!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{path}: expected a non-empty string, got {value!r}")
    return value


def _parse_term(doc, path: str) -> LinguisticTerm:
    term = _check_mapping(doc, path, {"name", "type", "params"})
    name = _string(_require(term, "name", path), f"{path}.name")
    type_name = _string(_require(term, "type", path), f"{path}.type")
    if type_name not in MF_TYPES:
        raise ValidationError(
            f"{path}.type: unknown membership type {type_name!r}; "
            f"expected one of {sorted(MF_TYPES)}"
        )
    cls = MF_TYPES[type_name]
    raw = _require(term, "params", path)
    if not isinstance(raw, list):
        raise ValidationError(f"{path}.params: expected a list of numbers")
    arity = len(cls.__match_args__)
    if len(raw) != arity:
        raise ValidationError(
            f"{path}.params: {type_name} takes {arity} parameters, got {len(raw)}"
        )
    params = [_real(p, f"{path}.params[{i}]") for i, p in enumerate(raw)]
    return LinguisticTerm(name, _at(f"{path}.params", ValidationError, cls, *params))


def _parse_variable(doc, path: str) -> LinguisticVariable:
    var = _check_mapping(doc, path, {"name", "range", "samples", "terms"})
    name = _string(_require(var, "name", path), f"{path}.name")
    rng = _require(var, "range", path)
    if not isinstance(rng, list) or len(rng) != 2:
        raise ValidationError(f"{path}.range: expected [min, max]")
    lo = _real(rng[0], f"{path}.range[0]")
    hi = _real(rng[1], f"{path}.range[1]")
    samples = _count(_require(var, "samples", path), f"{path}.samples", 2)
    terms_doc = _require(var, "terms", path)
    if not isinstance(terms_doc, list) or not terms_doc:
        raise ValidationError(f"{path}.terms: expected a non-empty list")
    terms = tuple(
        _parse_term(t, f"{path}.terms[{i}]") for i, t in enumerate(terms_doc)
    )
    universe = _at(f"{path}.range", InvalidUniverse, Universe, lo, hi, samples)
    return _at(path, ValidationError, LinguisticVariable, name, universe, terms)


def _parse_rules(doc, path: str, input_var, output_var) -> tuple[Rule, ...]:
    if not isinstance(doc, list) or not doc:
        raise ValidationError(f"{path}: expected a non-empty list of rules")
    rules = []
    for i, entry in enumerate(doc):
        rule_path = f"{path}[{i}]"
        rule = _check_mapping(entry, rule_path, {"if", "then"})
        ant_name = _string(_require(rule, "if", rule_path), f"{rule_path}.if")
        cons_name = _string(_require(rule, "then", rule_path), f"{rule_path}.then")
        rules.append(Rule(
            _term_index(input_var, ant_name, f"{rule_path}.if: unknown input term"),
            _term_index(output_var, cons_name, f"{rule_path}.then: unknown output term"),
        ))
    return tuple(rules)


def _at(path: str, errors, build, *args, **kwargs):
    """``build(*args, **kwargs)``, an error of the classes ``errors`` raised
    again as a ``ValidationError`` whose message ``path`` prefixes."""
    try:
        return build(*args, **kwargs)
    except errors as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _term_index(var: LinguisticVariable, name: str, unknown: str) -> int:
    """Index of the term ``name`` of ``var``; a name it lacks is a
    ``ValidationError`` of ``unknown`` followed by the name."""
    try:
        return var.term_index(name)
    except ValidationError:
        raise ValidationError(f"{unknown} {name!r}") from None


_TOP_KEYS = {"input", "output", "rules", "defuzzification", "zero_mass", "output_resolution"}


def parse_config(document: str) -> Regulator:
    """Build a fully validated regulator from a controller document.

    Raises :class:`ParseError` when the document is not valid YAML, repeats
    a mapping key or nests deeper than ``MAX_DEPTH``, and
    :class:`ValidationError` (naming the offending path) when it is
    well-formed but violates an invariant.
    """
    _instance(document, str, "controller document")
    try:
        doc = _DocumentLoader.load(document)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:  # libyaml encodes str to UTF-8
        raise ParseError(f"not a valid controller document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(
            f"controller document must be a mapping, got {type(doc).__name__}"
        )
    _check_mapping(doc, "document", _TOP_KEYS)

    input_var = _parse_variable(_require(doc, "input", "document"), "input")
    output_var = _parse_variable(_require(doc, "output", "document"), "output")
    rules = _parse_rules(_require(doc, "rules", "document"), "rules", input_var, output_var)

    defuzz_name = doc.get("defuzzification", "cog")
    if _string(defuzz_name, "defuzzification") != "cog":
        raise ValidationError(f"defuzzification: unknown method {defuzz_name!r}; expected ['cog']")

    zero_mass_name = doc.get("zero_mass", ZeroMassPolicy.ERROR.value)
    try:
        zero_mass = ZeroMassPolicy(_string(zero_mass_name, "zero_mass"))
    except ValueError:
        raise ValidationError(
            f"zero_mass: unknown policy {zero_mass_name!r}; expected "
            f"{sorted(p.value for p in ZeroMassPolicy)}"
        ) from None

    rulebase = _at("rules", ValidationError, RuleBase, input_var, output_var, rules)
    resolution = doc.get("output_resolution")
    # Regulator's own count check names output_resolution already; a valid
    # count may still leave the resampled output universe degenerate
    return _at(
        "output_resolution", InvalidUniverse, Regulator, rulebase,
        output_resolution=resolution, zero_mass_policy=zero_mass,
    )


def load_config(path) -> Regulator:
    """Read and parse a UTF-8 controller file; an unreadable one is a ``ParseError`` naming it."""
    _instance(path, (str, os.PathLike), "load_config path")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    except (OSError, ValueError) as exc:  # missing, a directory, a NUL in the name
        raise ParseError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
    return parse_config(text)


def _term_doc(term: LinguisticTerm) -> dict:
    cls = type(term.mf)
    if cls not in _SHAPE_CLASSES:
        raise ValidationError(f"term {term.name!r}: {cls.__name__} has no document type")
    return {"name": term.name, "type": cls.__name__.lower(), "params": mf_parameters(term.mf)}


def _variable_doc(var: LinguisticVariable) -> dict:
    return {
        "name": var.name,
        "range": [var.universe.min, var.universe.max],
        "samples": var.universe.n,
        "terms": [_term_doc(term) for term in var.terms],
    }


def serialize_config(reg: Regulator) -> str:
    """Render a regulator back to its controller document.

    Round-trips: parsing the output yields a structurally equal regulator.
    """
    _instance(reg, Regulator, "serialize_config regulator")
    in_names = reg.rulebase.input_var.term_names
    out_names = reg.rulebase.output_var.term_names
    doc = {
        "input": _variable_doc(reg.rulebase.input_var),
        "output": _variable_doc(reg.rulebase.output_var),
        "rules": [
            {"if": in_names[rule.antecedent], "then": out_names[rule.consequent]}
            for rule in reg.rulebase.rules
        ],
        "defuzzification": "cog",
        "zero_mass": reg.zero_mass_policy.value,
        "output_resolution": reg.output_resolution,
    }
    return yaml.dump(doc, Dumper=_SafeDumper, sort_keys=False, default_flow_style=False)


def reference_config_path() -> Path:
    """Location of the shipped reference controller file."""
    return Path(__file__).parent / "data" / "reference.yaml"


def reference_regulator() -> Regulator:
    """The five-term temperature controller of the shipped reference file.

    Temperature runs over [0, 100] with terms TFJ (very low), TJ (low),
    TM (medium), TI (high) and TFI (very high); the normalized command over
    [0, 1] with terms CVS (very small) through CVB (very big). Adjacent
    terms cross at grade 0.5 and each input term drives exactly one rule:
    the colder the reading, the bigger the command.
    """
    return load_config(reference_config_path())
