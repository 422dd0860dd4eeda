"""Report serialization: non-finite floats never reach a JSON file, and the
one-pass writer gives the bytes of its definition."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonlab.report import dumps_report, round_sig, write_manifest


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_float_refused(value, tmp_path):
    with pytest.raises(ValueError, match="JSON compliant"):
        dumps_report({"x": [1.0, value]})
    with pytest.raises(ValueError, match="JSON compliant"):
        write_manifest([tmp_path / "r.json"], "test", [], {"x": value}, 0.0)
    assert not (tmp_path / "r.json.manifest.json").exists()


# -- the writer against its definition -----------------------------------------


def canonical(obj):
    """Oracle: the copy of ``obj`` that ``json.dumps`` turns into the report
    text, with floats rounded and keys made strings (the last one wins)."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, float):
        return round_sig(obj)
    return obj


def oracle(obj) -> str:
    return json.dumps(canonical(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


EDGE_FLOATS = [-0.0, 5e-324, 2.5e-310, 1e16, 1e-7, 123456789.123456789, 0.1 + 0.2]
EDGE_STRINGS = ["", "é", " ", "\U0001f600", "a\nb", '"', "\\", "\x00", "\x1f", "\t"]

leaves = st.one_of(
    st.text(), st.sampled_from(EDGE_STRINGS),
    st.integers(), st.integers(min_value=2 ** 63 - 2, max_value=2 ** 66),
    st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
# int, bool and None keys become strings that can collide with str keys
keys = st.one_of(st.text(max_size=3), st.integers(-2, 2), st.booleans(), st.none(),
                 st.sampled_from(["0", "1", "-1", "True", "None"]))
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(values)
def test_writer_matches_its_definition(obj):
    assert dumps_report(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    {1: "int", "1": "str"},
    {"1": "str", 1: "int"},
    {True: 1, "True": 2, None: 3, "None": 4},
    [[], {}, (), [[]], {"a": {}}],
    {"x": [1.0, -0.0, 5e-324, 1e16, np.float64(0.1 + 0.2), 2 ** 64, True, None, "\x00é"]},
    [], {}, "", 0, -0.0, None,
])
def test_writer_matches_its_definition_on_edge_cases(obj):
    assert dumps_report(obj) == oracle(obj)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: {"a": [{"b": (v,)}]}])
def test_writer_and_definition_refuse_non_finite(value, wrap):
    for dumps in (dumps_report, oracle):
        with pytest.raises(ValueError, match="JSON compliant"):
            dumps(wrap(value))


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(1), np.arange(2), b"x"])
def test_writer_and_definition_refuse_other_types(value):
    for dumps in (dumps_report, oracle):
        with pytest.raises(TypeError, match="not JSON serializable"):
            dumps({"a": [value]})
