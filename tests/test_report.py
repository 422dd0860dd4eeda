"""Report serialization: non-finite floats never reach a JSON file, and the
one-pass writer, with its row template and string join, gives the bytes of
its definition, and matches every scalar by its exact type."""

import enum
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


# -- long lists of one shape: the row template and the string join ---------------

scalars = st.one_of(
    st.text(max_size=6), st.sampled_from(EDGE_STRINGS),
    st.integers(), st.integers(min_value=2 ** 63 - 2, max_value=2 ** 66),
    st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
# "%" would break a printf template that was not escaped
row_keys = st.lists(st.one_of(st.text(max_size=3),
                              st.sampled_from(["0", "1", "True", "None", "%s", "%", "é"])),
                    min_size=1, max_size=5, unique=True)
# keys that turn into the same strings as "0", "1", "True" and "None"
colliding_keys = st.sampled_from([0, 1, True, False, None])


@st.composite
def uniform_rows(draw):
    """A list of dicts with one set of str keys and plain scalar values,
    sometimes with one row that breaks the shape: a key dropped, added or
    colliding, or a nested value; or a list of plain strings."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.lists(st.one_of(st.text(), st.sampled_from(EDGE_STRINGS)),
                             min_size=1, max_size=30))
    keys = draw(row_keys)
    rows = [{k: draw(scalars) for k in keys} for _ in range(draw(st.integers(1, 30)))]
    row = rows[draw(st.integers(0, len(rows) - 1))]
    change = draw(st.sampled_from(["none", "drop", "add", "collide", "nest", "tuple"]))
    if change == "drop":
        del row[keys[-1]]
    elif change == "add":
        row[draw(st.text(max_size=3))] = draw(scalars)
    elif change == "collide":
        row[draw(colliding_keys)] = draw(scalars)
    elif change == "nest":
        row[keys[0]] = [draw(scalars), {keys[0]: draw(scalars)}]
    elif change == "tuple":
        rows[rows.index(row)] = tuple(row.values())
    return rows


def raised(dumps, obj):
    try:
        dumps(obj)
    except (ValueError, TypeError) as err:
        return type(err)
    return None


class TestUniformRows:
    @settings(max_examples=300, deadline=None)
    @given(uniform_rows(), st.booleans())
    def test_matches_the_definition(self, rows, nested):
        obj = {"a": [1, {"rows": rows}]} if nested else rows
        assert dumps_report(obj) == oracle(obj)

    @settings(max_examples=200, deadline=None)
    @given(row_keys, st.integers(1, 12), st.data(),
           st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan"),
                            np.int64(1), object()]))
    def test_one_bad_value_raises_what_the_definition_raises(self, keys, count, data, bad):
        rows = [{k: data.draw(scalars) for k in keys} for _ in range(count)]
        rows[data.draw(st.integers(0, count - 1))][data.draw(st.sampled_from(keys))] = bad
        assert raised(dumps_report, rows) is raised(oracle, rows) is not None

    def test_first_bad_value_in_document_order_wins(self):
        # a TypeError value in row 0, column "b", and a NaN in row 1, column "a":
        # row by row, the TypeError comes first
        rows = [{"a": 1.0, "b": object()}, {"a": math.nan, "b": 2}]
        for dumps in (dumps_report, oracle):
            with pytest.raises(TypeError, match="not JSON serializable"):
                dumps(rows)

    @pytest.mark.parametrize("rows", [
        [{"%s": 1, "%": "%d", "a%%b": None}, {"%s": 2, "%": "%", "a%%b": True}],
        [{"x": True}, {"x": 1}, {"x": 1.0}, {"x": None}, {"x": np.float64(-0.0)}],
        [{"1": "str"}, {1: "int"}, {"1": "str", 1: "int"}, {True: "bool", "True": "str"}],
        [{"a": 1}, {}, {"a": [1, {"a": 2}]}, ("a", 1), {"a": 2}],
        [{}, {"a": 1}],
        ["", "é", "\x00", "\U0001f600"], ["a", 1], [1, "a"], ("a", "b"),
    ])
    def test_edge_cases_match_the_definition(self, rows):
        assert dumps_report(rows) == oracle(rows)


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


# -- scalars by exact type --------------------------------------------------------


class Level(enum.IntEnum):
    ONE = 1


class Label(str):
    pass


class Hertz(float):
    pass


def in_place(value, place):
    """``value`` bare, in the second row of a list of dicts whose first row
    builds the row template, or inside a list of strings."""
    return {"bare": value,
            "row": [{"a": 1, "b": "x"}, {"a": value, "b": "y"}],
            "strings": ["x", value, "y"]}[place]


PLACES = ["bare", "row", "strings"]


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("value", [Level.ONE, Label("a"), Hertz(1.5)],
                         ids=["IntEnum", "str-subclass", "float-subclass"])
def test_scalar_subclass_refused(value, place):
    # json.dumps would write these as 1, "a" and 1.5; the report has no such scalar
    with pytest.raises(TypeError, match=f"Object of type {type(value).__name__} "
                                        "is not JSON serializable"):
        dumps_report(in_place(value, place))


@pytest.mark.parametrize("place", PLACES)
@pytest.mark.parametrize("value, text", [(np.float64(0.1 + 0.2), "0.3"), (True, "true"),
                                         (False, "false"), (None, "null")])
def test_exact_scalars_keep_their_text(value, text, place):
    obj = in_place(value, place)
    assert dumps_report(obj) == oracle(obj)
    if place == "bare":
        assert dumps_report(obj) == text + "\n"
