"""emit_json against json.dumps(indent=2, sort_keys=True), the oracle it
must match byte for byte, on plain payloads and on the indexed record
groups of the cluster payloads."""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schur_clusters.output import IndexedGroups, emit_json, variable_groups, variable_to_json


def oracle(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


SPECIAL_FLOATS = [0.0, -0.0, 1e16, -1e16, 1.5e-7, math.nan, math.inf, -math.inf]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    # Unrestricted text: non-ASCII, control characters and lone surrogates.
    st.text(),
)

int_lists = st.lists(st.one_of(st.integers(), st.booleans()))

values = st.recursive(
    st.one_of(scalars, int_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def payloads(draw):
    """A random payload in which one dict object occurs twice at one depth
    and once more at another, as shared cluster variable records do."""
    shared = draw(st.dictionaries(st.text(max_size=6), values, min_size=1, max_size=4))
    return {
        "same_depth": [shared, draw(values), shared],
        "deeper": {"list": [draw(values), shared]},
        "empty": [{}, [], ()],
        "rest": draw(values),
    }


# One dict object held at two places and at two depths.
SHARED = {"a": [1, {"b": "c"}]}


class TestEmitJson:
    @settings(max_examples=200, deadline=None)
    @given(payloads())
    @example({"same_depth": [{"a": [1, True, 2]}], "deeper": {"x": [{"a": [False]}]}})
    @example({"same_depth": [SHARED, SHARED], "deeper": {"x": [SHARED]}, "top": SHARED})
    def test_matches_json_dumps(self, payload):
        assert emit_json(payload) == oracle(payload)

    @settings(max_examples=200, deadline=None)
    @given(values)
    def test_matches_json_dumps_on_any_value(self, value):
        assert emit_json(value) == oracle(value)

    @pytest.mark.parametrize("x", SPECIAL_FLOATS)
    def test_special_floats(self, x):
        payload = {"x": x, "xs": [x, 1, x]}
        assert emit_json(payload) == oracle(payload)

    def test_bools_in_int_lists_stay_bools(self):
        assert emit_json([1, True, 0, False]) == "[\n  1,\n  true,\n  0,\n  false\n]\n"

    def test_non_ascii_and_control_strings(self):
        payload = {"é\x00": ["☃\n\t\x1f", "\ud800"]}
        assert emit_json(payload) == oracle(payload)

    def test_empty_containers(self):
        assert emit_json({}) == "{}\n"
        assert emit_json([]) == "[]\n"
        payload = {"a": {}, "b": [], "c": ()}
        assert emit_json(payload) == oracle(payload)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
    def test_non_str_key_raises(self, key):
        with pytest.raises(TypeError):
            emit_json({"ok": {key: 1}})


def _nest(value, depth: int):
    """``value`` held ``depth`` levels down, alternately in a dict and a list."""
    for k in range(depth):
        value = {"k": value} if k % 2 else [value, 0]
    return value


class TestIntTemplates:
    """The ``%d`` templates of int lists and rows of int lists."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    @pytest.mark.parametrize("length", [1, 2, 3, 8, 40])
    def test_int_lists(self, length, depth):
        ints = [(-7) ** k for k in range(length)]
        for payload in (ints, [ints, ints], [ints, [2**70, -1]], tuple(ints)):
            payload = _nest(payload, depth)
            assert emit_json(payload) == oracle(payload)

    @pytest.mark.parametrize("odd", [True, False, None, 1.0, "1"])
    def test_non_ints_in_int_lists(self, odd):
        for payload in ([1, odd, 3], [[1, 2], [odd, 3]], [[1, 2], (3, odd)], [odd]):
            assert emit_json(payload) == oracle(payload)
        assert emit_json([1, True]) == "[\n  1,\n  true\n]\n"

    def test_rows_of_another_length(self):
        for payload in (
            [[0, 1], [1, 2], [2, 3, 4]],
            [[0, 1], [1], [2, 3]],
            [[0, 1], [], [2, 3]],
            [(0, 1), [1, 2], "x"],
            [[0, 1], [1, 2], {"a": 1}],
        ):
            assert emit_json(payload) == oracle(payload)

    def test_empty_lists(self):
        for payload in ([[]], [[], []], [[], [1]], {"a": [[], ()]}, [[[]]]):
            assert emit_json(payload) == oracle(payload)

    def test_indexed_groups_with_empty_groups(self):
        records = [{"dim": [1, 0]}, {"dim": [0, 1]}]
        for groups in ((), ((),), ((), (0, 1), ()), ((1,), (), (0,))):
            lists = [[records[i] for i in g] for g in groups]
            for depth in (0, 1, 3):
                payload = _nest(IndexedGroups(records, groups), depth)
                assert emit_json(payload) == oracle(_nest(lists, depth))
        assert emit_json(IndexedGroups([], ((),))) == oracle([[]])


variable_lists = st.lists(
    st.one_of(
        st.lists(st.integers(0, 3), min_size=3, max_size=3)
        .filter(any)
        .map(tuple),
        st.sampled_from([(-1, 0, 0), (0, -1, 0), (0, 0, -1)]),
    ),
    max_size=6,
)


class TestVariableGroups:
    @settings(max_examples=200, deadline=None)
    @given(
        variable_lists.flatmap(
            lambda vs: st.tuples(
                st.just(vs),
                st.lists(
                    st.lists(st.integers(0, len(vs) - 1), max_size=4).map(tuple)
                    if vs
                    else st.just(()),
                    max_size=5,
                ),
            )
        )
    )
    def test_renders_as_the_record_lists(self, case):
        variables, groups = case
        lists = [[variable_to_json(variables[i]) for i in g] for g in groups]
        indexed = variable_groups(variables, tuple(groups))
        # At depth 0 and nested, as the cluster and poset payloads hold it.
        assert emit_json(indexed) == oracle(lists)
        payload = {"meta": {"count": len(groups)}, "clusters": indexed}
        assert emit_json(payload) == oracle({**payload, "clusters": lists})
