import json

import pytest

import oracles
from conftest import cone
from triposet import (
    DuplicateLabelError,
    PosetSyntaxError,
    UnknownLabelError,
    build_poset,
    enumerate_posets,
    export_hasse_dot,
    load_poset,
    nucleus_from_jsonable,
    serialize,
    subset_from_jsonable,
    subset_to_nucleus,
    subset_to_topology,
    topology_from_jsonable,
    validate_nucleus,
    validate_topology,
)


def poset_text(poset):
    """``poset v1`` text listing the labels and one ``rel`` line per cover."""
    lines = ["poset v1", " ".join(("elements", *poset.labels))]
    lines += [f"rel {poset.labels[p]}<{poset.labels[q]}" for p, q in poset.covers()]
    return "\n".join(lines) + "\n"


class TestParse:
    def test_two_chain(self):
        poset = load_poset("poset v1\nelements a b\nrel a<b\n")
        assert poset.labels == ("a", "b")
        assert poset.covers() == ((0, 1),)

    def test_singleton(self):
        poset = load_poset("poset v1\nelements a\n")
        assert poset.labels == ("a",)
        assert poset.covers() == ()

    def test_tab_after_directive(self, chain2):
        assert load_poset("poset v1\nelements\ta b\nrel\ta<b\n") == chain2

    def test_unknown_endpoint_with_line_number(self):
        with pytest.raises(UnknownLabelError) as exc:
            load_poset("poset v1\nelements a b\nrel a<c\n")
        assert exc.value.label == "c"
        assert exc.value.line == 3

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading note\n\nposet v1\n\nelements a b  # the carrier\nrel a<b # covers\n"
        poset = load_poset(text)
        assert poset.labels == ("a", "b")
        assert poset.covers() == ((0, 1),)

    def test_missing_header(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("elements a b\n")
        assert exc.value.line == 1

    def test_empty_input_reports_missing_header(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("")
        assert exc.value.line == 1

    def test_missing_elements_line(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("poset v1\n")
        assert exc.value.line == 2

    def test_second_elements_line(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("poset v1\nelements a\nelements b\n")
        assert exc.value.line == 3

    def test_relation_before_elements(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("poset v1\nrel a<b\nelements a b\n")
        assert exc.value.line == 2

    def test_bad_label(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("poset v1\nelements a b<c\n")
        assert exc.value.line == 2

    def test_self_relation_rejected(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("poset v1\nelements a\nrel a<a\n")
        assert exc.value.line == 3

    def test_malformed_relation(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("poset v1\nelements a b\nrel a b\n")
        assert exc.value.line == 3

    def test_unknown_directive(self):
        with pytest.raises(PosetSyntaxError) as exc:
            load_poset("poset v1\nelements a\nedge a a\n")
        assert exc.value.line == 3

    def test_duplicate_label_with_line_number(self):
        with pytest.raises(DuplicateLabelError) as exc:
            load_poset("poset v1\nelements a a\n")
        assert exc.value.line == 2

    def test_empty_elements_line_is_the_empty_poset(self):
        poset = load_poset("poset v1\nelements\n")
        assert poset.labels == ()
        assert poset.n == 0

    def test_load_applies_closure(self):
        poset = load_poset("poset v1\nelements a b c\nrel a<b\nrel b<c\n")
        assert poset.leq(poset.index("a"), poset.index("c"))

    def test_covers_text_round_trip(self, small_posets):
        for poset in small_posets:
            assert load_poset(poset_text(poset)) == poset


class TestSerialize:
    def test_subset_text(self, chain2):
        assert serialize(chain2.subset("b")) == '["b"]'

    def test_identity_nucleus_on_singleton(self, singleton):
        j = validate_nucleus(singleton, {d: d for d in singleton.downsets()})
        assert serialize(j) == '[[[],[]],[["a"],["a"]]]'

    def test_smallest_topology_on_singleton(self, singleton):
        J = validate_topology(singleton, [[cone(singleton, 0)]])
        assert serialize(J) == '{"a":[["a"]]}'

    def test_label_arrays_are_sorted(self, vee):
        assert serialize(vee.subset(["c", "a"])) == '["a","c"]'

    def test_unsupported_value_rejected(self):
        with pytest.raises(TypeError):
            serialize(object())

    def test_injective_on_subsets(self, diamond):
        texts = {serialize(s) for s in diamond.subsets()}
        assert len(texts) == len(diamond.subsets())

    def test_injective_on_nuclei_and_topologies(self, vee):
        nuclei = [subset_to_nucleus(x) for x in vee.subsets()]
        assert len({serialize(j) for j in nuclei}) == len(nuclei)
        tops = [subset_to_topology(x) for x in vee.subsets()]
        assert len({serialize(J) for J in tops}) == len(tops)


class TestFromJsonable:
    def test_subset_round_trip(self, vee):
        for s in vee.subsets():
            assert subset_from_jsonable(vee, json.loads(serialize(s))) == s

    def test_nucleus_round_trip(self, chain2):
        for x in chain2.subsets():
            j = subset_to_nucleus(x)
            assert nucleus_from_jsonable(chain2, json.loads(serialize(j))) == j

    def test_topology_round_trip(self, chain2):
        for x in chain2.subsets():
            J = subset_to_topology(x)
            assert topology_from_jsonable(chain2, json.loads(serialize(J))) == J

    def test_subset_shape_errors(self, chain2):
        with pytest.raises(ValueError):
            subset_from_jsonable(chain2, {"a": 1})
        with pytest.raises(ValueError):
            subset_from_jsonable(chain2, [1])
        with pytest.raises(ValueError):
            subset_from_jsonable(chain2, ["a", "a"])
        with pytest.raises(UnknownLabelError):
            subset_from_jsonable(chain2, ["z"])

    def test_nucleus_shape_errors(self, chain2):
        with pytest.raises(ValueError):
            nucleus_from_jsonable(chain2, {"not": "a list"})
        with pytest.raises(ValueError):
            nucleus_from_jsonable(chain2, [[["a"]]])
        # a key that is not downward closed
        with pytest.raises(ValueError, match=r"table key \{b\} is not a downset"):
            nucleus_from_jsonable(
                chain2, [[["b"], ["a", "b"]], [[], []], [["a"], ["a"]], [["a", "b"], ["a", "b"]]]
            )

    def test_topology_shape_errors(self, chain2):
        with pytest.raises(ValueError):
            topology_from_jsonable(chain2, [["a"]])
        with pytest.raises(ValueError):
            topology_from_jsonable(chain2, {"a": "x", "b": "y"})


class TestDot:
    def test_singleton(self, singleton):
        assert export_hasse_dot(singleton) == 'digraph hasse {\n  rankdir=BT;\n  "a";\n}\n'

    def test_closure_edge_reduced_away(self):
        poset = build_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
        dot = export_hasse_dot(poset)
        assert '"a" -> "b";' in dot
        assert '"b" -> "c";' in dot
        assert '"a" -> "c";' not in dot

    def test_antichain_has_no_edges(self, antichain2):
        assert "->" not in export_hasse_dot(antichain2)

    def test_quoting(self):
        poset = build_poset(['he"llo'])
        assert '"he\\"llo";' in export_hasse_dot(poset)

    def test_edges_equal_covering_relation_exhaustively(self):
        for n in range(5):
            for poset in enumerate_posets(n, cap=4):
                labels, le = oracles.order_pairs(poset)
                expected = oracles.covers_by_filter(labels, le)
                dot = export_hasse_dot(poset)
                got = set()
                for line in dot.splitlines():
                    if "->" in line:
                        lhs, _, rhs = line.strip().rstrip(";").partition(" -> ")
                        got.add((lhs.strip('"'), rhs.strip('"')))
                assert got == expected
