"""Parser, canonical printer, and result encoding."""

import itertools
import json
import string
import types

import pytest
from hypothesis import given, settings, strategies as st

from liftprop import (
    CODIAG,
    EMPTY,
    EMPTY_TO_PT,
    INDISC,
    PT,
    SIERP,
    TWO,
    VEE,
    MonotoneMap,
    ParseError,
    ValidationError,
    build_space,
    elaborate,
    encode_result,
    enumerate_preorders,
    hom_enumerate,
    lifting_check,
    parse,
    print_map,
    print_query,
    print_result,
    print_space,
)
from liftprop.notation import (
    CheckQuery,
    CountsOutcome,
    EnumerateQuery,
    EpiQuery,
    HomQuery,
    LiftOutcome,
    LiftQuery,
    MapDecl,
    MapListOutcome,
    MonoQuery,
    OrthogonalQuery,
    _brace,
    _map_rows,
    _space_items,
    _tokenize,
    result_lines,
)


def test_parse_minimal_program():
    program = parse(
        "space S = { a < b }\n"
        "map f : S -> PT = { a |-> pt, b |-> pt }\n"
        "lift f |> f\n"
    )
    assert len(program.declarations) == 2
    assert program.queries == (LiftQuery("f", "f"),)


def test_parse_space_items():
    program = parse("space S = { a, b < c, d <> e }")
    decl = program.declarations[0]
    assert decl.labels == ("a", "b", "c", "d", "e")
    assert decl.generators == (("b", "c"), ("d", "e"), ("e", "d"))


def test_parse_empty_space_and_empty_assignment():
    env = elaborate(parse("space S = { }\nmap f : S -> PT = { }"))
    assert env.spaces["S"] == EMPTY
    assert env.maps["f"].assign == ()


def test_comments_and_spacing_are_insignificant():
    program = parse("# header\nspace S={a<b}  # trailing\n\n\ncheck T0 S")
    assert program.declarations[0].labels == ("a", "b")
    assert program.queries == (CheckQuery("T0", "S"),)


def test_names_may_contain_digits_and_underscores():
    env = elaborate(parse("space S_1 = { x0, _y }"))
    assert env.spaces["S_1"].labels == ("x0", "_y")


def test_two_way_generator_matches_indiscrete_pair():
    one = elaborate(parse("space X = { a < b, b < a }")).spaces["X"]
    two = elaborate(parse("space X = { a <> b }")).spaces["X"]
    assert one == two
    assert one.leq == INDISC.leq


def test_parse_all_query_kinds():
    program = parse(
        "lift CODIAG |> SIERP_TO_PT\n"
        "check pi0-injective CODIAG\n"
        "check hausdorff VEE\n"
        "orthogonal left [] size 2\n"
        "orthogonal right [EMPTY_TO_PT, CODIAG] size 3\n"
        "mono PT_TO_SIERP_CLOSED size 2\n"
        "epi CODIAG size 2\n"
        "hom SIERP PT\n"
        "enumerate 4\n"
    )
    assert program.queries == (
        LiftQuery("CODIAG", "SIERP_TO_PT"),
        CheckQuery("pi0-injective", "CODIAG"),
        CheckQuery("hausdorff", "VEE"),
        OrthogonalQuery("left", (), 2),
        OrthogonalQuery("right", ("EMPTY_TO_PT", "CODIAG"), 3),
        MonoQuery("PT_TO_SIERP_CLOSED", 2),
        EpiQuery("CODIAG", 2),
        HomQuery("SIERP", "PT"),
        EnumerateQuery(4),
    )


def expect_error(text, fragment, line, col):
    with pytest.raises(ParseError) as info:
        parse(text)
    err = info.value
    assert fragment in err.message
    assert (err.line, err.col) == (line, col)


def test_lexical_error_location():
    expect_error("space S = { a ? b }", "unexpected character", 1, 15)
    expect_error("lift f | g", "unexpected character", 1, 8)


def test_unknown_name_errors():
    expect_error("lift NOPE |> CODIAG", "unknown map", 1, 6)
    expect_error("hom NOPE PT", "unknown space", 1, 5)
    expect_error("map f : S -> PT = { }", "unknown space", 1, 9)


def test_declaration_name_errors():
    expect_error("space size = { a }", "keyword", 1, 7)
    expect_error("space PT = { a }", "built-in", 1, 7)
    expect_error("map CODIAG : PT -> PT = { pt |-> pt }", "built-in", 1, 5)
    expect_error("space S = { a }\nspace S = { b }", "already declared", 2, 7)
    expect_error(
        "map f : PT -> PT = { pt |-> pt }\nmap f : PT -> PT = { pt |-> pt }",
        "map 'f' already declared", 2, 5,
    )


def test_map_assignment_errors():
    expect_error(
        "space S = { a, b }\nmap f : S -> PT = { a |-> pt }", "not total", 2, 19
    )
    expect_error(
        "space S = { a }\nmap f : S -> PT = { a |-> pt, a |-> pt }", "duplicate assignment", 2, 31
    )
    expect_error(
        "space S = { a }\nmap f : S -> PT = { z |-> pt }", "unknown label 'z'", 2, 21
    )
    expect_error(
        "space S = { a }\nmap f : S -> PT = { a |-> zz }", "unknown label 'zz'", 2, 27
    )


def test_property_errors():
    expect_error("check bogus SIERP", "unknown property", 1, 7)
    expect_error("check pi0-surjective CODIAG", "unknown property", 1, 7)
    expect_error("check T0 CODIAG", "unknown space", 1, 10)
    expect_error("check dense SIERP", "unknown map", 1, 13)


def test_size_errors():
    expect_error("enumerate 6", "hard cap", 1, 11)
    expect_error("mono CODIAG size x", "expected a number", 1, 18)
    expect_error("orthogonal up [] size 2", "'left' or 'right'", 1, 12)


def test_orthogonal_is_capped_below_the_other_sized_statements():
    expect_error("orthogonal left [] size 5", "exceeds the orthogonal cap 4", 1, 25)
    expect_error("orthogonal right [CODIAG] size 6", "10,906,368,176", 1, 32)
    expect_error("mono CODIAG size 6", "size 6 exceeds the hard cap 5", 1, 18)
    assert parse("orthogonal left [] size 4").queries == (OrthogonalQuery("left", (), 4),)
    assert parse("mono CODIAG size 5\nepi CODIAG size 5\nenumerate 5").queries == (
        MonoQuery("CODIAG", 5), EpiQuery("CODIAG", 5), EnumerateQuery(5),
    )


def test_size_longer_than_int_converts_is_a_located_refusal():
    huge = "9" * 5000
    expect_error(f"enumerate {huge}", f"size {huge} exceeds the hard cap 5", 1, 11)
    expect_error(f"orthogonal left [] size 0{huge}", f"size {huge} exceeds the orthogonal cap 4", 1, 25)
    expect_error("enumerate 0006", "size 6 exceeds the hard cap 5", 1, 11)
    assert parse("enumerate 0005\nmono CODIAG size 00").queries == (
        EnumerateQuery(5), MonoQuery("CODIAG", 0),
    )


def tokens(text):
    return [(t.kind, t.text, t.line, t.col) for t in _tokenize(text)]


def test_every_token_kind_with_its_location():
    assert tokens("x_1 |-> |> -> <>\n{ } [ ] , : = < -") == [
        ("NAME", "x_1", 1, 1),
        ("MAPSTO", "|->", 1, 5),
        ("LIFT", "|>", 1, 9),
        ("ARROW", "->", 1, 12),
        ("LTGT", "<>", 1, 15),
        ("LBRACE", "{", 2, 1),
        ("RBRACE", "}", 2, 3),
        ("LBRACKET", "[", 2, 5),
        ("RBRACKET", "]", 2, 7),
        ("COMMA", ",", 2, 9),
        ("COLON", ":", 2, 11),
        ("EQUALS", "=", 2, 13),
        ("LT", "<", 2, 15),
        ("MINUS", "-", 2, 17),
        ("EOF", "end of input", 2, 18),
    ]


def test_longer_spellings_win_without_blanks():
    assert [kind for kind, *_ in tokens("a<>b<c|->d|>e-->f")] == [
        "NAME", "LTGT", "NAME", "LT", "NAME", "MAPSTO", "NAME", "LIFT", "NAME",
        "MINUS", "ARROW", "NAME", "EOF",
    ]


def test_tab_and_carriage_return_are_one_column_each():
    assert tokens("\ta\r\tb\r\nc") == [
        ("NAME", "a", 1, 2),
        ("NAME", "b", 1, 5),
        ("NAME", "c", 2, 1),
        ("EOF", "end of input", 2, 2),
    ]


def test_comment_runs_to_end_of_line():
    assert tokens("a # b { ? \u00e9\nc") == [
        ("NAME", "a", 1, 1),
        ("NAME", "c", 2, 1),
        ("EOF", "end of input", 2, 2),
    ]


def test_end_of_input_after_a_trailing_comment_stays_at_the_hash():
    assert tokens("a  # note # more")[-1] == ("EOF", "end of input", 1, 4)
    assert tokens("a\n\t# note")[-1] == ("EOF", "end of input", 2, 2)
    assert tokens("a # note\n")[-1] == ("EOF", "end of input", 2, 1)
    expect_error("lift CODIAG |> # the right map is missing", "found 'end of input'", 1, 16)


def test_non_ascii_characters_are_refused_where_they_stand():
    expect_error("space S = { \u00e9 }", "unexpected character '\u00e9'", 1, 13)
    expect_error("\n  enumerate \u0663", "unexpected character '\u0663'", 2, 13)
    expect_error("space S = {\u00a0}", "unexpected character '\\xa0'", 1, 12)


def test_statement_error_lists_the_keywords_in_order():
    expect_error(
        "space S = { }\nsize 3",
        "expected one of space, map, lift, check, orthogonal, mono, epi, hom, enumerate; "
        "found 'size'",
        2, 1,
    )
    expect_error("{ }", "expected a statement, found '{'", 1, 1)


def test_monotonicity_is_a_validation_error_not_a_parse_error():
    text = "space S = { a < b }\nmap f : S -> SIERP = { a |-> s, b |-> b }"
    program = parse(text)
    with pytest.raises(ValidationError) as info:
        elaborate(program)
    assert "not monotone" in info.value.message
    assert (info.value.line, info.value.col) == (2, 1)


def test_located_monotonicity_error_names_the_map_keyword():
    text = (
        "space S = { a < b }\n"
        "map ok : S -> PT = { a |-> pt, b |-> pt }\n"
        "\t  map   bad : S -> SIERP = { a |-> s,\n b |-> b }\n"
    )
    with pytest.raises(ValidationError) as info:
        elaborate(parse(text))
    assert (info.value.line, info.value.col) == (3, 4)
    assert str(info.value) == "3:4: map 'bad' is not monotone: a <= b but s !<= b"


def test_map_declarations_carry_the_position_of_their_keyword():
    program = parse(
        "space S = { a }\n"
        "map f : S -> PT = { a |-> pt }\n"
        "  # a comment\n"
        "   map g : S -> S = { a |-> a } map h : PT -> S = { pt |-> a }\n"
    )
    maps = program.declarations[1:]
    assert [(d.name, d.line, d.col) for d in maps] == [("f", 2, 1), ("g", 4, 4), ("h", 4, 33)]
    assert maps[0] == MapDecl("f", "S", "PT", (("a", "pt"),), 2, 1)
    assert not hasattr(program.declarations[0], "line")
    assert not any(hasattr(q, "line") for q in parse("lift CODIAG |> CODIAG\nenumerate 2").queries)


def test_space_round_trip_is_exact_up_to_size_3():
    for space in enumerate_preorders(3):
        text = print_space(space, "S")
        env = elaborate(parse(text))
        assert env.spaces["S"] == space
        assert print_space(env.spaces["S"], "S") == text


@st.composite
def labeled_preorders(draw, min_size=4, max_size=10):
    """A preorder with arbitrary legal labels: the closure of random pairs."""
    n = draw(st.integers(min_size, max_size))
    label = st.text(string.ascii_letters + string.digits + "_", min_size=1, max_size=3)
    labels = draw(st.lists(label, min_size=n, max_size=n, unique=True))
    pair = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    return build_space(labels, draw(st.lists(pair, max_size=2 * n)))


@settings(max_examples=60, deadline=None)
@given(space=labeled_preorders())
def test_space_round_trip_is_exact_on_random_larger_spaces(space):
    text = print_space(space, "S")
    env = elaborate(parse(text))
    assert env.spaces["S"] == space
    assert print_space(env.spaces["S"], "S") == text


def test_print_space_is_presentation_insensitive():
    redundant = elaborate(parse("space S = { a < b, b < c, a < c }")).spaces["S"]
    minimal = elaborate(parse("space S = { a < b, b < c }")).spaces["S"]
    assert print_space(redundant) == print_space(minimal)
    loops = elaborate(parse("space S = { x < y, y < x }")).spaces["S"]
    chained = elaborate(parse("space S = { x <> y }")).spaces["S"]
    assert print_space(loops) == print_space(chained) == "space S = { x, y, x <> y }"


def test_print_space_known_forms():
    assert print_space(SIERP) == "space S = { b, s, b < s }"
    assert print_space(VEE) == "space S = { l, m, r, m < l, m < r }"
    assert print_space(EMPTY) == "space S = { }"
    assert print_space(PT, "P") == "space P = { pt }"


def test_map_round_trip_with_declared_spaces():
    f = MonotoneMap(VEE, SIERP, (1, 0, 1))
    env = elaborate(parse(print_map(f, "f")))
    assert env.maps["f"] == f


def test_map_round_trip_uses_builtin_names():
    text = print_map(CODIAG, "g")
    assert text == "map g : TWO -> PT = { p |-> pt, q |-> pt }"
    assert elaborate(parse(text)).maps["g"] == CODIAG


def test_map_round_trip_with_shared_endpoint():
    f = MonotoneMap(*_chain_pair())
    env = elaborate(parse(print_map(f, "f")))
    assert env.maps["f"] == f


def _chain_pair():
    chain = elaborate(parse("space C = { a < b }")).spaces["C"]
    return chain, chain, (0, 0)


def test_map_round_trip_everywhere_small():
    for p in enumerate_preorders(2):
        for q in enumerate_preorders(2):
            for f in hom_enumerate(p, q):
                assert elaborate(parse(print_map(f, "f"))).maps["f"] == f


def test_query_round_trip_all_kinds():
    texts = [
        "lift CODIAG |> SIERP_TO_PT",
        "check pi0-injective CODIAG",
        "check hausdorff VEE",
        "orthogonal left [] size 2",
        "orthogonal right [EMPTY_TO_PT, CODIAG] size 3",
        "mono PT_TO_SIERP_CLOSED size 2",
        "epi CODIAG size 2",
        "hom SIERP PT",
        "enumerate 4",
    ]
    for text in texts:
        query = parse(text).queries[0]
        assert print_query(query) == text
        assert parse(print_query(query)).queries[0] == query


def test_printers_refuse_what_is_not_a_node():
    """A query printer refuses an outcome, an outcome printer a query's stand-in."""
    outcome = CountsOutcome("enumerate 0", (1,))
    with pytest.raises(ValueError, match=r"^not a query node: CountsOutcome\("):
        print_query(outcome)
    stand_in = types.SimpleNamespace(query="enumerate 0")
    for render in (lambda x: list(result_lines(x)), encode_result):
        with pytest.raises(ValueError, match=r"^not an outcome: namespace\(query='enumerate 0'\)$"):
            render(stand_in)


def test_print_result_shapes():
    holding = LiftOutcome("lift EMPTY_TO_PT |> CODIAG", lifting_check(EMPTY_TO_PT, CODIAG))
    assert print_result(holding) == "lift EMPTY_TO_PT |> CODIAG\n  HOLDS"
    failing = LiftOutcome("lift CODIAG |> CODIAG", lifting_check(CODIAG, CODIAG))
    text = print_result(failing)
    assert "FAILS" in text
    assert "top:    { p |-> p, q |-> q }" in text
    assert "bottom: { pt |-> pt }" in text


def test_print_result_lists_and_counts():
    listing = MapListOutcome("hom SIERP PT", (MonotoneMap(SIERP, PT, (0, 0)),))
    text = print_result(listing)
    assert "count 1" in text
    assert "{ b, s, b < s } -> { pt } = { b |-> pt, s |-> pt }" in text
    counting = CountsOutcome("enumerate 2", (1, 1, 4))
    assert print_result(counting).splitlines() == [
        "enumerate 2",
        "  size 0: 1",
        "  size 1: 1",
        "  size 2: 4",
        "  total 6",
    ]


def test_encode_failing_self_lift_of_point_inclusion():
    outcome = LiftOutcome(
        "lift EMPTY_TO_PT |> EMPTY_TO_PT", lifting_check(EMPTY_TO_PT, EMPTY_TO_PT)
    )
    assert encode_result(outcome) == {
        "format": 1,
        "query": "lift EMPTY_TO_PT |> EMPTY_TO_PT",
        "holds": False,
        "counterexample": {"top": [], "bottom": [["pt", "pt"]]},
    }


def test_encode_holding_lift_has_null_counterexample():
    outcome = LiftOutcome("lift EMPTY_TO_PT |> CODIAG", lifting_check(EMPTY_TO_PT, CODIAG))
    record = encode_result(outcome)
    assert record["holds"] is True
    assert record["counterexample"] is None
    assert record["format"] == 1


def test_encoded_records_serialize_stably():
    outcome = LiftOutcome("lift CODIAG |> CODIAG", lifting_check(CODIAG, CODIAG))
    first = json.dumps(encode_result(outcome), sort_keys=True)
    second = json.dumps(encode_result(outcome), sort_keys=True)
    assert first == second
    assert first.startswith('{"counterexample"')


def test_encode_map_list_and_counts():
    listing = MapListOutcome("hom INDISC PT", (MonotoneMap(INDISC, PT, (0, 0)),))
    record = encode_result(listing)
    assert record["count"] == 1
    assert record["maps"][0] == {
        "source": "{ x, y, x <> y }",
        "target": "{ pt }",
        "assign": [["x", "pt"], ["y", "pt"]],
    }
    counts = encode_result(CountsOutcome("enumerate 3", (1, 1, 4, 29)))
    assert counts == {
        "format": 1,
        "query": "enumerate 3",
        "counts": [1, 1, 4, 29],
        "total": 35,
    }


def pairwise_space_items(space):
    """Brace items by the plain definition: every pair, every middle point."""
    n = len(space)
    comp_of = [
        min(y for y in range(n) if space.leq[x][y] and space.leq[y][x]) for x in range(n)
    ]
    items = list(space.labels)
    reps = sorted(set(comp_of))
    for rep in reps:
        members = [x for x in range(n) if comp_of[x] == rep]
        for a, b in zip(members, members[1:]):
            items.append(f"{space.labels[a]} <> {space.labels[b]}")
    for a in reps:
        for b in reps:
            if a == b or not space.leq[a][b]:
                continue
            if any(c != a and c != b and space.leq[a][c] and space.leq[c][b] for c in reps):
                continue
            items.append(f"{space.labels[a]} < {space.labels[b]}")
    return items


def test_space_items_match_pairwise_definition_on_all_small_spaces():
    for space in enumerate_preorders(4):
        assert _space_items(space) == pairwise_space_items(space)


def per_map_print(outcome):
    """The listing text as each map alone formats it: the pre-table formula."""

    def brace(space):
        return _brace(pairwise_space_items(space))

    return "\n".join(
        [outcome.query, f"  count {len(outcome.maps)}"]
        + [
            f"  {brace(f.source)} -> {brace(f.target)} = "
            + _brace([f"{a} |-> {b}" for a, b in f.assignment_by_label()])
            for f in outcome.maps
        ]
    )


def per_map_record(outcome):
    """The listing record as each map alone encodes it: the pre-table formula."""
    return {
        "format": 1,
        "query": outcome.query,
        "count": len(outcome.maps),
        "maps": [
            {
                "source": _brace(pairwise_space_items(f.source)),
                "target": _brace(pairwise_space_items(f.target)),
                "assign": [[a, b] for a, b in f.assignment_by_label()],
            }
            for f in outcome.maps
        ],
    }


def assert_renders_as_per_map(outcome):
    assert print_result(outcome) == per_map_print(outcome)
    assert json.dumps(encode_result(outcome), sort_keys=True) == json.dumps(
        per_map_record(outcome), sort_keys=True
    )


SIERP_COPY = build_space(["b", "s"], [("b", "s")])
SIERP_RELABELED = build_space(["u", "v"], [("u", "v")])
# The labels of SIERP with the order reversed: same cell tables, other braces.
CHAIN_DOWN = build_space(["b", "s"], [("s", "b")])


def test_map_list_output_matches_per_map_printing():
    assert SIERP_COPY == SIERP and SIERP_COPY is not SIERP
    maps = (
        MonotoneMap(SIERP, SIERP_COPY, (0, 1)),
        MonotoneMap(SIERP_COPY, SIERP, (1, 1)),
        MonotoneMap(SIERP, SIERP_RELABELED, (0, 1)),
        MonotoneMap(SIERP_RELABELED, CHAIN_DOWN, (1, 1)),
        MonotoneMap(TWO, CHAIN_DOWN, (1, 0)),
        MonotoneMap(CHAIN_DOWN, TWO, (0, 0)),
        MonotoneMap(SIERP, SIERP_COPY, (0, 0)),
    )
    outcome = MapListOutcome("hom X Y", maps)
    assert print_result(outcome) == per_map_print(outcome)
    assert encode_result(outcome)["maps"] == per_map_record(outcome)["maps"]


def every_map_interleaved(spaces):
    """Every map between the spaces, one map per (source, target) pair in turn."""
    homs = [hom_enumerate(p, q) for p in spaces for q in spaces]
    return tuple(
        f for row in itertools.zip_longest(*homs) for f in row if f is not None
    )


@pytest.mark.parametrize(
    "maps",
    [
        pytest.param((), id="empty"),
        pytest.param(
            (
                MonotoneMap(EMPTY, PT, ()),
                MonotoneMap(EMPTY, SIERP, ()),
                MonotoneMap(EMPTY, EMPTY, ()),
                MonotoneMap(EMPTY, PT, ()),
            ),
            id="out-of-empty",
        ),
        pytest.param(
            (
                MonotoneMap(SIERP, TWO, (0, 0)),
                MonotoneMap(SIERP, TWO, (1, 1)),
                MonotoneMap(TWO, SIERP, (1, 0)),
                MonotoneMap(SIERP, TWO, (0, 0)),
                MonotoneMap(SIERP, TWO, (1, 1)),
            ),
            id="pair-returns-after-another",
        ),
        pytest.param(
            (
                MonotoneMap(SIERP, SIERP, (0, 1)),
                MonotoneMap(CHAIN_DOWN, CHAIN_DOWN, (0, 1)),
                MonotoneMap(SIERP, CHAIN_DOWN, (1, 1)),
                MonotoneMap(CHAIN_DOWN, SIERP, (0, 0)),
                MonotoneMap(SIERP, SIERP, (1, 1)),
                MonotoneMap(CHAIN_DOWN, CHAIN_DOWN, (1, 1)),
            ),
            id="equal-labels-other-relations",
        ),
        pytest.param(
            every_map_interleaved(
                enumerate_preorders(2) + [SIERP_COPY, SIERP_RELABELED, CHAIN_DOWN]
            ),
            id="every-map-up-to-2-points",
        ),
    ],
)
def test_map_list_rendering_matches_the_per_map_formula(maps):
    assert_renders_as_per_map(MapListOutcome("hom X Y", maps))


def test_each_distinct_row_is_rendered_once_per_listing():
    """Spaces with equal labels share rows: e0 -> e1 maps between the four
    two-point spaces, and the b, s spaces."""
    maps = every_map_interleaved(
        enumerate_preorders(2) + [SIERP_COPY, SIERP_RELABELED, CHAIN_DOWN]
    )
    distinct = {(f.source.labels, f.target.labels, f.assign) for f in maps}
    assert len(distinct) < len(maps)
    for cell, render in [("{} |-> {}".format, _brace), (lambda a, b: [a, b], list)]:
        rendered = []

        def counting_render(cells):
            rendered.append(cells)
            return render(cells)

        rows = [row for _, _, row in _map_rows(maps, cell, counting_render)]
        assert len(rows) == len(maps) and len(rendered) == len(distinct)
    assert_renders_as_per_map(MapListOutcome("hom X Y", maps))


def test_encoded_listing_shares_one_pair_list_per_cell():
    outcome = MapListOutcome(
        "hom SIERP TWO",
        (
            MonotoneMap(SIERP, TWO, (0, 0)),
            MonotoneMap(TWO, SIERP, (0, 1)),
            MonotoneMap(SIERP, TWO, (0, 0)),
        ),
    )
    first, _, third = encode_result(outcome)["maps"]
    assert first["assign"] == third["assign"] == [["b", "p"], ["s", "p"]]
    assert all(a is b for a, b in zip(first["assign"], third["assign"]))
    assert first["assign"] is third["assign"]
