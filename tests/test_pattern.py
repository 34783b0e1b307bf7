import hashlib
import json
import random

import pytest
from helpers import (
    FIG1,
    FIG2A,
    INTEGRATOR,
    benchmark_pattern,
    lift_ensemble,
    sample_blocks_by_scan,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import swenctrl.pattern
from swenctrl.errors import ParseError, ScaleError
from swenctrl.pattern import (
    MAX_PATTERN_DIM,
    MAX_VALUE_BOUND,
    EnsembleInstance,
    SparsityPattern,
    parse_pattern,
    random_pattern,
    sample_instance,
    serialize_pattern,
)

FIG1_GRID = """5 2
0 * 0 0 0 * *
0 0 0 0 0 0 *
* 0 0 0 0 0 0
0 * * 0 0 0 0
0 0 * * 0 0 0
"""


def test_parse_grid_simple():
    p = parse_pattern("2 1\n0 * *\n* 0 0\n")
    assert p == SparsityPattern(2, 1, frozenset({(1, 2), (1, 3), (2, 1)}))


def test_parse_grid_fig1():
    assert parse_pattern(FIG1_GRID) == FIG1


def test_parse_grid_single_integrator():
    assert parse_pattern("1 1\n0 *\n") == INTEGRATOR


def test_parse_grid_comments_and_blanks():
    text = "# a comment\n\n2 1\n# rows follow\n0 0 *\n* 0 *\n"
    assert parse_pattern(text) == FIG2A


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("2\n0 0\n0 0\n", "header"),
        ("x y\n", "two integers"),
        ("2 1\n0 0 0\n", "expected 2 pattern rows, got 1"),
        ("2 1\n0 0\n0 0 0\n", "expected 3 tokens"),
        ("2 1\n0 0 0\n0 0 0\n0 0 0\n", "extra row"),
        ("2 1\n0 0 x\n0 0 0\n", "unknown token"),
        ("0 1\n", "n must be >= 1"),
        ("2 -1\n", "m must be >= 0"),
    ],
)
def test_parse_grid_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_pattern(text)


def test_parse_json():
    text = '{"n": 2, "m": 1, "stars": [[1, 3], [2, 3], [2, 1]]}'
    assert parse_pattern(text, "json") == FIG2A


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[1, 2]", "object"),
        ('{"n": 2, "m": 1}', "stars"),
        ('{"n": 0, "m": 1, "stars": []}', "n:"),
        ('{"n": 2, "m": 1, "stars": [[1, 9]]}', r"stars\[0\]: column index 9"),
        ('{"n": 2, "m": 1, "stars": [[0, 1]]}', r"stars\[0\]: row index 0"),
        ('{"n": 2, "m": 1, "stars": [[1]]}', r"stars\[0\]"),
        ("{not json", "invalid JSON"),
    ],
)
def test_parse_json_errors(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_pattern(text, "json")


def test_serialize_grid_inverse_of_parse():
    assert serialize_pattern(INTEGRATOR) == "1 1\n0 *\n"


def test_serialize_empty_pattern():
    p = SparsityPattern(2, 1, frozenset())
    assert serialize_pattern(p) == "2 1\n0 0 0\n0 0 0\n"


def test_serialize_fig1_matches_grid():
    assert serialize_pattern(FIG1) == FIG1_GRID


def test_grid_roundtrip_is_byte_identical():
    text = serialize_pattern(FIG1)
    assert serialize_pattern(parse_pattern(text)) == text


@pytest.mark.parametrize("seed", range(500))
def test_roundtrip_random_patterns(seed):
    import random

    rng = random.Random(seed)
    p = random_pattern(rng.randint(1, 8), rng.randint(0, 4), rng.random(), seed)
    for fmt in ("grid", "json"):
        assert parse_pattern(serialize_pattern(p, fmt), fmt) == p


def test_lift_identity_at_q1():
    for p in (FIG1, FIG2A, INTEGRATOR):
        assert lift_ensemble(p, 1) == p


def test_lift_fig2a_q2():
    lifted = lift_ensemble(FIG2A, 2)
    assert lifted.n == 4 and lifted.m == 1
    assert lifted.stars == frozenset({(1, 5), (2, 5), (2, 1), (3, 5), (4, 5), (4, 3)})


def test_lift_fig2a_q2_against_block_assembler():
    # Independent oracle: place the q=2 blocks into a dense boolean matrix.
    p, q = FIG2A, 2
    n, m = p.n, p.m
    dense = [[False] * (n * q + m) for _ in range(n * q)]
    for copy in range(q):
        for i, j in p.stars:
            if j <= n:
                dense[copy * n + i - 1][copy * n + j - 1] = True
            else:
                dense[copy * n + i - 1][n * q + (j - n) - 1] = True
    expected = frozenset(
        (i + 1, j + 1) for i in range(n * q) for j in range(n * q + m) if dense[i][j]
    )
    assert lift_ensemble(p, q).stars == expected


def test_lift_star_count_scales():
    for p in (FIG1, FIG2A):
        assert len(lift_ensemble(p, 3).stars) == 3 * len(p.stars)


def test_lift_rejects_bad_q():
    with pytest.raises(ValueError):
        lift_ensemble(FIG2A, 0)
    with pytest.raises(ScaleError):
        lift_ensemble(SparsityPattern(1 << 11, 0, frozenset()), 1 << 10)


def test_text_guards_run_before_parsing(monkeypatch):
    """A grid's star count and a JSON text's length are checked on the text
    before it is read: at the bound it parses, and one star (a comment's
    counts too) or one character more raises ScaleError, even where the
    text would not parse."""
    grid = serialize_pattern(FIG1, "grid")
    monkeypatch.setattr(swenctrl.pattern, "MAX_GRID_STARS", grid.count("*"))
    assert parse_pattern(grid) == FIG1
    for over in ("# *\n" + grid, grid + "*"):
        with pytest.raises(ScaleError, match=f"{len(FIG1.stars) + 1} stars in the grid text"):
            parse_pattern(over)
    text = serialize_pattern(FIG1, "json")
    monkeypatch.setattr(swenctrl.pattern, "MAX_JSON_CHARS", len(text))
    assert parse_pattern(text, "json") == FIG1
    for over in (text + " ", "[" * (len(text) + 1)):
        with pytest.raises(ScaleError, match=f"JSON text of {len(text) + 1} characters"):
            parse_pattern(over, "json")


def test_pattern_dimension_guard():
    assert SparsityPattern(MAX_PATTERN_DIM - 1, 1, frozenset()).n == MAX_PATTERN_DIM - 1
    with pytest.raises(ScaleError):
        SparsityPattern(MAX_PATTERN_DIM, 1, frozenset())
    with pytest.raises(ScaleError):
        parse_pattern(f'{{"n": 1, "m": {MAX_PATTERN_DIM}, "stars": []}}', "json")


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lift_digraph_is_q_copies(seed, q):
    import random

    rng = random.Random(seed)
    p = random_pattern(rng.randint(1, 4), rng.randint(0, 2), 0.5, seed)
    lifted = lift_ensemble(p, q)
    n = p.n
    expected_state = frozenset(
        (copy * n + i, copy * n + j) for i, j in p.stars if j <= n for copy in range(q)
    )
    expected_control = frozenset(
        (copy * n + i, n * q + j - n) for i, j in p.stars if j > n for copy in range(q)
    )
    assert lifted.stars == expected_state | expected_control
    assert lifted.n == n * q and lifted.m == p.m


def test_random_pattern_density_extremes():
    assert random_pattern(3, 2, 0, seed=1).stars == frozenset()
    assert len(random_pattern(3, 2, 1, seed=1).stars) == 3 * 5


def test_random_pattern_golden():
    # Frozen from the first run; guards RNG stream stability.
    p = random_pattern(4, 2, 0.5, 42)
    assert sorted(p.stars) == [
        (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4), (2, 5),
        (3, 1), (3, 2), (3, 5), (4, 2), (4, 5), (4, 6),
    ]


SAMPLE_STREAM_GOLDEN = {
    ("fig1", 2): "4631e58bf8b461adc9ce7debe2d5c3cd4e42cd6cc91445368dd88da215adbd0c",
    ("fig1", 3): "ec26ff8078aab85bfea4bbfb500d7c3454d05b803bb5abfb637cd74465ba2ce9",
    ("fig1", 10007): "31902722ce905f7803f218a469fb296aa560166fd769b51db7632afd8e85fd8c",
    ("fig1", 1 << 32): "b090489d8ffca41de14167385b3849fc412f66343553060ae03301664eb153c4",
    ("fig2a", 2): "8de3cf34698a6040ec761ed37fbbc5686278d0434a332e9602b1b6f25cc5e571",
    ("fig2a", 3): "39995d7c9fccd57a6526b642b97d38747f51ae7decfa55a56255bdf55bf8843c",
    ("fig2a", 10007): "6050c91339f7515b4b6a060bb58f1fb2d21fe01a6ba6c8d27e516643e2c96b19",
    ("fig2a", 1 << 32): "58cb5abe500f31ae690e4e48277d85d54e0eb383d8d2aaf76e694443cbf7d11d",
    ("hub", 2): "3cefe737770c78fed1b9a7b6454c4d93e2cb21567caff6f39ccaf959aadc133c",
    ("hub", 3): "7cf5b66d9204a6eff04761a68f7c3f161d44375579de692e2bab3bce80097945",
    ("hub", 10007): "9ebd61782826b206f85475fb00ac92469fd52265153f8608ba1f58da3a03a6ba",
    ("hub", 1 << 32): "c57025edbd2698b07962676a4d5abd3d07a0fbbe509794acb2ed73170ee19f94",
}


@pytest.mark.parametrize("name, value_bound", sorted(SAMPLE_STREAM_GOLDEN))
def test_sample_instance_stream_golden(name, value_bound):
    # Frozen from the randint sampler; guards the sample stream, so a seed
    # keeps naming the same realization.
    pattern = {"fig1": FIG1, "fig2a": FIG2A, "hub": benchmark_pattern("hub", 8, 0)}[name]
    digest = hashlib.sha256()
    for seed in (0, 1, 12345):
        for k, q in ((0, 1), (1, 2), (2, 3)):
            digest.update(repr(sample_instance(pattern, k, q, seed, value_bound).blocks).encode())
    assert digest.hexdigest() == SAMPLE_STREAM_GOLDEN[name, value_bound]


def test_random_pattern_rejects_bad_density():
    with pytest.raises(ValueError):
        random_pattern(3, 1, 1.5, seed=0)


def test_sample_instance_support_and_determinism():
    inst = sample_instance(FIG2A, k=1, q=2, seed=5)
    assert inst == sample_instance(FIG2A, k=1, q=2, seed=5)
    assert inst != sample_instance(FIG2A, k=1, q=2, seed=6)
    n, m = FIG2A.n, FIG2A.m
    for (p, ell), (a, b) in inst.blocks.items():
        for i in range(n):
            for j in range(n):
                assert (a[i][j] != 0) == ((i + 1, j + 1) in FIG2A.stars)
            for c in range(m):
                assert (b[i][c] != 0) == ((i + 1, n + c + 1) in FIG2A.stars)


def test_sample_instance_matches_cell_scan():
    # Walking the sorted stars draws the same values, in the same order, as
    # scanning every cell row-major.
    rng = random.Random(12)
    for _ in range(200):
        n, m = rng.randint(1, 8), rng.randint(0, 3)
        pattern = random_pattern(n, m, rng.random(), rng.randrange(1 << 30))
        k, q, seed = rng.randint(0, 2), rng.randint(1, 3), rng.randrange(1 << 30)
        value_bound = rng.choice((2, 3, 10007))
        inst = sample_instance(pattern, k, q, seed, value_bound)
        assert inst.blocks == sample_blocks_by_scan(pattern, k, q, seed, value_bound)


def test_sample_instance_empty_pattern():
    empty = SparsityPattern(2, 1, frozenset())
    inst = sample_instance(empty, k=1, q=2, seed=0)
    for a, b in inst.blocks.values():
        assert all(x == 0 for row in a for x in row)
        assert all(x == 0 for row in b for x in row)


def test_sample_instance_integrator_forced_support():
    inst = sample_instance(INTEGRATOR, k=1, q=2, seed=0, value_bound=9)
    assert len(inst.blocks) == 4
    for a, b in inst.blocks.values():
        assert a == ((0,),)
        assert 1 <= b[0][0] <= 9


def test_sample_instance_value_bound_guard():
    assert sample_instance(INTEGRATOR, 0, 1, seed=0, value_bound=MAX_VALUE_BOUND).blocks
    for bound in (MAX_VALUE_BOUND + 1, 1 << 64, 10**4000):
        with pytest.raises(ScaleError, match="value_bound"):
            sample_instance(INTEGRATOR, 0, 1, seed=0, value_bound=bound)


@pytest.mark.parametrize("k, q, values, message", [
    (0.0, 1, (3,), "k must be an integer >= 0"),
    (0, 1.0, (3,), "q must be an integer >= 1"),
    (True, 1, (3, 4), "k must be an integer >= 0"),
    (-1, 1, (), "k must be an integer >= 0"),
    (0, 0, (), "q must be an integer >= 1"),
    (0, 1, (), "must be 1 ints"),
    (1, 1, (3,), "must be 2 ints"),
    (0, 1, (True,), "must be 1 ints"),
    (0, 1, (3.0,), "must be 1 ints"),
    # the dense-block form: one (A, B) pair per (subsystem, segment)
    (0, 1, {(1, 0): (((0,),), ((1,),))}, "must be 1 ints"),
    (0, 1, {(1, 0): (((3,),), ((1,),))}, "must be 1 ints"),
], ids=["k-float", "q-float", "k-bool", "k-negative", "q-zero", "too-few", "too-many", "bool-value",
        "float-value", "dense-blocks", "dense-blocks-off-star"])
def test_instance_rejects_what_is_not_one_int_per_star(k, q, values, message):
    with pytest.raises(ValueError, match=message):
        EnsembleInstance(INTEGRATOR, k, q, values)


def test_instance_holds_zero_valued_stars():
    # A zero value is stored as given, and every reader sees a zero entry.
    inst = EnsembleInstance(FIG2A, 0, 2, (4, 0, 6, 0, 0, 0))
    assert inst.entries(1, 0) == [(1, 3, 4), (2, 3, 6)] and inst.entries(2, 0) == []
    assert inst.blocks == {(1, 0): (((0, 0), (0, 0)), ((4,), (6,))),
                           (2, 0): (((0, 0), (0, 0)), ((0,), (0,)))}
    for p, ell in ((0, 0), (3, 0), (1, 1), (1, -1)):
        with pytest.raises(ValueError, match="out of range"):
            inst.entries(p, ell)
    with pytest.raises(ValueError, match="k must be an integer >= 0"):
        sample_instance(INTEGRATOR, 0.0, 1, seed=0)


VALID_TOKENS = st.sampled_from(["0", "*"])
BAD_VALUES = st.one_of(st.integers(-2, 0), st.sampled_from([MAX_PATTERN_DIM, 10**20]),
                       st.booleans(), st.floats(), st.text(max_size=2), st.none())


SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "   "])
EDGE_SPACE = st.sampled_from(["", "", " ", "\t", "  "])
# The characters at which str.splitlines, and so the parser, ends a line.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@st.composite
def grid_renderings(draw):
    """Two renderings of one grid text, valid or with one defect (a bad
    header, a row too many or too few, a token too many or an unknown
    token), with blank and comment lines in between: one with single spaces
    and newlines, one with drawn separators (runs of spaces, tabs), leading
    and trailing whitespace, and newline or CRLF line ends.  A bad header's
    free text holds no line break, so both renderings have the same lines."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    rows = [draw(st.lists(VALID_TOKENS, min_size=n + m, max_size=n + m)) for _ in range(n)]
    header = [str(n), str(m)]
    defect = draw(st.sampled_from(["none", "none", "header", "extra row", "missing row",
                                   "extra token", "unknown token"]))
    row = draw(st.integers(0, n - 1))
    if defect == "header":
        header = draw(st.one_of(st.sampled_from([[f"{n}"], ["0", f"{m}"], [f"{n}", "-1"],
                                                 [f"{n}", f"{m}", "1"]]),
                                st.text(st.characters(exclude_characters=LINE_BREAKS),
                                        max_size=6)))
    elif defect == "extra row":
        rows.append(rows[row])
    elif defect == "missing row":
        del rows[row]
    elif defect == "extra token":
        rows[row].append("0")
    elif defect == "unknown token" and n + m:
        rows[row][draw(st.integers(0, n + m - 1))] = draw(st.sampled_from(["1", "x", "00", "**"]))
    lines = [header]
    for tokens in rows:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
        lines.append(tokens)
    single, drawn = [], []
    for line in lines:
        if isinstance(line, str):  # free text, the same in both
            single.append(line)
            drawn.append(line)
            continue
        single.append(" ".join(line))
        text = line[0] + "".join(draw(SEPARATORS) + tok for tok in line[1:]) if line else ""
        drawn.append(draw(EDGE_SPACE) + text + draw(EDGE_SPACE))
    return "\n".join(single), draw(st.sampled_from(["\n", "\r\n"])).join(drawn)


def grid_texts():
    return grid_renderings().map(lambda texts: texts[1])


@st.composite
def json_texts(draw):
    """Valid JSON pattern text, or valid text with one key missing or one
    value of a wrong type or range, or an arbitrary JSON value."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 3))
    star = st.tuples(st.integers(1, n), st.integers(1, n + m)).map(list)
    obj = {"n": n, "m": m, "stars": draw(st.lists(star, max_size=12))}
    defect = draw(st.sampled_from(["none", "none", "n", "m", "stars", "entry", "missing key",
                                   "other value"]))
    if defect in ("n", "m", "stars"):
        obj[defect] = draw(BAD_VALUES)
    elif defect == "entry":
        obj["stars"].append(draw(st.lists(st.one_of(st.integers(-1, 9), BAD_VALUES), max_size=3)))
    elif defect == "missing key":
        del obj[draw(st.sampled_from(["n", "m", "stars"]))]
    elif defect == "other value":
        obj = draw(st.recursive(
            st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
            lambda inner: st.one_of(st.lists(inner, max_size=3),
                                    st.dictionaries(st.text(max_size=3), inner, max_size=3)),
            max_leaves=8,
        ))
    return json.dumps(obj)


def _parse_or_reject(text, fmt):
    try:
        return parse_pattern(text, fmt)
    except (ParseError, ScaleError):
        return None


@settings(max_examples=300, deadline=None)
@given(st.one_of(grid_texts(), json_texts(), st.text(max_size=40)))
def test_fuzzed_text_parses_or_raises_parse_or_scale_error(text):
    for fmt in ("grid", "json"):
        p = _parse_or_reject(text, fmt)
        if p is None:
            continue
        assert parse_pattern(serialize_pattern(p, "json"), "json") == p
        if p.n * (p.n + p.m) <= 10_000:
            assert parse_pattern(serialize_pattern(p, "grid"), "grid") == p


def _outcome(text):
    try:
        return parse_pattern(text)
    except (ParseError, ScaleError) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(grid_renderings())
def test_grid_separators_do_not_change_the_parse(texts):
    """Rows written with single spaces are read without splitting, others
    are split: both give the same pattern, or the same error."""
    single, drawn = texts
    assert _outcome(drawn) == _outcome(single)


@pytest.mark.parametrize("text, expected", [
    ("1 0\n*\n", SparsityPattern(1, 0, {(1, 1)})),
    ("1 0\n0\n", SparsityPattern(1, 0, ())),
    ("1 0\n x\t\n", "line 2, column 1: unknown token 'x'"),
    ("1 0\n**\n", "line 2, column 1: unknown token '**'"),
    ("1 0\n00\n", "line 2, column 1: unknown token '00'"),
    ("1 0\n0 *\n", "line 2: expected 1 tokens, got 2"),
    # 2w-1 characters, but a separator that is not a space
    ("1 2\n0*0 *\n", "line 2: expected 3 tokens, got 2"),
    ("1 2\n00 **\n", "line 2: expected 3 tokens, got 2"),
    ("1 2\n0 *1*\n", "line 2: expected 3 tokens, got 2"),
    ("1 2\n0\t* *\n", SparsityPattern(1, 2, {(1, 2), (1, 3)})),
    ("1 2\n0 1 *\n", "line 2, column 2: unknown token '1'"),
    ("1 2\r\n  * 0  *\t\r\n", SparsityPattern(1, 2, {(1, 1), (1, 3)})),
    ("1 999999999999\n", "expected 1 pattern rows, got 0"),
    ("1 999999999999\n0 *\n", "line 2: expected 1000000000000 tokens, got 2"),
])
def test_grid_edge_rows(text, expected):
    if isinstance(expected, SparsityPattern):
        assert parse_pattern(text) == expected
    else:
        assert _outcome(text) == ("ParseError", expected)


@pytest.mark.parametrize("seed", range(60))
def test_rows_and_stars_agree(seed):
    """SparsityPattern(n, m, stars) and the parsed pattern are equal and hash
    alike; rows holds sorted tuples, and stars gives back the star set."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 9), rng.randint(0, 3)
    stars = {(rng.randint(1, n), rng.randint(1, n + m)) for _ in range(rng.randint(0, 3 * n))}
    built = SparsityPattern(n, m, list(stars) + list(stars))  # repeats collapse
    assert built.stars == frozenset(stars)
    assert all(type(row) is tuple and list(row) == sorted(set(row)) for row in built.rows)
    assert type(built.rows) is tuple and len(built.rows) == n
    assert built.rows == tuple(tuple(sorted(j for i, j in stars if i == r)) for r in range(1, n + 1))
    for fmt in ("grid", "json"):
        parsed = parse_pattern(serialize_pattern(built, fmt), fmt)
        assert parsed == built and hash(parsed) == hash(built)
        assert all(type(row) is tuple for row in parsed.rows) and type(parsed.rows) is tuple
        assert parsed.stars == frozenset(stars)
        assert SparsityPattern(n, m, parsed.stars) == parsed
        assert SparsityPattern.from_rows(n, m, parsed.rows) == parsed
    assert len({built, parse_pattern(serialize_pattern(built))}) == 1
    assert built != SparsityPattern(n, m + 1, stars)


@pytest.mark.parametrize("build, error, message", [
    (lambda: SparsityPattern(0, 1, ()), ValueError, "state dimension n must be an integer >= 1"),
    (lambda: SparsityPattern(2, -1, ()), ValueError, "input count m must be an integer >= 0"),
    (lambda: SparsityPattern(2, 1, {(3, 1)}), ValueError, "star row index 3 out of range 1..2"),
    (lambda: SparsityPattern(2, 1, {(1, 4)}), ValueError,
     "star column index 4 out of range 1..3"),
    (lambda: SparsityPattern(2, 1, {(1, 0)}), ValueError,
     "star column index 0 out of range 1..3"),
    (lambda: SparsityPattern.from_rows(2, 1, ((1,),)), ValueError, "expected 2 rows, got 1"),
    (lambda: SparsityPattern.from_rows(2, 1, ((1,), (2, 4))), ValueError,
     "star column index 4 out of range 1..3"),
    (lambda: SparsityPattern.from_rows(2, 1, ((0, 1), ())), ValueError,
     "star column index 0 out of range 1..3"),
    (lambda: SparsityPattern.from_rows(1, MAX_PATTERN_DIM, ((),)), ScaleError,
     f"n + m = {MAX_PATTERN_DIM + 1} exceeds the dimension guard {MAX_PATTERN_DIM}"),
    # rows that are not strictly increasing: the same stars as {(1,1), (1,3),
    # (2,1)} out of order, a repeated column, and a column past n+m inside
    # a row whose first and last columns are in range
    (lambda: SparsityPattern.from_rows(2, 1, ((3, 1), (1,))), ValueError,
     "row 1: star columns (3, 1) are not strictly increasing"),
    (lambda: SparsityPattern.from_rows(2, 1, ((1, 1, 3), (1,))), ValueError,
     "row 1: star columns (1, 1, 3) are not strictly increasing"),
    (lambda: SparsityPattern.from_rows(2, 1, ((1, 99, 3), (1,))), ValueError,
     "row 1: star columns (1, 99, 3) are not strictly increasing"),
])
def test_pattern_constructor_checks(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
