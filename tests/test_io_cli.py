"""File formats, round trips, and the command-line interface."""

import hashlib
import importlib
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from persax import (
    FilteredSet,
    FiltrationError,
    MissingFace,
    MonotonicityViolation,
    OracleMismatch,
    cli,
    fin,
    point,
)
from persax.formats import (
    ParseError,
    instance_tag,
    parse_cover,
    parse_filtration_text,
    parse_map,
    parse_pair_text,
    serialize_filtration,
    serialize_pair,
)
from persax.fuzz import random_pair

from ._cli import run_persax

PAIR_TEXT = """\
# a triangle rim with one closed edge carved out
[X]
0 a
0 b
0 c
1 a b
1 a c
1 b c
[A]
0 a
0 b
1 a b
"""


class TestParsing:
    def test_basic_lines_and_comments(self):
        fs = parse_filtration_text("0 a\n0 b # endpoint\n1 a b\n")
        assert fs.value(("a", "b")) == fin(1)
        assert fs.vertices == {"a", "b"}

    def test_rationals_and_inf(self):
        fs = parse_filtration_text("1/2 a\ninf a b\ninf b\n")
        assert fs.value(("a",)) == fin("1/2")
        assert fs.support == (("a",),)
        assert "b" in fs.vertices

    def test_finite_and_inf_for_one_simplex_rejected_at_the_later_line(self):
        for text, line in (("0 a\n0 b\n1 a b\ninf a b\n", 4),
                           ("0 a\n0 b\ninf b a\n1 a b\n", 4),
                           ("inf a\n# note\n0 a\n", 3)):
            with pytest.raises(ParseError, match="conflicting values") as info:
                parse_filtration_text(text, source="f.txt")
            assert info.value.line_no == line
            assert str(info.value).startswith(f"f.txt:{line}: ")

    def test_repeated_inf_line_accepted(self):
        fs = parse_filtration_text("0 a\n0 b\ninf a b\ninf b a\n")
        assert fs.support == (("a",), ("b",))

    def test_pair_sections(self):
        pair = parse_pair_text(PAIR_TEXT)
        assert pair.sub.value(("a", "b")) == fin(1)

    def test_subset_below_total_rejected(self):
        bad = "[X]\n1 a\n[A]\n0 a\n"
        with pytest.raises(ParseError):
            parse_pair_text(bad)

    def test_huge_exponent_is_rejected_before_it_is_built(self):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_filtration_text("1e999999999 a\n")
        assert time.perf_counter() - start < 1

    def test_exponent_within_the_digit_limit_parses(self):
        fs = parse_filtration_text("1e4000 a\n")
        assert fs.value(("a",)) == fin(10**4000)

    def test_nonmonotone_input_rejected_with_location(self):
        with pytest.raises(ParseError):
            parse_filtration_text("2 a\n0 b\n1 a b\n", source="bad.txt")

    def test_malformed_lines_rejected(self):
        with pytest.raises(ParseError):
            parse_filtration_text("nonsense\n")
        with pytest.raises(ParseError):
            parse_filtration_text("0 a a\n")

    @pytest.mark.parametrize("text, line, message", [
        ("[X]\n0 a\n0 b\n[a]\n0 a\n", 4, "a pair file has no [a] section"),
        ("[X]\n0 a\n[A]\n0 a\n[X]\n0 b\n", 5, "second [X] section"),
    ], ids=["misspelt-subset", "repeated-total"])
    def test_unknown_or_repeated_section_rejected_at_its_line(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_pair_text(text, source="p.txt")
        assert str(info.value) == f"p.txt:{line}: {message}"

    @pytest.mark.parametrize("text, line, message", [
        ("0 a\nzz b\nzz c\n", 2, "bad value 'zz'"),
        ("0 a\n1e999999999 b\n1e999999999 c\n", 2, "bad value '1e999999999'"),
        ("1/2 a\n1/3 a\n", 2, "conflicting values for ('a',)"),
    ], ids=["bad-token-twice", "huge-exponent-twice", "half-then-third"])
    def test_value_errors_name_their_first_line(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_filtration_text(text, source="v.txt")
        assert str(info.value) == f"v.txt:{line}: {message}"

    def test_equal_values_in_two_spellings_are_one_value(self):
        fs = parse_filtration_text("1/2 a\n0.5 a\n2/4 b\n1 a b\n")
        assert fs.value(("a",)) == fs.value(("b",)) == fin("1/2")
        assert fs.support == (("a",), ("a", "b"), ("b",))

    def test_a_value_token_is_one_object_across_sections(self):
        pair = parse_pair_text(PAIR_TEXT)
        assert pair.total.value(("a",)) is pair.total.value(("c",)) is pair.sub.value(("b",))
        assert pair.total.value(("a", "b")) is pair.sub.value(("a", "b"))

    def test_a_vertex_name_is_one_object_across_sections(self):
        # names longer than one character: CPython shares one-character strings anyway
        text = "[X]\n0 v10\n0 v11\n1 v10 v11\n0 v12\n[A]\n2 v11\n2 v12\n"
        pair = parse_pair_text(text)
        seen = {}
        for part in pair:
            for v in part.vertices:
                assert seen.setdefault(v, v) is v
            for sk, _ in part.entries:
                assert all(seen[v] is v for v in sk)
        assert len(seen) == 3

    def test_error_inside_a_section_names_the_file_line(self):
        text = "# two sections\n[X]\n0 a\n\nzz b\n[A]\n"
        with pytest.raises(ParseError) as info:
            parse_pair_text(text, source="ln2.txt")
        assert str(info.value) == "ln2.txt[X]:5: bad value 'zz'"


class TestRoundTrip:
    def test_serialize_parse_is_identity_on_fuzzed_objects(self):
        master = random.Random(23)
        for _ in range(15):
            pair = random_pair(random.Random(master.getrandbits(64)))
            text = serialize_pair(pair)
            again = parse_pair_text(text)
            assert again == pair
            assert serialize_pair(again) == text

    def test_vertices_without_support_survive(self):
        from persax import skeleton

        bare = skeleton(point(0, "q"), -1)
        assert parse_filtration_text(serialize_filtration(bare)) == bare

    def test_instance_tags_are_stable(self):
        pair = parse_pair_text(PAIR_TEXT)
        assert instance_tag(pair) == instance_tag(parse_pair_text(PAIR_TEXT))


# finite values over a wide range of sizes and denominators
VALUES = st.one_of(st.fractions(max_denominator=10**6),
                   st.integers(-10**40, 10**40).map(Fraction))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(VALUES, min_size=1, max_size=4, unique=True))
def test_parse_inverts_serialize_on_generated_pairs(seed, values):
    pair = random_pair(random.Random(seed), values=values)
    assert parse_pair_text(serialize_pair(pair)) == pair


TOKENS = ["0", "1", "-2", "1/2", "3/6", "inf", "1/0", "1e999999999", "1e-999999999",
          "2.5e3", "nan", "a", "b", "c", "[X]", "[A]", "[SECTION]", "[", "]", "#", "->"]
LINES = st.lists(st.sampled_from(TOKENS), max_size=5).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(LINES, max_size=12).map("\n".join))
def test_malformed_text_raises_only_parse_errors(text):
    for parse in (parse_filtration_text, parse_pair_text):
        try:
            parse(text)
        except ParseError:
            pass


POOL = ("a", "b", "c", "d", "e")
SIMPLICES = st.sets(st.sampled_from(POOL), min_size=1, max_size=4).map(sorted).map(tuple)


@st.composite
def valid_lines(draw):
    """``(value token, vertices)`` lines of a valid file, in file order.

    Each drawn simplex brings its faces at values no larger than its own.  A
    simplex may get several lines, with its value spelled ``1``, ``1/1`` or
    ``2/2``, and its vertices in any order; a few keys outside the support get
    ``inf`` lines.
    """
    table = {}
    for sk in draw(st.lists(SIMPLICES, max_size=8)):
        value = Fraction(draw(st.integers(0, 3)), draw(st.sampled_from((1, 2))))
        for k in range(1, len(sk) + 1):
            for face in itertools.combinations(sk, k):
                table[face] = min(table.get(face, value), value)
    lines = []
    for sk, value in table.items():
        for _ in range(draw(st.integers(1, 2))):
            token = draw(st.sampled_from((str(value), f"{value.numerator}/{value.denominator}",
                                          f"{2 * value.numerator}/{2 * value.denominator}")))
            lines.append((token, tuple(draw(st.permutations(sk)))))
    for sk in draw(st.lists(SIMPLICES, max_size=3)):
        if sk not in table:
            lines.append(("inf", tuple(draw(st.permutations(sk)))))
    return draw(st.permutations(lines))


@st.composite
def written(draw, lines):
    """The lines as file text, with tabs, comments, blank and whitespace-only
    lines, and LF or CRLF endings."""
    out = []
    for token, verts in lines:
        if draw(st.booleans()):
            out.append(draw(st.sampled_from(("", "   ", "\t", "# a comment"))))
        line = draw(st.sampled_from((" ", "\t", "  "))).join((token, *verts))
        out.append(line + draw(st.sampled_from(("", " ", "\t# note"))))
    return draw(st.sampled_from(("\n", "\r\n"))).join(out)


def constructed(lines):
    """The lines' set built by the public constructor, keys in file order."""
    table = {}
    for token, verts in lines:
        table.setdefault(verts, fin(token))
    return FilteredSet({v for _, verts in lines for v in verts}, table)


def state(fs):
    return fs.entries, list(fs._lookup.items()), fs._critical, fs.vertices, hash(fs)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_parser_builds_what_the_constructor_builds(data):
    lines = data.draw(valid_lines())
    text = data.draw(written(lines))
    assert state(parse_filtration_text(text)) == state(constructed(lines))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_face_fault_reads_as_the_constructors_message(data):
    lines = data.draw(valid_lines())
    keys = {tuple(sorted(verts)) for token, verts in lines if token != "inf"}
    cofaced = sorted(sk for sk in keys if len(sk) > 1)
    if not cofaced:
        return
    top = data.draw(st.sampled_from(cofaced))
    face = data.draw(st.sampled_from(list(itertools.combinations(top, len(top) - 1))))
    if data.draw(st.booleans()):
        lines = [line for line in lines if tuple(sorted(line[1])) != face]  # a missing face
    else:
        lines = [("7", verts) if tuple(sorted(verts)) == face else (token, verts)
                 for token, verts in lines]  # a face born after its coface
    with pytest.raises(FiltrationError) as want:
        constructed(lines)
    with pytest.raises(ParseError) as got:
        parse_filtration_text(data.draw(written(lines)), source="f.txt")
    assert isinstance(want.value, (MissingFace, MonotonicityViolation))
    assert type(got.value.__cause__) is type(want.value)
    assert (got.value.line_no, str(got.value)) == (0, f"f.txt:0: {want.value}")


@pytest.mark.parametrize("first, second", itertools.permutations([
    ("x a", "bad value 'x'"),
    ("1 b b", "repeated vertex in simplex"),
    ("2 a", "conflicting values for ('a',)"),
    ("3", "expected a value and at least one vertex"),
], 2))
def test_of_two_faults_the_earlier_line_is_reported(first, second):
    # a face fault has no line and is found after the last line
    text = "\n".join(["0 a", "0 b c", first[0], "# between", second[0], "1 d e"])
    with pytest.raises(ParseError) as info:
        parse_filtration_text(text, source="f.txt")
    assert str(info.value) == f"f.txt:3: {first[1]}"


class TestMapFiles:
    def test_map_file_loads_and_validates(self, tmp_path):
        (tmp_path / "dom.txt").write_text("0 a\n0 b\n")
        (tmp_path / "cod.txt").write_text("0 p\n")
        (tmp_path / "map.txt").write_text(
            "domain: dom.txt\ncodomain: cod.txt\na -> p\nb -> p\n")
        f = parse_map(tmp_path / "map.txt")
        assert f.vertex_map == {"a": "p", "b": "p"}

    def test_arrow_from_outside_the_domain_is_rejected(self, tmp_path, ends):
        (tmp_path / "map.txt").write_text(ends + "a -> p\nb -> q\nz -> p\n")
        with pytest.raises(ParseError, match=r"map\.txt:0: vertex 'z' is not a domain vertex"):
            parse_map(tmp_path / "map.txt")
        proc = run_cli("induced", "--map", str(tmp_path / "map.txt"),
                       "--interval", "0,0", "--degree", "0")
        assert (proc.stdout, proc.returncode) == ("", 2)

    def test_invalid_map_rejected(self, tmp_path):
        (tmp_path / "dom.txt").write_text("0 a\n")
        (tmp_path / "cod.txt").write_text("2 p\n")
        (tmp_path / "map.txt").write_text(
            "domain: dom.txt\ncodomain: cod.txt\na -> p\n")
        with pytest.raises(ParseError):
            parse_map(tmp_path / "map.txt")

    @pytest.fixture()
    def ends(self, tmp_path):
        (tmp_path / "dom.txt").write_text("0 a\n0 b\n")
        (tmp_path / "cod.txt").write_text("0 p\n0 q\n")
        return "domain: dom.txt\ncodomain: cod.txt\n"

    def test_repeated_identical_arrow_is_accepted(self, tmp_path, ends):
        (tmp_path / "map.txt").write_text(ends + "a -> p\nb -> q\na -> p\n")
        assert parse_map(tmp_path / "map.txt").vertex_map == {"a": "p", "b": "q"}

    def test_second_image_for_a_vertex_is_rejected_at_its_line(self, tmp_path, ends):
        (tmp_path / "map.txt").write_text(ends + "a -> p\nb -> q\na -> q\n")
        with pytest.raises(ParseError, match=r"map\.txt:5: conflicting images for 'a'") as exc:
            parse_map(tmp_path / "map.txt")
        assert exc.value.line_no == 5

    @pytest.mark.parametrize("head", ["domain", "codomain"])
    def test_second_endpoint_line_is_rejected_at_its_line(self, tmp_path, ends, head):
        (tmp_path / "map.txt").write_text(ends + f"a -> p\n{head}: cod.txt\nb -> q\n")
        with pytest.raises(ParseError, match=rf"map\.txt:4: second {head}: line") as exc:
            parse_map(tmp_path / "map.txt")
        assert exc.value.line_no == 4


COVER_TEXT = """\
[X1]
0 a
0 b
0 c
1 a b
1 b c
[X2]
0 a
0 c
0 d
1 c d
2 a d
"""

# the cover plus an ambient set with one more edge
TRIAD_TEXT = "[X]\n0 a\n0 b\n0 c\n0 d\n1 a b\n1 b c\n1 c d\n2 a d\n2 a c\n" + COVER_TEXT


def sequence_records(dims, labels, verdicts):
    """``sequence --format records`` stdout for the given nodes."""
    labels = labels.split() + [""]
    return "".join(f"sequence\t{i}\t{d}\t{label}\t{v}\n"
                   for i, (d, label, v) in enumerate(zip(dims, labels, verdicts.split())))


PAIR_LABELS = "i_2 j_2 d_2 i_1 j_1 d_1 i_0 j_0 0"
ALL_EXACT = "- " + "exact " * 8 + "-"


def run_cli(*args):
    return run_persax(*args, capture_output=True, text=True)


@pytest.fixture()
def rim_file(tmp_path):
    path = tmp_path / "rim.txt"
    path.write_text("0 a\n0 b\n0 c\n1 a b\n1 a c\n1 b c\n")
    return path


@pytest.fixture()
def pair_file(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(PAIR_TEXT)
    return path


class TestCli:
    def test_compute_reports_dimension_and_reps(self, rim_file):
        proc = run_cli("compute", "--input", str(rim_file),
                       "--interval", "1,2", "--degree", "1")
        assert proc.returncode == 0
        assert "dim 1" in proc.stdout
        assert "rep 0" in proc.stdout

    def test_compute_records_format(self, rim_file):
        proc = run_cli("compute", "--input", str(rim_file),
                       "--interval", "1,2", "--degree", "1", "--format", "records")
        assert proc.stdout == "dim\t1\t1\t2\t1\n"

    def test_grid_records(self, rim_file):
        proc = run_cli("grid", "--input", str(rim_file), "--degree", "1",
                       "--format", "records")
        lines = proc.stdout.splitlines()
        assert "grid\t1\t1\t1\t1" in lines
        assert "grid\t1\t0\t1\t0" in lines

    def test_sequence_exactness_exit_code(self, pair_file):
        proc = run_cli("sequence", "--pair", str(pair_file), "--interval", "1,2")
        assert proc.returncode == 0
        assert "exact" in proc.stdout

    @pytest.mark.parametrize("flag, text, interval, stdout, code", [
        ("--triple", PAIR_TEXT + "[B]\n0 a\n", "1,2",
         sequence_records((0, 0, 0, 0, 1, 1, 0, 0, 0, 0), PAIR_LABELS, ALL_EXACT), 0),
        ("--mv", COVER_TEXT, "1,2",
         sequence_records((0, 0, 0, 0, 0, 0, 2, 2, 1, 0),
                          "(i,-i)_2 (j+j)_2 D_2 (i,-i)_1 (j+j)_1 D_1 (i,-i)_0 (j+j)_0 0",
                          "- exact exact exact exact exact FAIL exact exact -"), 1),
        ("--triad", COVER_TEXT, "1,2",
         sequence_records((0, 0, 0, 1, 1, 0, 0, 0, 0, 0), PAIR_LABELS, ALL_EXACT), 0),
        ("--triad", TRIAD_TEXT, "2,2",
         sequence_records((0, 0, 0, 1, 2, 1, 0, 0, 0, 0), PAIR_LABELS, ALL_EXACT), 0),
    ])
    def test_sequence_kinds_records(self, tmp_path, flag, text, interval, stdout, code):
        path = tmp_path / "input.txt"
        path.write_text(text)
        proc = run_cli("sequence", flag, "--pair", str(path), "--interval", interval,
                       "--format", "records")
        assert (proc.stdout, proc.returncode) == (stdout, code)

    def test_mv_rejects_an_ambient_section_at_its_line(self, tmp_path):
        path = tmp_path / "cover.txt"
        path.write_text("[X1]\n0 a\n[X2]\n0 b\n[X]\n0 a\n0 b\n0 c\n")
        proc = run_cli("sequence", "--mv", "--pair", str(path), "--interval", "0,0")
        assert (proc.stdout, proc.returncode) == ("", 2)
        assert proc.stderr == f"error: {path}:5: a Mayer-Vietoris file has no [X] section\n"
        with pytest.raises(ParseError, match=r":5: a Mayer-Vietoris file has no \[X\] section"):
            parse_cover(path)
        # --triad reads the same file, ambient section included
        proc = run_cli("sequence", "--triad", "--pair", str(path), "--interval", "0,0",
                       "--format", "records")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[3:6] == ["sequence\t3\t1\ti_0\texact",
                                                 "sequence\t4\t2\tj_0\texact",
                                                 "sequence\t5\t1\t0\texact"]

    def test_mv_on_an_improper_cover_exits_2(self, tmp_path, monkeypatch, capsys):
        # the union of two filtered sets is always a proper cover, so the
        # cover record is built inside an edge that the two points miss
        path = tmp_path / "cover.txt"
        path.write_text("[X1]\n0 a\n[X2]\n0 b\n")
        monkeypatch.setattr(importlib.import_module("persax.sequences"), "union",
                            lambda first, second: parse_filtration_text("0 a\n0 b\n0 a b\n"))
        code = cli.main(["sequence", "--mv", "--pair", str(path), "--interval", "0,0"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: cover inclusions do not induce isomorphisms\n"

    def test_triad_without_second_cover_set_is_rejected(self, tmp_path):
        path = tmp_path / "half.txt"
        path.write_text("[X1]\n0 a\n")
        proc = run_cli("sequence", "--triad", "--pair", str(path), "--interval", "0,0")
        assert proc.returncode == 2
        assert proc.stderr == f"error: {path}:0: a cover file needs an [X2] section\n"

    def test_induced_matrix(self, tmp_path, rim_file):
        (tmp_path / "map.txt").write_text(
            f"domain: {rim_file}\ncodomain: {rim_file}\na -> b\nb -> c\nc -> a\n")
        proc = run_cli("induced", "--map", str(tmp_path / "map.txt"),
                       "--interval", "1,2", "--degree", "1")
        assert proc.returncode == 0
        assert "1x1" in proc.stdout

    def test_verify_axioms_on_file(self, pair_file):
        proc = run_cli("verify-axioms", "--input", str(pair_file),
                       "--format", "records")
        lines = proc.stdout.splitlines()
        assert lines[-1].startswith("summary\t")
        # three critical intervals, each running the pair axioms in table order
        assert [ln.split("\t")[1] for ln in lines[:-1]] == ["A1", "A4", "S2"] * 3

    def test_verify_axioms_on_files_runs_each_exactness_check_once(self, pair_file, rim_file,
                                                                    monkeypatch, capsys):
        # A4 and S2 name one check, and each (file, interval) shares its run
        from persax import axioms

        runs = []
        real = axioms._AXIOMS["A4"].check

        def counted(field, pair, interval):
            runs.append((pair, interval))
            return real(field, pair, interval)

        for axiom_id in ("A4", "S2"):
            monkeypatch.setitem(axioms._AXIOMS, axiom_id,
                                axioms._AXIOMS[axiom_id]._replace(check=counted))
        cli.main(["verify-axioms", "--input", str(pair_file), "--input", str(rim_file),
                  "--format", "records"])
        axiom_ids = [ln.split("\t")[1] for ln in capsys.readouterr().out.splitlines()[:-1]]
        assert axiom_ids.count("A4") == axiom_ids.count("S2") == len(runs) == len(set(runs)) == 6

    def test_oracle_compare_flags_interval_disagreements(self, tmp_path):
        # interior death: the three paths legitimately disagree, exit code 1
        path = tmp_path / "merge.txt"
        path.write_text("0 a\n0 b\n1 a b\n")
        proc = run_cli("oracle-compare", "--input", str(path), "--format", "records")
        assert proc.returncode == 1
        assert "MISMATCH" in proc.stdout
        ok_lines = [l for l in proc.stdout.splitlines() if l.endswith("\tok")]
        assert ok_lines  # degenerate intervals still agree

    def test_oracle_compare_passes_on_single_birth_input(self, tmp_path):
        path = tmp_path / "rim0.txt"
        path.write_text("0 a\n0 b\n0 c\n0 a b\n0 a c\n0 b c\n")
        proc = run_cli("oracle-compare", "--input", str(path), "--format", "records")
        assert proc.returncode == 0
        assert "MISMATCH" not in proc.stdout

    def test_field_option_changes_coefficients(self, rim_file):
        proc = run_cli("compute", "--input", str(rim_file), "--interval", "1,1",
                       "--degree", "1", "--field", "3", "--format", "records")
        assert proc.stdout == "dim\t1\t1\t1\t1\n"

    def test_oversized_field_is_rejected(self, rim_file):
        proc = run_persax("compute", "--input", str(rim_file), "--interval", "1,2",
                          "--degree", "1", "--field", "1000000000000000003",
                          capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr == "error: characteristic 1000000000000000003 is not below 2**31\n"

    @pytest.mark.parametrize("interval", ["1/0,2", "0,1e999999999", "1", "1,2,3"])
    def test_bad_interval_value_is_a_usage_error(self, rim_file, interval):
        proc = run_persax("compute", "--input", str(rim_file), "--interval", interval,
                          "--degree", "1", capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_negative_fuzz_count_is_a_usage_error(self):
        proc = run_persax("verify-axioms", "--fuzz", "-1", capture_output=True, text=True,
                          timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: --fuzz must not be negative, got -1\n"

    @pytest.mark.parametrize("extra", [(), ("--fuzz", "0")])
    def test_verify_axioms_with_nothing_to_check_is_a_usage_error(self, extra):
        proc = run_persax("verify-axioms", *extra, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: verify-axioms needs --input or a positive --fuzz\n"

    def test_failed_internal_check_exits_2_with_a_message(self, rim_file, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise AssertionError("rank-nullity failed; reduction is broken")

        # the module: the package attribute of that name is the function
        monkeypatch.setattr(importlib.import_module("persax.homology"), "homology", broken)
        code = cli.main(["compute", "--input", str(rim_file), "--interval", "1,2",
                         "--degree", "1", "--format", "records"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: internal check failed: rank-nullity failed; reduction is broken\n"

    def test_oracle_mismatch_exits_2_with_its_message(self, rim_file, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise OracleMismatch("boundary image is not made of cycles")

        monkeypatch.setattr(importlib.import_module("persax.skeletal"), "skeletal_homology", broken)
        code = cli.main(["oracle-compare", "--input", str(rim_file), "--format", "records"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == "error: boundary image is not made of cycles\n"

    def test_verify_axioms_fuzz_is_byte_identical_across_runs(self):
        first = run_cli("verify-axioms", "--fuzz", "5", "--seed", "7",
                        "--format", "records")
        second = run_cli("verify-axioms", "--fuzz", "5", "--seed", "7",
                         "--format", "records")
        assert first.stdout == second.stdout
        assert first.stdout.count("\naxiom\t") + first.stdout.startswith("axiom\t") > 0

    def test_verify_axioms_fuzz_100_seed_7_records_digest(self, capsys):
        assert cli.main(["verify-axioms", "--fuzz", "100", "--seed", "7",
                         "--format", "records"]) == 1
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4e7dbfd16196a9456b4ac0dab36be66ab6c3c921395843bdcf809b478e5bc800")

    def test_verify_axioms_fuzz_100_seed_7_text_digest(self, capsys):
        # unlike the records, the text shows every report's details
        assert cli.main(["verify-axioms", "--fuzz", "100", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("summary: fail=8 pass=991 vacuous=1\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "89040fa93aafa455da26d965d150fed73a746b59ea94aa17ab20d162f056f931")


# four vertices born at 0-2 and joined over eight values, so that grids,
# oracle rows and induced maps have more than one nonzero entry to show
STEPS_TEXT = """\
0 a
0 b
1 c
1 a b
2 b c
2 d
3 a c
3 c d
4 a d
5 a b c
6 b d
7 a c d
"""

# the same set with a subset that keeps two of its points, their edge and a
# third point: relative groups, pair sequences and pair oracle rows
STEPS_PAIR_TEXT = "[X]\n" + STEPS_TEXT + "[A]\n0 a\n0 b\n1 a b\n2 d\n"


class TestPinnedCommandOutputs:
    """Outputs no other test prints, pinned on one fixed input each."""

    @pytest.fixture()
    def steps_file(self, tmp_path):
        path = tmp_path / "steps.txt"
        path.write_text(STEPS_TEXT)
        return path

    @pytest.fixture()
    def steps_pair_file(self, tmp_path):
        path = tmp_path / "steps_pair.txt"
        path.write_text(STEPS_PAIR_TEXT)
        return path

    def run(self, capsys, *args, code=0):
        assert cli.main([str(a) for a in args]) == code
        return capsys.readouterr().out

    def test_compute_text_and_records(self, steps_file, capsys):
        common = ("compute", "--input", steps_file, "--interval", "3,4", "--degree", "1")
        assert self.run(capsys, *common) == (
            "H_1[3,4] over GF(2): dim 1\n"
            "  rep 0: 1*{a,b} + 1*{a,c} + 1*{b,c}\n")
        assert self.run(capsys, *common, "--format", "records") == "dim\t1\t3\t4\t1\n"

    def test_compute_pair_text(self, steps_pair_file, capsys):
        assert self.run(capsys, "compute", "--input", steps_pair_file, "--pair",
                        "--interval", "4,6", "--degree", "1", "--field", "3") == (
            "H_1[4,6] over GF(3): dim 2\n"
            "  rep 0: 1*{a,d}\n"
            "  rep 1: 1*{b,c} + 1*{c,d}\n")

    def test_grid_records(self, steps_file, capsys):
        out = self.run(capsys, "grid", "--input", steps_file, "--degree", "1",
                       "--format", "records")
        lines = out.splitlines()
        # one line per cell on or above the diagonal of the text grid
        assert len(lines) == 36 and all(ln.startswith("grid\t1\t") for ln in lines)
        assert [ln for ln in lines if not ln.endswith("\t0")] == [
            "grid\t1\t3\t3\t1", "grid\t1\t3\t4\t1", "grid\t1\t4\t4\t2",
            "grid\t1\t4\t5\t1", "grid\t1\t4\t6\t1", "grid\t1\t5\t5\t1",
            "grid\t1\t5\t6\t1", "grid\t1\t6\t6\t2", "grid\t1\t6\t7\t1",
            "grid\t1\t7\t7\t1"]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4354d3972ce2a541881ebaee9702501ece549fabfd12dd2222d0fc4e35d66c0a")

    def test_grid_pair_text(self, steps_pair_file, capsys):
        assert self.run(capsys, "grid", "--input", steps_pair_file, "--pair",
                        "--degree", "1") == (
            "degree 1 grid over critical values ['0', '1', '2', '3', '4', '5', '6', '7']\n"
            "  0: 0 0 0 0 0 0 0 0\n"
            "  1: . 0 0 0 0 0 0 0\n"
            "  2: . . 0 0 0 0 0 0\n"
            "  3: . . . 2 2 1 1 1\n"
            "  4: . . . . 3 2 2 1\n"
            "  5: . . . . . 2 2 1\n"
            "  6: . . . . . . 3 2\n"
            "  7: . . . . . . . 2\n"
        )

    def test_sequence_text(self, steps_pair_file, capsys):
        dims = (0, 0, 0, 0, 0, 0, 0, 1, 2, 2, 1, 0, 0)
        labels = "i_3 j_3 d_3 i_2 j_2 d_2 i_1 j_1 d_1 i_0 j_0 0".split()
        expected = "".join(
            f"node {i}: dim {d} [{'-' if i in (0, 12) else 'exact'}]"
            + (f" --{labels[i]}-->" if i < 12 else "") + "\n"
            for i, d in enumerate(dims))
        out = self.run(capsys, "sequence", "--pair", steps_pair_file, "--interval", "3,4")
        assert out == expected
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "39bbe369edd5009365cc2d6db8a6d9262bd6d088cc742c864489dbb08dd71444")

    def test_oracle_compare_records(self, steps_file, capsys):
        out = self.run(capsys, "oracle-compare", "--input", steps_file, "--field", "3",
                       "--format", "records", code=1)
        lines = out.splitlines()
        assert len(lines) == 144 and sum(ln.endswith("\tMISMATCH") for ln in lines) == 26
        assert lines[4] == "oracle\t0\t0\t1\t1\t2\t1\tMISMATCH"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "beeb1e1e5d1db15cc54b2519b34a6a55ca78b1d332fa1982b5c226767d8f3061")

    def test_oracle_compare_pair_text(self, steps_pair_file, capsys):
        out = self.run(capsys, "oracle-compare", "--input", steps_pair_file, "--pair", code=1)
        lines = out.splitlines()
        assert len(lines) == 144 and sum(ln.endswith("[MISMATCH]") for ln in lines) == 14
        assert lines[36] == "degree 0 [1,2]: direct=0 skeletal=1 bars=0 [MISMATCH]"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eff41ea509e0f3eebe012512b252879d5de075b6fc94f55cf7defe67ade95a16")

    def test_grid_text(self, steps_file, capsys):
        assert cli.main(["grid", "--input", str(steps_file), "--degree", "1"]) == 0
        assert capsys.readouterr().out == (
            "degree 1 grid over critical values ['0', '1', '2', '3', '4', '5', '6', '7']\n"
            "  0: 0 0 0 0 0 0 0 0\n"
            "  1: . 0 0 0 0 0 0 0\n"
            "  2: . . 0 0 0 0 0 0\n"
            "  3: . . . 1 1 0 0 0\n"
            "  4: . . . . 2 1 1 0\n"
            "  5: . . . . . 1 1 0\n"
            "  6: . . . . . . 2 1\n"
            "  7: . . . . . . . 1\n"
        )

    def test_oracle_compare_text(self, steps_file, capsys):
        assert cli.main(["oracle-compare", "--input", str(steps_file), "--field", "3"]) == 1
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 144 and sum(ln.endswith("[MISMATCH]") for ln in lines) == 26
        assert lines[4] == "degree 0 [0,1]: direct=1 skeletal=2 bars=1 [MISMATCH]"
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0cb6686c8f63e10d8cc7d8666876c32d98d1d8a9f3bd51a907102bb5ca64c8e5")

    def test_induced_records(self, tmp_path, capsys):
        rim = tmp_path / "rim.txt"
        rim.write_text("0 a\n0 b\n0 c\n1 a b\n1 a c\n1 b c\n")
        swap = tmp_path / "swap.txt"
        swap.write_text(f"domain: {rim}\ncodomain: {rim}\na -> b\nb -> a\nc -> c\n")
        out = []
        for degree, interval in (("0", "0,0"), ("1", "1,2")):
            assert cli.main(["induced", "--map", str(swap), "--degree", degree,
                             "--interval", interval, "--field", "3", "--format", "records"]) == 0
            out.append(capsys.readouterr().out)
        # the swap permutes the points and reverses the loop: -1 is 2 in GF(3)
        assert out == ["induced\t0\t0\t0\t3x3\nrow\t0\t1\t0\nrow\t1\t0\t0\nrow\t0\t0\t1\n",
                       "induced\t1\t1\t2\t1x1\nrow\t2\n"]
