import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcg_spinlab.dsl import _MAX_ENTRIES, ScriptError, parse_script, run_script
from mcg_spinlab.homology import PreconditionError


class TestParser:
    def test_spec_example(self):
        script = parse_script("basis g=5; form q = x*:1 y1:1 y3:1 y5:1; curve a = y3; check q a;")
        results = run_script(script)
        assert results == [{"query": "check q a;", "form": "q", "curve": "a", "value": 1}]

    def test_empty_input(self):
        script = parse_script("")
        assert script.statements == ()
        assert run_script(script) == []

    def test_comment_lines(self):
        script = parse_script("# heading\nbasis g=2;\n# trailing\n")
        assert len(script.statements) == 1

    def test_out_of_range_curve(self):
        script = parse_script("basis g=5; curve z = x9;")
        with pytest.raises(ScriptError) as err:
            run_script(script)
        assert err.value.line == 1

    def test_undeclared_name(self):
        script = parse_script("basis g=2; check q a;")
        with pytest.raises(ScriptError, match="undeclared form"):
            run_script(script)

    def test_syntax_error_position(self):
        with pytest.raises(ScriptError) as err:
            parse_script("basis g=2;\ncurve = y1;")
        assert err.value.line == 2

    def test_unknown_statement(self):
        with pytest.raises(ScriptError, match="unknown statement"):
            parse_script("frobnicate x;")

    def test_round_trip_canonical(self):
        text = """
        basis g=5;
        form q = x*:1 y1:1 y3:1 y5:1;
        curve a = y3;
        curve v = [0,1,0,0,0,0,0,-1,0,0];
        word w = a v^-1;
        factorization F = a^3 v power 1;
        check q a;
        check-spin F q;
        check-relation F;
        h1 F;
        """
        script = parse_script(text)
        canon = script.canonical()
        again = parse_script(canon)
        assert again == script
        assert again.canonical() == canon


class TestExecution:
    def test_integer_curve_derives_mod2(self):
        out = run_script(parse_script(
            "basis g=2; form q = x*:1; curve v = [2,1,0,-1]; check q v;"
        ))
        # v reduces to x2+y2: q = q(x2) + q(y2) + x2.y2 = 1 + 0 + 1 = 0
        assert out[0]["value"] == 0

    def test_inconsistent_sparse_and_vector(self):
        with pytest.raises(ScriptError, match="does not match"):
            run_script(parse_script("basis g=1; curve v = x1 [0,1];"))

    def test_factorization_queries(self):
        text = """
        basis g=1;
        curve a = [1,0];
        curve b = [0,1];
        factorization E = a b a b a b a b a b a b power 1;
        check-relation E;
        invariants E sigma=meyer;
        h1 E;
        """
        out = run_script(parse_script(text))
        assert out[0]["mod2"] is True and out[0]["integral"] is True
        assert out[1]["signature"] == -8
        assert out[1]["euler"] == 12
        assert out[2]["group"] == "0"

    def test_conjugate_and_hurwitz(self):
        text = """
        basis g=2;
        curve a = x1;
        curve b = y1;
        word w = a;
        factorization F = a b power 0;
        conjugate G = F by w;
        hurwitz H = F at 0 right;
        check-relation H;
        """
        out = run_script(parse_script(text))
        assert out[0]["mod2"] is False

    def test_pencil_and_breed(self):
        text = """
        basis g=5;
        curve a = y3;
        curve b = y3+y4;
        curve c = y4+y5;
        curve d = y5;
        pencil S;
        factorization F = a b c d power 2;
        breed G = F at 0 with S;
        check-relation G;
        """
        out = run_script(parse_script(text))
        # one pencil block against one boundary block: products agree, so
        # F's product equals G's; neither is the identity though
        assert out[0]["mod2"] is False

    def test_stored_factorizations_are_bounded(self):
        head = "basis g=5; curve a = y3; curve b = y3+y4; curve c = y4+y5; curve d = y5; curve x = x1; word w = x; pencil S;\n"
        decl = f"factorization F = a b c d x^{_MAX_ENTRIES - 4} power 2;\n"
        # conjugation and Hurwitz moves keep the length, so at the limit they store
        assert run_script(parse_script(head + decl + "conjugate G = F by w; hurwitz H = F at 0 right;")) == []
        # breeding adds four entries
        message = f"^3:1: factorization G would have {_MAX_ENTRIES + 4} entries, more than {_MAX_ENTRIES}$"
        with pytest.raises(PreconditionError, match=message):
            run_script(parse_script(head + decl + "breed G = F at 0 with S;"))

    def test_basis_required_first(self):
        with pytest.raises(ScriptError, match="declare a basis"):
            run_script(parse_script("curve a = x1;"))


# script fuzzing: near-valid statements over declared, undeclared and odd
# names, genera up to 8, exponents up to 4 and oddly spelled integers, and
# soups of the grammar's own tokens; a repeated choice is a likelier one, so
# that about half of the near-valid scripts parse
_ODD_INTS = st.sampled_from(["007", "-0", "+1", "1.5", "--1", "\u00b2", "\u0663", "9" * 5000])
_INTS = st.one_of(st.integers(-4, 4).map(str), st.integers(0, 4).map(str), st.integers(1, 4).map(str), _ODD_INTS)
_GENERA = st.one_of(st.integers(0, 8).map(str), st.integers(-1, 8).map(str), _ODD_INTS)
_NAMES = st.sampled_from(
    ["a", "b", "F", "G", "q", "S", "phi", "x1", "y2", "x*", "c'", "a-b", "power", "by", "_", "1a", "\u00e9"]
)
_SPARSE = st.lists(_NAMES, min_size=1, max_size=3).map("+".join)
_VECTOR = st.lists(_INTS, max_size=5).map(lambda xs: "[" + ",".join(xs) + "]")
_WORD_LETTER = st.builds(lambda n, e: n + e, _NAMES, st.sampled_from(["", "", "", "^1", "^-1", "^-1", "^2", "^"]))


def _spaced(*parts):
    return st.tuples(*parts).map(" ".join)


def _many(part, max_size=4):
    return st.lists(part, max_size=max_size).map(" ".join)


_CURVE_VALUES = st.one_of(_SPARSE, _VECTOR, _spaced(_SPARSE, _VECTOR), st.just("0"), st.just("0 [0]"))
_ENTRIES = _many(st.builds("{}^{}".format, _NAMES, _INTS) | _NAMES)
_STATEMENTS = st.one_of(
    _spaced(st.just("basis"), _GENERA.map("g={}".format), st.sampled_from(["", "labels ab", "labels xy", "labels"])),
    _spaced(st.just("form"), _NAMES, st.just("="), _many(st.builds("{}:{}".format, _NAMES, _INTS))),
    _spaced(st.just("curve"), _NAMES, st.just("="), _CURVE_VALUES),
    _spaced(st.just("word"), _NAMES, st.just("="), _many(_WORD_LETTER)),
    _spaced(st.just("factorization"), _NAMES, st.just("="), _ENTRIES, st.sampled_from(["power"] * 4 + ["by"]), _INTS),
    _spaced(st.sampled_from(["pencil", "check-relation", "h1", "check_relation"]), _NAMES),
    _spaced(st.just("conjugate"), _NAMES, st.just("="), _NAMES, st.sampled_from(["by", "by", "with"]), _NAMES),
    _spaced(st.just("fibersum"), _NAMES, st.just("="), _NAMES, _NAMES, st.sampled_from(["", "by a", "by a", "by"])),
    _spaced(st.sampled_from(["hurwitz", "breed"]), _NAMES, st.just("="), _NAMES, st.just("at"), _INTS,
            st.sampled_from(["left", "right", "with S", "up"])),
    _spaced(st.sampled_from(["check", "check-spin"]), _NAMES, _NAMES),
    _spaced(st.just("invariants"), _NAMES, st.sampled_from(["sigma=endo", "sigma=meyer", "sigma=paper", "sigma"])),
)
_TOKENS = st.one_of(
    _NAMES,
    _INTS,
    st.sampled_from(["basis", "g", "labels", "curve", "word", "check-spin", "sigma", "#", "\n", "-", "*", "'", "!"]),
    st.sampled_from(list(";=:,[]^+")),
)


@st.composite
def _scripts(draw):
    ends = st.sampled_from([";", "; ", ";\n", " ;\n", "; # note\n", ";;", ""])
    return "".join(statement + draw(ends) for statement in draw(st.lists(_STATEMENTS, max_size=4)))


def _round_trips_or_refuses(text):
    try:
        canon = parse_script(text).canonical()
    except (ScriptError, PreconditionError):
        return
    assert parse_script(canon).canonical() == canon


class TestScriptFuzz:
    @given(_scripts())
    def test_near_valid_scripts(self, text):
        _round_trips_or_refuses(text)

    @given(st.lists(_TOKENS, max_size=25), st.sampled_from(["", " ", "\n"]))
    def test_token_soups(self, tokens, space):
        _round_trips_or_refuses(space.join(tokens))

    @pytest.mark.parametrize("text", ["basis g=\u00b2;", "basis g=" + "9" * 5000 + ";", "check_relation F;"])
    def test_refused_spellings(self, text):
        # characters int() rejects, integers too long to convert, and '_'
        # spellings of statement names are parse errors
        with pytest.raises(ScriptError):
            parse_script(text)
