import gc
import json
import os
from bisect import bisect_right
from operator import itemgetter

import pytest

from mcg_spinlab import __version__, constructions, factorization, invariants
from mcg_spinlab.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERDICT, canonical_json, certificate, main
from mcg_spinlab.dsl import _MAX_ENTRIES
from mcg_spinlab.factorization import product_matrix_int

from . import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines_without_version(out):
    return out.replace(f',"toolVersion":"{__version__}"', "").splitlines()


class TestGeography:
    def test_tsv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "geography", "--max-m", "8")
        assert code == EXIT_OK
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows == [["6", "0", "5", "0"], ["7", "8", "5", "1"], ["8", "0", "7", "0"], ["8", "16", "5", "2"]]

    def test_plot_data(self, tmp_path, capsys):
        target = tmp_path / "plot.json"
        code, _, _ = run_cli(capsys, "geography", "--max-m", "8", "--plot-data", str(target))
        assert code == EXIT_OK
        doc = json.loads(target.read_text())
        assert len(doc["points"]) == 4
        assert len(doc["boundary_lines"]) == 2

    def test_json_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "geography", "--max-m", "8", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["rows"] == [[6, 0, 5, 0], [7, 8, 5, 1], [8, 0, 7, 0], [8, 16, 5, 2]]

    def test_json_and_tsv_conflict(self, capsys):
        code, _, err = run_cli(capsys, "geography", "--max-m", "8", "--json", "--tsv")
        assert code == EXIT_PRECONDITION

    def test_plot_data_not_writable(self, tmp_path, capsys):
        target = tmp_path / "missing" / "plot.json"
        code, out, err = run_cli(capsys, "geography", "--max-m", "7", "--plot-data", str(target))
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == f"precondition: plot file {target} is not writable: No such file or directory\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_plot_data_write_fails(self, capsys):
        # open succeeds; the write, or the flush at close, fails
        code, out, err = run_cli(capsys, "geography", "--max-m", "8", "--plot-data", "/dev/full")
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == "precondition: plot file /dev/full is not writable: No space left on device\n"

    @pytest.mark.parametrize(
        "m_max,message",
        [("-1", "region enumeration needs m_max >= 0"), ("10001", "region enumeration guarded at m <= 10^4")],
    )
    def test_region_guard(self, tmp_path, capsys, m_max, message):
        target = tmp_path / "plot.json"
        for output in ("--json", "--tsv"):
            code, out, err = run_cli(capsys, "geography", "--max-m", m_max, output, "--plot-data", str(target))
            assert (code, out, err) == (EXIT_PRECONDITION, "", f"precondition: {message}\n")
            assert not target.exists()

    def test_bytes_equal_the_row_oracle(self, tmp_path, capsys):
        target = tmp_path / "plot.json"
        lines = [{"name": "noether", "equation": "n = 8*m - 48"}, {"name": "slope-16-3", "equation": "3*n = 16*m"}]
        all_rows = oracles.region_rows(1000)
        all_tsv = [f"{m}\t{n}\t{g}\t{k}\n" for m, n, g, k in all_rows]
        for m_max in [*range(301), 400, 1000]:
            count = bisect_right(all_rows, m_max, key=itemgetter(0))
            rows = all_rows[:count]
            want_json = canonical_json(certificate("geography", {"max_m": m_max}, {"rows": rows})) + "\n"
            want_plot = canonical_json({"points": rows, "boundary_lines": lines}) + "\n"
            want_tsv = "".join(all_tsv[:count])
            argv = ("geography", "--max-m", str(m_max))
            for cold in (True, False):
                if cold:
                    invariants._region_chunk.cache_clear()
                assert run_cli(capsys, *argv, "--json") == (EXIT_OK, want_json, ""), (m_max, cold)
                if cold:
                    invariants._region_chunk.cache_clear()
                assert run_cli(capsys, *argv, "--tsv", "--plot-data", str(target)) == (EXIT_OK, want_tsv, ""), m_max
                assert target.read_text() == want_plot, (m_max, cold)

    def test_chunk_cache_is_bounded(self, monkeypatch):
        class Sink:
            def write(self, text):
                pass

            def writelines(self, texts):
                for _ in texts:
                    pass

        monkeypatch.setattr("sys.stdout", Sink())
        assert main(["geography", "--max-m", "10000"]) == EXIT_OK
        info = invariants._region_chunk.cache_info()
        assert info.currsize == info.maxsize == 512
        main(["geography", "--max-m", "400", "--json"])
        misses = invariants._region_chunk.cache_info().misses
        main(["geography", "--max-m", "400", "--json"])
        assert invariants._region_chunk.cache_info().misses == misses

    def test_builds_no_point(self, capsys, monkeypatch):
        _, want, _ = run_cli(capsys, "geography", "--max-m", "200", "--json")

        def no_point(*args):
            raise AssertionError("geography built a GeographyPoint")

        monkeypatch.setattr(invariants, "GeographyPoint", no_point)
        code, out, _ = run_cli(capsys, "geography", "--max-m", "200", "--json")
        assert (code, out) == (EXIT_OK, want)


@pytest.mark.parametrize(
    "argv",
    [
        ["geography", "--max-m", "٣٠"],
        ["geography", "--max-m", "1_0"],
        ["geography", "--max-m", " 8"],
        ["thm-b", "--g", " 5", "--k", "0"],
        ["thm-b", "--g", "٥", "--k", "0"],
        ["thm-b", "--g", "5", "--k", "1_0"],
        ["h1", "--family", "kc", "--g", "+-5"],
        ["check-relation", "--family", "bred", "--g", "5", "--k", "٠"],
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    # int() reads all of these but '+-5' as numbers
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (EXIT_PARSE, "")
    assert "invalid integer" in err


def test_integer_options_take_a_sign(capsys):
    _, want, _ = run_cli(capsys, "geography", "--max-m", "8", "--json")
    assert run_cli(capsys, "geography", "--max-m", "+8", "--json") == (EXIT_OK, want, "")


class TestThmB:
    def test_json_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "thm-b", "--g", "5", "--k", "1", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["chi_h"] == 7
        assert doc["results"]["c1_squared"] == 8
        assert doc["results"]["verdict"] is True

    def test_bad_k(self, capsys):
        code, _, err = run_cli(capsys, "thm-b", "--g", "5", "--k", "99")
        assert code == EXIT_PRECONDITION
        assert "precondition" in err

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "thm-b", "--g", "5", "--k", "2", "--json")
        _, out2, _ = run_cli(capsys, "thm-b", "--g", "5", "--k", "2", "--json")
        assert out1 == out2

    def test_warm_request_checks_no_flat_word(self, capsys, monkeypatch):
        # warm, the certificate comes from per-genus pieces: the bred word is
        # not multiplied, spin-checked or ranked
        argv = ("thm-b", "--g", "25", "--k", "10", "--json")
        _, want, _ = run_cli(capsys, *argv)

        def refuse(*args):
            raise AssertionError("a warm thm-b checked the flat word")

        for name in ("product_matrix_mod2", "check_spin", "fibration_h1"):
            monkeypatch.setattr(constructions, name, refuse)
        monkeypatch.setattr(factorization, "product_matrix_mod2", refuse)
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_OK, want)


class TestThmA:
    def test_cyclic_group(self, tmp_path, capsys):
        pres = tmp_path / "z2.txt"
        pres.write_text("gens: x; rel: x^2;")
        code, out, _ = run_cli(capsys, "thm-a", "--presentation", str(pres), "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["h1"] == "Z/2"
        assert doc["results"]["h1_matches"] is True

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "thm-a", "--presentation", "/nonexistent.txt")
        assert code == EXIT_PRECONDITION

    def test_directory(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "thm-a", "--presentation", str(tmp_path))
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err.count("\n") == 1

    def test_not_utf8(self, tmp_path, capsys):
        pres = tmp_path / "latin1.txt"
        pres.write_bytes(b"gens: \xe9; rel: \xe9^2;")
        code, out, err = run_cli(capsys, "thm-a", "--presentation", str(pres))
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", ["gens: a; rel: a^x;", "gens: a; rel: a^;"])
    def test_malformed_exponent(self, tmp_path, capsys, text):
        pres = tmp_path / "bad.txt"
        pres.write_text(text)
        code, out, err = run_cli(capsys, "thm-a", "--presentation", str(pres))
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert "exponent" in err

    def test_exponent_with_an_underscore(self, tmp_path, capsys):
        # int() would read 1_0 as 10 and certify Z/10
        pres = tmp_path / "bad.txt"
        pres.write_text("gens: a; rel: a^1_0;")
        code, out, err = run_cli(capsys, "thm-a", "--presentation", str(pres))
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "precondition: bad exponent in 'a^1_0'\n"

    @pytest.mark.parametrize(
        "text, genus",
        [
            ("gens: x; rel: x^100000000000000000000;", 2 * (2 + 10**20) + 1),
            # 2(2n + sum |r_i|) + 1 = 67, one step over the genus limit of 65
            ("gens: x; rel: x^31;", 67),
        ],
    )
    def test_over_the_genus_limit(self, tmp_path, capsys, text, genus):
        pres = tmp_path / "big.txt"
        pres.write_text(text)
        code, out, err = run_cli(capsys, "thm-a", "--presentation", str(pres))
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == f"precondition: presentation needs fiber genus {genus}, above the limit 65\n"

    def test_genus_33_reference_from_the_block_layout(self, tmp_path, capsys, monkeypatch):
        # the certificate comes from the block layout: no block is conjugated,
        # and only the block itself is multiplied out
        def no_conjugate(*args):
            raise AssertionError("thm-a conjugated a block")

        letters = []

        def counting_product(p):
            letters.append(len(p))
            return product_matrix_int(p)

        monkeypatch.setattr(constructions, "conjugate", no_conjugate)
        monkeypatch.setattr(factorization, "product_matrix_int", counting_product)
        constructions._block_relation.cache_clear()
        pres = tmp_path / "g33.txt"
        pres.write_text("gens: x0 x1 x2; rel: x0^2; rel: x1^2; rel: x2^2; rel: x0 x1 x0^-1 x1^-1;")
        code, out, _ = run_cli(capsys, "thm-a", "--presentation", str(pres), "--json")
        assert code == EXIT_OK
        assert 0 < sum(letters) <= len(constructions.korkmaz_cadavid(33))
        assert json_lines_without_version(out) == [
            '{"command":"thm-a","inputs":{"presentation_text":"gens: x0 x1 x2; rel: x0 x0; rel: x1 x1; rel: x2 x2; '
            'rel: x0 x1 x0^-1 x1^-1;"},"inputs_digest":"4536e58bf970cf90","results":{"boundary_power":52,'
            '"copies":52,"genus":33,"h1":"Z/2 + Z/2 + Z/2","h1_matches":true,"input":"gens: x0 x1 x2; '
            'rel: x0 x0; rel: x1 x1; rel: x2 x2; rel: x0 x1 x0^-1 x1^-1;","length":3952,"normalized":'
            '"gens: x0 x1 x2 x0_i x1_i x2_i z z1 z2 z3 z4 z5 z6 z7 z8 z9; rel: x0 x0_i; rel: x1 x1_i; '
            'rel: x2 x2_i; rel: z x0_i; rel: z1 x0_i; rel: z z1; rel: z2 x1_i; rel: z3 x1_i; rel: z2 z3; '
            'rel: z4 x2_i; rel: z5 x2_i; rel: z4 z5; rel: z6 x0_i; rel: z7 x1_i; rel: z8 x0; rel: z9 x1; '
            'rel: z6 z7 z8 z9;","relation_integral":true,"relation_mod2":true,"spin":true,'
            '"target_abelianization":"Z/2 + Z/2 + Z/2","verdict":true}}'
        ]


class TestFamilies:
    def test_check_relation_families(self, capsys):
        code, out, _ = run_cli(capsys, "check-relation", "--family", "kc", "--g", "5", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["mod2"] is True and doc["results"]["integral"] is True

    def test_check_relation_bred(self, capsys):
        code, out, _ = run_cli(capsys, "check-relation", "--family", "bred", "--g", "5", "--k", "1", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["mod2"] is True and doc["results"]["integral"] == "unavailable"

    def test_check_spin_parity_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "check-spin", "--family", "hyp", "--g", "5", "--form", "alternating", "--json"
        )
        assert code == EXIT_VERDICT
        doc = json.loads(out)
        assert doc["results"]["all_values_one"] is True
        assert doc["results"]["power_even"] is False

    def test_h1_bred(self, capsys):
        code, out, _ = run_cli(capsys, "h1", "--family", "bred", "--g", "5", "--k", "3", "--json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"] == {"coefficients": "Z/2", "dimension": 0}

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-spin", "--family", "kc", "--form", "all-ones"),
            ("check-relation", "--family", "kc"),
            ("invariants", "--family", "hyp", "--sigma", "paper"),
            ("h1", "--family", "kc"),
            ("thm-b", "--k", "0"),
        ],
    )
    def test_over_the_genus_limit(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--g", "67")
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "precondition: genus 67 is above the limit 65\n"

    def test_at_the_genus_limit(self, capsys):
        # the kc block fails the parity gate at every genus (odd boundary power)
        code, out, _ = run_cli(capsys, "check-spin", "--family", "kc", "--g", "65", "--form", "all-ones", "--json")
        assert code == EXIT_VERDICT
        assert json.loads(out)["results"]["all_values_one"] is True
        code, _, _ = run_cli(
            capsys, "check-spin", "--family", "bred", "--g", "65", "--k", "1", "--form", "alternating"
        )
        assert code == EXIT_OK

    def test_invariants_paper_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", "--family", "bred", "--g", "7", "--k", "2", "--sigma", "paper", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["euler"] == 12 * 8 + 8
        assert doc["results"]["signature"] == -64

    @pytest.mark.parametrize(
        "command",
        [("check-spin", "--form", "alternating"), ("check-relation",), ("invariants", "--sigma", "meyer"), ("h1",)],
        ids=["check-spin", "check-relation", "invariants", "h1"],
    )
    @pytest.mark.parametrize("family", ["kc", "hyp", "hyp-rot", "double"])
    def test_k_only_for_the_bred_family(self, capsys, command, family):
        # --k would be recorded in the inputs of a word that ignores it
        argv = (command[0], "--family", family, "--g", "5", *command[1:], "--json")
        for k in ("1", "7"):
            code, out, err = run_cli(capsys, *argv, "--k", k)
            assert (code, out) == (EXIT_PRECONDITION, "")
            assert err == f"precondition: --k applies only to the bred family, not {family}\n"
        _, default, _ = run_cli(capsys, *argv)
        code, zero, _ = run_cli(capsys, *argv, "--k", "0")
        assert code in (EXIT_OK, EXIT_VERDICT) and zero == default

    @pytest.mark.parametrize("argv", [("--family", "bred", "--k", "11"), ("--family", "kc")])
    def test_invariants_endo_needs_a_hyperelliptic_family(self, capsys, argv):
        # these words are not certified hyperelliptic: Endo's formula would give
        # bred(5, 11) signature -72, not -8(g+1) = -48
        code, out, err = run_cli(capsys, "invariants", *argv, "--g", "5", "--sigma", "endo")
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == (
            f"precondition: --sigma endo needs a hyperelliptic family (hyp, hyp-rot, double), not {argv[1]}\n"
        )


class TestRun:
    def test_script_roundtrip_and_expect(self, tmp_path, capsys):
        script = tmp_path / "s.spin"
        script.write_text("basis g=5; form q = x*:1 y1:1 y3:1 y5:1; curve a = y3; check q a;")
        code, out, _ = run_cli(capsys, "run", str(script), "--json")
        assert code == EXIT_OK
        golden = tmp_path / "golden.jsonl"
        golden.write_text(out)
        code, out2, _ = run_cli(capsys, "run", str(script), "--expect", str(golden))
        assert code == EXIT_OK and "match" in out2

    def test_expect_mismatch(self, tmp_path, capsys):
        script = tmp_path / "s.spin"
        script.write_text("basis g=5; form q = x*:1; curve a = y3; check q a;")
        golden = tmp_path / "golden.jsonl"
        golden.write_text('{"command":"run","inputs":{"query":"check q a;"},"inputs_digest":"x","results":{"curve":"a","form":"q","value":1}}\n')
        code, out, _ = run_cli(capsys, "run", str(script), "--expect", str(golden))
        assert code == EXIT_VERDICT

    @pytest.mark.parametrize("line", ["not json", "[1]"])
    def test_expect_line_not_an_object(self, tmp_path, capsys, line):
        script = tmp_path / "s.spin"
        script.write_text("basis g=5; form q = x*:1; curve a = y3; check q a;")
        golden = tmp_path / "golden.jsonl"
        golden.write_text(f"\n{line}\n")
        code, out, err = run_cli(capsys, "run", str(script), "--expect", str(golden))
        assert code == EXIT_PRECONDITION and out == ""
        assert err == f"precondition: expect file {golden} line 2: not a JSON object\n"

    def test_parse_error_exit(self, tmp_path, capsys):
        script = tmp_path / "bad.spin"
        script.write_text("basis g=5; curve z = x9;")
        code, _, err = run_cli(capsys, "run", str(script))
        assert code == EXIT_PARSE
        assert "script error" in err

    def test_basis_over_the_genus_limit(self, tmp_path, capsys):
        # a basis is a declaration: refused as a parse error at its position
        script = tmp_path / "big.spin"
        script.write_text("basis g=5;\n  basis g=66; pencil S;")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == EXIT_PARSE and out == ""
        assert err == "script error: 2:3: genus 66 is above the limit 65\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("basis g=2; form q = xy*:1; curve a = y1; check q a;", "1:12: unknown label family 'xy*'"),
            ("basis g=2 labels ab; form q = ab*:1; curve a = b1; check q a;", "1:22: unknown label family 'ab*'"),
        ],
    )
    def test_wildcard_of_two_letters(self, tmp_path, capsys, text, message):
        # a wildcard is one label letter followed by '*'
        script = tmp_path / "bad.spin"
        script.write_text(text)
        code, out, err = run_cli(capsys, "run", str(script))
        assert (code, out, err) == (EXIT_PARSE, "", f"script error: {message}\n")

    def test_basis_at_the_genus_limit(self, tmp_path, capsys):
        script = tmp_path / "limit.spin"
        script.write_text("basis g=65; pencil S;")
        code, out, err = run_cli(capsys, "run", str(script))
        assert (code, out, err) == (EXIT_OK, "", "")

    def test_inconsistent_curve_exit(self, tmp_path, capsys):
        script = tmp_path / "bad.spin"
        script.write_text("basis g=1; curve w = x1 [0,1];")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == EXIT_PARSE and out == ""
        assert err == "script error: 1:12: sparse class does not match the integer vector mod 2\n"

    @pytest.mark.parametrize(
        "vector,message",
        [
            ("[3,0]", "curve a: integer class is not primitive (gcd 3)"),
            ("[-3,9]", "curve a: integer class is not primitive (gcd 3)"),
            ("[2,0]", "curve a: nonseparating curve with zero mod-2 class"),
        ],
    )
    def test_non_primitive_curve_exit(self, tmp_path, capsys, vector, message):
        script = tmp_path / "bad.spin"
        script.write_text(f"basis g=1; curve a = {vector}; factorization F = a power 0; h1 F;")
        code, out, err = run_cli(capsys, "run", str(script))
        assert (code, out, err) == (EXIT_PARSE, "", f"script error: 1:12: {message}\n")

    @pytest.mark.parametrize("exponent", ["100000000000000000000", str(_MAX_ENTRIES)])
    def test_entry_count_over_the_limit(self, tmp_path, capsys, exponent):
        script = tmp_path / "big.spin"
        script.write_text(f"basis g=1; curve a = x1;\nfactorization F = a a^{exponent} power 0;")
        code, out, err = run_cli(capsys, "run", str(script))
        assert code == EXIT_PARSE and out == ""
        assert err == f"script error: 2:21: factorization has more than {_MAX_ENTRIES} entries\n"

    def test_entry_count_at_the_limit(self, tmp_path, capsys):
        script = tmp_path / "limit.spin"
        script.write_text(
            f"basis g=1; form q = x*:1; curve a = [1,0];\nfactorization F = a a^{_MAX_ENTRIES - 1} power 0; check-spin F q;"
        )
        code, out, err = run_cli(capsys, "run", str(script), "--json")
        assert (code, err) == (EXIT_OK, "")
        assert len(json.loads(out)["results"]["entries"]) == _MAX_ENTRIES

    def test_fiber_sum_over_the_limit(self, tmp_path, capsys):
        # each declaration is within the limit; their fiber sum is not
        script = tmp_path / "sum.spin"
        script.write_text(
            "basis g=1; curve a = x1;\nfactorization F = a^6000 power 0;\nfactorization G = a^6000 power 0;\n"
            "fibersum H = F G;\nh1 H;"
        )
        code, out, err = run_cli(capsys, "run", str(script))
        assert (code, out) == (EXIT_PRECONDITION, "")
        assert err == f"precondition: 4:1: factorization H would have 12000 entries, more than {_MAX_ENTRIES}\n"

    def test_unreadable_script_exit(self, tmp_path, capsys):
        script = tmp_path / "latin1.spin"
        script.write_bytes(b"basis g=1; # \xe9\n")
        for path in (tmp_path, script):
            code, out, err = run_cli(capsys, "run", str(path))
            assert code == EXIT_PRECONDITION
            assert out == ""
            assert err.count("\n") == 1

    def test_runtime_precondition_exit(self, tmp_path, capsys):
        script = tmp_path / "pre.spin"
        script.write_text("basis g=1; curve a = x1; factorization F = a power 0; hurwitz G = F at 5 right;")
        code, _, err = run_cli(capsys, "run", str(script))
        assert code == EXIT_PRECONDITION
        assert "1:" in err


class TestVerifyPaper:
    def test_golden_suite_matches(self, capsys):
        code, out, _ = run_cli(capsys, "verify-paper")
        assert code == EXIT_OK
        assert "all sections match" in out
        assert out.count("PASS") >= 8


class TestQueryBytes:
    """Full certificate lines of the factorization queries, toolVersion removed."""

    CASES = [
        (("check-relation", "--family", "kc", "--g", "5"),
         '{"command":"check-relation","inputs":{"family":"kc","g":5,"k":0},"inputs_digest":"0985d625e8367727","results":{"integral":true,"mod2":true,"verdict":true}}'),
        (("check-relation", "--family", "bred", "--g", "5", "--k", "1"),
         '{"command":"check-relation","inputs":{"family":"bred","g":5,"k":1},"inputs_digest":"31b5a82016a30b5d","results":{"integral":"unavailable","mod2":true,"verdict":true}}'),
        (("invariants", "--family", "hyp", "--g", "5", "--sigma", "endo"),
         '{"command":"invariants","inputs":{"family":"hyp","g":5,"k":0,"sigma":"endo"},"inputs_digest":"45371eda43422835","results":{"c1_squared":-16,"chi_h":1,"euler":28,"signature":-24,"signature_method":"endo-hyperelliptic"}}'),
        (("invariants", "--family", "kc", "--g", "5", "--sigma", "meyer"),
         '{"command":"invariants","inputs":{"family":"kc","g":5,"k":0,"sigma":"meyer"},"inputs_digest":"364b68c535d5962e","results":{"c1_squared":-16,"chi_h":-1,"euler":4,"signature":-8,"signature_method":"meyer"}}'),
        (("invariants", "--family", "bred", "--g", "5", "--k", "2", "--sigma", "paper"),
         '{"command":"invariants","inputs":{"family":"bred","g":5,"k":2,"sigma":"paper"},"inputs_digest":"cf17ebd34b940e7a","results":{"c1_squared":16,"chi_h":8,"euler":80,"signature":-48,"signature_method":"paper-formula"}}'),
        (("h1", "--family", "kc", "--g", "5"),
         '{"command":"h1","inputs":{"family":"kc","g":5,"k":0},"inputs_digest":"0985d625e8367727","results":{"coefficients":"Z","group":"Z^4"}}'),
        (("h1", "--family", "bred", "--g", "5", "--k", "3"),
         '{"command":"h1","inputs":{"family":"bred","g":5,"k":3},"inputs_digest":"76dfcd10edffaa22","results":{"coefficients":"Z/2","dimension":0}}'),
        (("invariants", "--family", "hyp-rot", "--g", "5", "--sigma", "endo"),
         '{"command":"invariants","inputs":{"family":"hyp-rot","g":5,"k":0,"sigma":"endo"},"inputs_digest":"64855bc1cf39a59c","results":{"c1_squared":-16,"chi_h":1,"euler":28,"signature":-24,"signature_method":"endo-hyperelliptic"}}'),
        (("invariants", "--family", "double", "--g", "5", "--sigma", "endo"),
         '{"command":"invariants","inputs":{"family":"double","g":5,"k":0,"sigma":"endo"},"inputs_digest":"40a085736277cda7","results":{"c1_squared":0,"chi_h":6,"euler":72,"signature":-48,"signature_method":"endo-hyperelliptic"}}'),
    ]

    # the genus-1 relation (t_a t_b)^6 over Z, and t_m^2 known only mod 2
    SCRIPT = """basis g=1;
curve a = x1 [1,0];
curve b = y1 [0,1];
curve m = x1;
factorization T = a b a b a b a b a b a b power 1;
factorization M = m^2 power 0;
check-relation T;
check-relation M;
invariants T sigma=endo;
invariants T sigma=meyer;
h1 T;
h1 M;
"""
    SCRIPT_LINES = [
        '{"command":"run","inputs":{"query":"check-relation T;"},"inputs_digest":"820e2311694d0b61","results":{"integral":true,"mod2":true,"verdict":true}}',
        '{"command":"run","inputs":{"query":"check-relation M;"},"inputs_digest":"b1c555ef0e3d5c85","results":{"integral":"unavailable","mod2":true,"verdict":true}}',
        '{"command":"run","inputs":{"query":"invariants T sigma=endo;"},"inputs_digest":"16b77be4a039fba3","results":{"c1_squared":0,"chi_h":1,"euler":12,"signature":-8,"signature_method":"endo-hyperelliptic"}}',
        '{"command":"run","inputs":{"query":"invariants T sigma=meyer;"},"inputs_digest":"660b071bfd4268b3","results":{"c1_squared":0,"chi_h":1,"euler":12,"signature":-8,"signature_method":"meyer"}}',
        '{"command":"run","inputs":{"query":"h1 T;"},"inputs_digest":"89e02ea6f1ae43ec","results":{"coefficients":"Z","group":"0"}}',
        '{"command":"run","inputs":{"query":"h1 M;"},"inputs_digest":"8194be9d255f4aab","results":{"coefficients":"Z/2","dimension":1}}',
    ]

    @pytest.mark.parametrize("argv,line", CASES)
    def test_cli_query(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == EXIT_OK
        assert json_lines_without_version(out) == [line]

    def test_script_queries(self, tmp_path, capsys):
        script = tmp_path / "queries.spin"
        script.write_text(self.SCRIPT)
        code, out, _ = run_cli(capsys, "run", str(script), "--json")
        assert code == EXIT_OK
        assert json_lines_without_version(out) == self.SCRIPT_LINES

    def test_script_paper_source_needs_the_bred_family(self, tmp_path, capsys):
        script = tmp_path / "paper.spin"
        script.write_text(self.SCRIPT.split("check-relation")[0] + "invariants T sigma=paper;\n")
        code, out, err = run_cli(capsys, "run", str(script), "--json")
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert err == "precondition: 7:1: fixed-signature source only applies to the bred family\n"


class TestParserReuse:
    def test_main_leaves_no_reference_cycles(self, capsys):
        main(["geography", "--max-m", "8"])
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            main(["geography", "--max-m", "8"])
            unreachable = gc.collect()
        finally:
            if enabled:
                gc.enable()
        capsys.readouterr()
        assert unreachable == 0
