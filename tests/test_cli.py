import gc
import json

import pytest

from mcg_spinlab import __version__
from mcg_spinlab.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERDICT, main


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

    def test_invariants_paper_source(self, capsys):
        code, out, _ = run_cli(
            capsys, "invariants", "--family", "bred", "--g", "7", "--k", "2", "--sigma", "paper", "--json"
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["results"]["euler"] == 12 * 8 + 8
        assert doc["results"]["signature"] == -64


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

    def test_parse_error_exit(self, tmp_path, capsys):
        script = tmp_path / "bad.spin"
        script.write_text("basis g=5; curve z = x9;")
        code, _, err = run_cli(capsys, "run", str(script))
        assert code == EXIT_PARSE
        assert "script error" in err

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
