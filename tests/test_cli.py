import json

import pytest

from mcg_spinlab.cli import EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_VERDICT, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
