"""Tests of the benchmark's own logic: tail rule, self time, seeding, checks, rebinding.

    python3 -m pytest certbench/tests -q
"""

import io
import json
import sys
from contextlib import redirect_stdout

import pytest

import run
import tracing
import workloads
from worker import run_pass


# --- tail percentile --------------------------------------------------------------


def test_tail_takes_the_sample_with_ten_beyond_it():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_tail_needs_a_percentile_above_the_median():
    assert run.tail([float(i) for i in range(21)]) is None
    value, percentile, beyond = run.tail([float(i) for i in range(22)])
    assert (value, beyond) == (11.0, 10)
    assert value > sorted(range(22))[11 - 1]


def test_tail_with_few_samples():
    assert run.tail([]) is None
    assert run.tail([3.0, 1.0, 2.0]) is None


def _records(rounds, mix):
    return [{"s": s, "round": r} for r in range(rounds) for s in mix]


def test_tail_of_leading_rounds_does_not_move_with_the_run_length():
    # prescribed-group's mix: six fast requests and one slow one per round.
    mix = [0.25] * 6 + [3.0]
    short = run.leading_tail(_records(6, mix), 6)
    assert short == run.leading_tail(_records(11, mix), 6)
    assert short == run.leading_tail(_records(30, mix), 6)
    assert short[0] == 0.25 and short[3]
    # Over all 11 rounds the same rule would land on the slow mode instead.
    assert run.tail([r["s"] for r in _records(11, mix)])[0] == 3.0


def test_tail_of_too_few_leading_samples_is_their_maximum():
    value, percentile, beyond, met = run.leading_tail(_records(8, [4.0, 5.0]), 5)
    assert (value, percentile, beyond, met) == (5.0, 100.0, 0, False)


# --- self time ----------------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_of_nested_spans():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 9.0, 0), _span("c", 2.0, 5.0, 1)]
    assert tracing.self_times(spans) == pytest.approx([2.0, 5.0, 3.0])


def test_self_time_of_sibling_spans():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 3.0, 0), _span("c", 4.0, 8.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 6.0, 0), _span("c", 4.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


# --- seeded inputs --------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_the_same_inputs(workload):
    assert workloads.stream(workload, 7) == workloads.stream(workload, 7)


@pytest.mark.parametrize("workload", ["prescribed-group", "geography-sweep"])
def test_another_seed_gives_other_inputs(workload):
    assert workloads.stream(workload, 7) != workloads.stream(workload, 8)


def test_presentations_stay_within_the_reference_genus():
    for rnd in workloads.stream("prescribed-group", 3):
        for req in rnd:
            gens, *rels = [part.strip() for part in req.presentation.split(";") if part.strip()]
            n = len(gens.split(":")[1].split())
            mass = sum(abs(int(tok.split("^")[1])) if "^" in tok else 1
                       for rel in rels for tok in rel.split(":")[1].split())
            assert 1 <= n <= 3 and 1 <= len(rels) <= 4
            assert 2 * (2 * n + mass) + 1 <= workloads.MAX_GENUS


# --- output checks ----------------------------------------------------------------------


def _thm_b(g, k):
    import mcg_spinlab.cli as cli

    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["thm-b", "--g", str(g), "--k", str(k), "--json"])
    return rc, out.getvalue()


def test_a_correct_certificate_passes():
    rc, out = _thm_b(5, 2)
    assert workloads.check(workloads.Request("thm-b", g=5, k=2), rc, out) is None


def test_a_corrupted_certificate_raises_the_error_rate(monkeypatch):
    import mcg_spinlab.cli as cli

    rc, out = _thm_b(5, 2)
    cert = json.loads(out)
    cert["results"]["euler"] += 1
    corrupted = json.dumps(cert, sort_keys=True, separators=(",", ":")) + "\n"
    assert "euler" in workloads.check(workloads.Request("thm-b", g=5, k=2), rc, corrupted)

    def fake_main(argv):
        sys.stdout.write(corrupted)
        return 0

    monkeypatch.setattr(cli, "main", fake_main)
    rounds = [[workloads.Request("thm-b", g=5, k=2), workloads.Request("geography", max_m=30)]]
    records = run_pass(cli, rounds, round_limit=1)
    failed = sum(r["failure"] is not None for r in records)
    assert failed / len(records) == 1.0


def test_a_corrupted_thm_a_certificate_fails(tmp_path):
    import mcg_spinlab.cli as cli

    path = tmp_path / "p.txt"
    path.write_text("gens: x0; rel: x0^2;\n")
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(["thm-a", "--presentation", str(path), "--json"])
    request = workloads.Request("thm-a", presentation="gens: x0; rel: x0^2;\n")
    assert workloads.check(request, rc, out.getvalue()) is None

    def corrupt(change):
        cert = json.loads(out.getvalue())
        change(cert["results"])
        return workloads.check(request, rc, json.dumps(cert))

    assert "h1" in corrupt(lambda res: res.update(h1="Z/4"))
    assert "h1" in corrupt(lambda res: res.pop("h1"))
    assert "h1" in corrupt(lambda res: (res.pop("h1"), res.pop("target_abelianization")))
    assert "verdict" in corrupt(lambda res: res.update(verdict=False))


def test_reference_mismatch_is_a_failure():
    import mcg_spinlab.cli as cli

    rounds = [[workloads.Request("thm-b", g=5, k=2)]]
    rc, out = _thm_b(5, 2)
    good = run_pass(cli, rounds, round_limit=1, reference=[[workloads.digest(out)]])
    bad = run_pass(cli, rounds, round_limit=1, reference=[["0" * 64]])
    assert good[0]["failure"] is None
    assert "reference" in bad[0]["failure"]


def test_digest_ignores_the_tool_version():
    a = '{"command":"x","results":{},"toolVersion":"0.1.0"}\n'
    b = '{"command":"x","results":{},"toolVersion":"9.9.9"}\n'
    assert workloads.digest(a) == workloads.digest(b)
    assert workloads.digest(a) != workloads.digest(a.replace('"x"', '"y"'))


def test_geography_rows_match_the_cli():
    import mcg_spinlab.cli as cli

    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["geography", "--max-m", "60", "--json"])
    assert json.loads(out.getvalue())["results"]["rows"] == workloads.geography_rows(60)


# --- tracing restores the package -----------------------------------------------------


def _bindings():
    import mcg_spinlab.homology as homology

    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "mcg_spinlab" or name.startswith("mcg_spinlab.")}
    return mods, dict(vars(homology.IntMatrix))


def test_tracer_restores_every_binding_and_counts_layers():
    import mcg_spinlab.cli as cli

    before = _bindings()
    with tracing.Tracer() as tracer:
        assert cli.main is not before[0]["mcg_spinlab.cli"]["main"]
        records = run_pass(cli, [[workloads.Request("thm-b", g=5, k=1)]], round_limit=1, tracer=tracer)
    after = _bindings()
    assert after[1] == before[1]
    for name, attrs in before[0].items():
        assert after[0][name] == attrs, name
    assert records[0]["failure"] is None
    layers = tracer.metrics()
    assert layers["cli.main.calls"] == 1
    assert layers["constructions.bred_fibration.calls"] == 1
    assert layers["homology.intersect.calls"] > 0
    assert layers["trace.layer_self_s"] <= layers["trace.wall_s"]


def test_benchmark_json_names_only_measured_metrics():
    import os

    import mcg_spinlab.cli  # noqa: F401  (the tracer wraps loaded modules)

    with open(os.path.join(os.path.dirname(run.WORKER), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with tracing.Tracer() as tracer:
        pass
    measured = set(tracer.metrics()) | {"cli.main.output_bytes", "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} <= measured
