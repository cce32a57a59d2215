"""Command line front end emitting canonical JSON/TSV certificates.

Exit codes: 0 all verdicts pass, 2 parse error, 3 precondition violation,
unreadable input file or unwritable output file, 4 failed verdict or golden
mismatch.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from importlib import resources
from typing import Optional

from . import __version__
from .dsl import ScriptError, h1_results, invariants_results, parse_script, relation_results, run_script
from .factorization import apply_word, check_relation, check_spin
from .homology import PreconditionError
from .invariants import enumerate_region, invariants_of, realize, region_chunks, signature_endo, signature_meyer
from .presentations import check_fiber_genus, fibration_h1, presentation_from_text
from .constructions import (
    boundary_conjugators,
    bred_fibration,
    chain_curves,
    group_certificate,
    hyperelliptic_factorizations,
    korkmaz_cadavid,
    pencil_images,
    spin_form_all_ones,
    spin_form_alternating,
    twisted_double,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VERDICT = 4

FAMILIES = ("kc", "hyp", "hyp-rot", "double", "bred")
_HYPERELLIPTIC_FAMILIES = ("hyp", "hyp-rot", "double")  # Endo's formula applies to these
_ROWS = "\0"  # stands for the geography rows' text in a canonical JSON frame


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def certificate(command: str, inputs: dict, results: dict) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "inputs_digest": _digest(inputs),
        "results": results,
        "toolVersion": __version__,
    }


def _family_factorization(args):
    check_fiber_genus(args.g)
    family = args.family
    if args.k != 0 and family != "bred":
        raise PreconditionError(f"--k applies only to the bred family, not {family}")
    if family == "kc":
        return korkmaz_cadavid(args.g)
    if family == "hyp":
        return hyperelliptic_factorizations(args.g)[0]
    if family == "hyp-rot":
        return hyperelliptic_factorizations(args.g)[1]
    if family == "double":
        return twisted_double(args.g)
    if family == "bred":
        return bred_fibration(args.g, args.k, certify=False)[0]
    raise PreconditionError(f"unknown family {family!r}")


def _family_form(p, name: str):
    basis = p.basis
    if name == "all-ones":
        return spin_form_all_ones(basis)
    if name == "alternating":
        return spin_form_alternating(basis)
    raise PreconditionError(f"unknown form {name!r}")


def _emit(payload: dict, args, stream=None) -> None:
    stream = stream or sys.stdout
    if getattr(args, "json", False):
        stream.write(canonical_json(payload) + "\n")
    else:
        for key, value in sorted(payload["results"].items()):
            stream.write(f"{key}: {value}\n")


def _verdict_of(results: dict) -> bool:
    if "verdict" in results:
        return bool(results["verdict"])
    return True


def cmd_check_spin(args) -> int:
    p = _family_factorization(args)
    q = _family_form(p, args.form)
    cert = check_spin(p, q)
    results = {
        "all_values_one": cert.all_values_one,
        "boundary_power": cert.boundary_power,
        "power_even": cert.power_even,
        "values": [[lab, val] for lab, val in cert.entries],
        "verdict": cert.verdict,
    }
    payload = certificate("check-spin", vars_inputs(args), results)
    _emit(payload, args)
    return EXIT_OK if cert.verdict else EXIT_VERDICT


def cmd_check_relation(args) -> int:
    results = relation_results(_family_factorization(args))
    payload = certificate("check-relation", vars_inputs(args), results)
    _emit(payload, args)
    return EXIT_OK if results["verdict"] else EXIT_VERDICT


def cmd_invariants(args) -> int:
    if args.sigma == "endo" and args.family not in _HYPERELLIPTIC_FAMILIES:
        families = ", ".join(_HYPERELLIPTIC_FAMILIES)
        raise PreconditionError(f"--sigma endo needs a hyperelliptic family ({families}), not {args.family}")
    results = invariants_results(_family_factorization(args), args.sigma)
    payload = certificate("invariants", vars_inputs(args), results)
    _emit(payload, args)
    return EXIT_OK


def cmd_h1(args) -> int:
    results = h1_results(_family_factorization(args))
    payload = certificate("h1", vars_inputs(args), results)
    _emit(payload, args)
    return EXIT_OK


def vars_inputs(args) -> dict:
    keep = ("family", "g", "k", "form", "sigma", "max_m", "presentation")
    return {k: v for k, v in vars(args).items() if k in keep and v is not None}


def _write_framed(stream, frame: dict, chunks) -> None:
    """Write ``canonical_json(frame)`` and a newline, with the text ``chunks`` in place of its list ``[_ROWS]``."""
    head, tail = canonical_json(frame).split(canonical_json(_ROWS))
    stream.write(head)
    stream.writelines(chunks)
    stream.write(tail + "\n")


def cmd_geography(args) -> int:
    if args.json and args.tsv:
        raise PreconditionError("choose one of --json and --tsv")
    rows = region_chunks(args.max_m) if args.json else region_chunks(args.max_m, "%d\t%%d\t%%d\t%%d\n", "")
    if args.plot_data:
        plot = {
            "points": [_ROWS],
            "boundary_lines": [
                {"name": "noether", "equation": "n = 8*m - 48"},
                {"name": "slope-16-3", "equation": "3*n = 16*m"},
            ],
        }
        try:
            with open(args.plot_data, "w") as fh:
                _write_framed(fh, plot, region_chunks(args.max_m))
        except OSError as exc:
            raise PreconditionError(f"plot file {args.plot_data} is not writable: {exc.strerror}") from exc
    if args.json:
        _write_framed(sys.stdout, certificate("geography", vars_inputs(args), {"rows": [_ROWS]}), rows)
    else:
        sys.stdout.writelines(rows)
    return EXIT_OK


def cmd_thm_a(args) -> int:
    with open(args.presentation) as fh:
        pres = presentation_from_text(fh.read())
    cert = group_certificate(pres)
    results = {
        "input": cert.input_text,
        "normalized": cert.normalized_text,
        "genus": cert.genus,
        "copies": cert.copies,
        "length": cert.length,
        "boundary_power": cert.boundary_power,
        "relation_mod2": cert.relation_mod2,
        "relation_integral": cert.relation_integral,
        "spin": cert.spin.verdict,
        "h1": str(cert.h1),
        "target_abelianization": str(cert.target),
        "h1_matches": cert.h1_matches,
        "verdict": cert.verdict,
    }
    payload = certificate("thm-a", {"presentation_text": cert.input_text}, results)
    _emit(payload, args)
    return EXIT_OK if cert.verdict else EXIT_VERDICT


def cmd_thm_b(args) -> int:
    check_fiber_genus(args.g)
    _, cert = bred_fibration(args.g, args.k)
    results = {
        "g": cert.g,
        "k": cert.k,
        "length": cert.length,
        "boundary_power": cert.boundary_power,
        "relation_mod2": cert.relation_mod2,
        "relation_integral": cert.relation_integral if cert.relation_integral is not None else "unavailable",
        "spin": cert.spin.verdict,
        "euler": cert.invariants.euler,
        "signature": cert.invariants.signature,
        "chi_h": cert.invariants.chi_h,
        "c1_squared": cert.invariants.c1_squared,
        "h1_mod2_dimension": cert.h1_mod2_dimension,
        "chain_cover_fast_path": cert.chain_cover_fast_path,
        "b2_equals_c1_c5_c9": cert.b2_equals_c1_c5_c9,
        "b2_preimage_is_c1_in_quotient": cert.b2_preimage_is_c1_in_quotient,
        "verdict": cert.verdict,
    }
    payload = certificate("thm-b", vars_inputs(args), results)
    _emit(payload, args)
    return EXIT_OK if cert.verdict else EXIT_VERDICT


def cmd_run(args) -> int:
    with open(args.script) as fh:
        text = fh.read()
    script = parse_script(text)
    results = run_script(script)
    payloads = [certificate("run", {"query": r.pop("query")}, r) for r in results]
    if args.expect:
        return _compare_expected(payloads, args.expect)
    ok = True
    for payload in payloads:
        if args.json:
            sys.stdout.write(canonical_json(payload) + "\n")
        else:
            sys.stdout.write(payload["inputs"]["query"] + "\n")
            for key, value in sorted(payload["results"].items()):
                sys.stdout.write(f"  {key}: {value}\n")
        ok = ok and _verdict_of(payload["results"])
    return EXIT_OK if ok else EXIT_VERDICT


def _strip_version(payload: dict) -> dict:
    out = dict(payload)
    out.pop("toolVersion", None)
    return out


def _compare_expected(payloads: list[dict], path: str) -> int:
    want = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    payload = None
                if not isinstance(payload, dict):
                    raise PreconditionError(f"expect file {path} line {number}: not a JSON object")
                want.append(_strip_version(payload))
    got = [_strip_version(p) for p in payloads]
    if got == want:
        sys.stdout.write(f"ok: {len(got)} certificates match {path}\n")
        return EXIT_OK
    sys.stdout.write(f"mismatch against {path}\n")
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            sys.stdout.write(f"  certificate {i}:\n    got  {canonical_json(a)}\n    want {canonical_json(b)}\n")
    if len(got) != len(want):
        sys.stdout.write(f"  count: got {len(got)}, want {len(want)}\n")
    return EXIT_VERDICT


# --- the golden suite --------------------------------------------------------------


def golden_suite() -> dict:
    """Recompute every displayed quantity the package certifies, as one document."""
    doc: dict = {}

    spin3 = {}
    for g in (3, 5, 7, 9, 11):
        p = korkmaz_cadavid(g)
        cert = check_spin(p, spin_form_all_ones(p.basis))
        spin3[str(g)] = {
            "all_values_one": cert.all_values_one,
            "boundary_power": cert.boundary_power,
            "values": [[lab, val] for lab, val in cert.entries],
        }
    doc["building_block_spin_values"] = spin3

    spin4 = {}
    for g in (5, 7, 11):
        basis = chain_curves(g)[0].basis
        q = spin_form_alternating(basis)
        chain_vals = [[c.label, q(c.mod2)] for c in chain_curves(g)]
        image = pencil_images(g)
        pencil_vals = [[c.label, q(c.mod2)] for c in image.interior]
        spin4[str(g)] = {"chain": chain_vals, "pencil": pencil_vals}
    doc["alternating_spin_values"] = spin4

    ch = chain_curves(5)
    w_ab, w_cd = boundary_conjugators(5)
    doc["conjugator_claims"] = {
        "w_ab_c1": apply_word(w_ab, ch[0].mod2).sparse(),
        "w_ab_c3": apply_word(w_ab, ch[2].mod2).sparse(),
        "w_cd_c1": apply_word(w_cd, ch[0].mod2).sparse(),
        "w_cd_c3": apply_word(w_cd, ch[2].mod2).sparse(),
    }

    relations = {}
    for g in (3, 5, 7, 9, 11):
        r = check_relation(korkmaz_cadavid(g))
        relations[f"kc_{g}"] = [r.mod2, r.integral]
    for g in (5, 7, 9, 11):
        u, v = hyperelliptic_factorizations(g)
        ru, rv = check_relation(u), check_relation(v)
        relations[f"hyp_{g}"] = [ru.mod2, ru.integral]
        relations[f"hyp_rot_{g}"] = [rv.mod2, rv.integral]
    for g in (5, 7):
        r = check_relation(twisted_double(g))
        relations[f"double_{g}"] = [r.mod2, r.integral]
    doc["relations"] = relations

    signatures = {}
    for g in (5, 7):
        u, _ = hyperelliptic_factorizations(g)
        signatures[f"hyp_{g}"] = {
            "endo": signature_endo(u, hyperelliptic=True),
            "meyer": signature_meyer(u),
        }
    signatures["double_5"] = {"meyer": signature_meyer(twisted_double(5))}
    doc["signatures"] = signatures

    table = {}
    for g in (5, 7, 9):
        for k in (0, 1, 2, g + 1, 2 * g + 2):
            p, _ = bred_fibration(g, k, certify=False)
            inv = invariants_of(p, "paper-formula")
            table[f"{g},{k}"] = [inv.euler, inv.signature, inv.chi_h, inv.c1_squared]
    doc["bred_invariants"] = table

    doc["geography_rows"] = [
        [pt.m, pt.n, *realize(pt)] for pt in enumerate_region(20)
    ]

    h1s = {}
    u5, _ = hyperelliptic_factorizations(5)
    h1s["hyp_5"] = str(fibration_h1(u5).group)
    for g in (5, 7):
        h1s[f"kc_{g}"] = str(fibration_h1(korkmaz_cadavid(g)).group)
    for k in (0, 5, 12):
        p, _ = bred_fibration(5, k, certify=False)
        res = fibration_h1(p)
        h1s[f"bred_5_{k}"] = res.mod2_dimension if res.coefficients == "Z/2" else str(res.group)
    doc["h1_certificates"] = h1s
    return doc


def _golden_path():
    return resources.files("mcg_spinlab").joinpath("golden/paper_suite.json")


def cmd_verify_paper(args) -> int:
    computed = golden_suite()
    if args.write_golden:
        with open(str(_golden_path()), "w") as fh:
            fh.write(json.dumps(computed, indent=1, sort_keys=True) + "\n")
        sys.stdout.write("golden suite written\n")
        return EXIT_OK
    stored = json.loads(_golden_path().read_text())
    ok = True
    for section in sorted(set(computed) | set(stored)):
        same = canonical_json(computed.get(section)) == canonical_json(stored.get(section))
        ok = ok and same
        sys.stdout.write(f"{'PASS' if same else 'FAIL'}  {section}\n")
    sys.stdout.write("golden suite: " + ("all sections match\n" if ok else "MISMATCH\n"))
    return EXIT_OK if ok else EXIT_VERDICT


def _integer(text: str) -> int:
    # ASCII only: int() also accepts spaces, '_' separators and digits such as '٣'
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcg-spinlab",
        description="Certificates for positive Dehn twist factorizations at the homology level.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p, need_form=False):
        p.add_argument("--family", choices=FAMILIES, required=True)
        p.add_argument("--g", type=_integer, required=True)
        p.add_argument("--k", type=_integer, default=0)
        if need_form:
            p.add_argument("--form", choices=("all-ones", "alternating"), required=True)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("check-spin", help="per-entry form values and the parity gate")
    add_family(p, need_form=True)
    p.set_defaults(func=cmd_check_spin)

    p = sub.add_parser("check-relation", help="transvection product identity checks")
    add_family(p)
    p.set_defaults(func=cmd_check_relation)

    p = sub.add_parser("invariants", help="(e, sigma, chi_h, c1^2) of a family member")
    add_family(p)
    p.add_argument("--sigma", choices=("endo", "meyer", "paper"), required=True)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("h1", help="H1 of the fibration total space")
    add_family(p)
    p.set_defaults(func=cmd_h1)

    p = sub.add_parser("geography", help="admissible lattice points and their (g, k)")
    p.add_argument("--max-m", type=_integer, required=True, dest="max_m")
    p.add_argument("--tsv", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--plot-data", dest="plot_data")
    p.set_defaults(func=cmd_geography)

    p = sub.add_parser("thm-a", help="spin factorization with prescribed group abelianization")
    p.add_argument("--presentation", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_thm_a)

    p = sub.add_parser("thm-b", help="bred fibration certificate for a geography point")
    p.add_argument("--g", type=_integer, required=True)
    p.add_argument("--k", type=_integer, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_thm_b)

    p = sub.add_parser("verify-paper", help="recompute and compare the golden suite")
    p.add_argument("--write-golden", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("run", help="execute a certificate script")
    p.add_argument("script")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect", help="golden certificate stream to compare against")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScriptError as exc:
        sys.stderr.write(f"script error: {exc}\n")
        return EXIT_PARSE
    except PreconditionError as exc:
        sys.stderr.write(f"precondition: {exc}\n")
        return EXIT_PRECONDITION
    except (OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"unreadable input: {exc}\n")
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
