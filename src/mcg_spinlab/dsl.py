"""A small scripting language for declaring classes, forms and factorizations
and running the certificate queries on them.

Grammar (statements end with ';', names must be declared before use):

    basis g=5 [labels ab];
    form q = x*:1 y1:1 y3:1;         a wildcard is one label letter then '*'
    curve a = y3;                    sparse mod-2 class
    curve v = [0,1,0,-1,0,0];        primitive integer class (gcd 1), mod-2 derived
    curve w = x1+y2 [1,0,...];       integer class, sparse form checked against it
    word phi = c1 c2^-1 a;           twists, rightmost acts first on classes
    factorization F = c1^3 a power 1; any stored factorization has at most _MAX_ENTRIES entries
    pencil S;                        the standard genus-2 pencil image catalog
    conjugate G = F by phi;
    fibersum H = F G [by phi];
    hurwitz G = F at 0 right;
    breed G = F at 2 with S;
    check q a;                       evaluate the form on a curve
    check-spin F q;
    check-relation F;
    invariants F sigma=endo|meyer|paper;  endo asserts that F is hyperelliptic
    h1 F;
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .constructions import pencil_images
from .factorization import (
    Curve,
    PositiveFactorization,
    TwistWord,
    breed,
    check_relation,
    check_spin,
    conjugate,
    fiber_sum,
    hurwitz_move,
)
from .homology import ClassInt, ClassMod2, PreconditionError, QuadraticForm, SurfaceBasis
from .invariants import invariants_of
from .presentations import check_fiber_genus, fibration_h1


class ScriptError(ValueError):
    """Parse or execution failure with a source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # "name", "int", "punct"
    text: str
    line: int
    column: int


_PUNCT = set(";=:,[]^")
# Entries a stored factorization may hold, declared or made by conjugate,
# fibersum, hurwitz or breed; at genus 65 a relation check on this many
# twists of sparse classes takes under a second.
_MAX_ENTRIES = 10_000
# ASCII only: str.isdigit also accepts characters such as '²' that int() rejects
_DIGITS = frozenset("0123456789")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch in _DIGITS or (ch == "-" and i + 1 < len(text) and text[i + 1] in _DIGITS):
            j = i + 1
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_*'" or
                                     (text[j] == "-" and j + 1 < len(text) and (text[j + 1].isalpha() or text[j + 1] == "_"))):
                j += 1
            tokens.append(Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch == "+":
            tokens.append(Token("punct", "+", line, start_col))
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ScriptError(f"unexpected character {ch!r}", line, col)
    return tokens


@dataclass(frozen=True)
class Statement:
    kind: str
    args: tuple
    line: int = field(compare=False)
    column: int = field(compare=False)


@dataclass(frozen=True)
class Script:
    statements: tuple[Statement, ...]

    def canonical(self) -> str:
        return "\n".join(_render(s) for s in self.statements) + ("\n" if self.statements else "")


def _render(s: Statement) -> str:
    a = s.args
    if s.kind == "basis":
        extra = f" labels {a[1]}" if a[1] != "xy" else ""
        return f"basis g={a[0]}{extra};"
    if s.kind == "form":
        pairs = " ".join(f"{lab}:{bit}" for lab, bit in a[1])
        return f"form {a[0]} = {pairs};"
    if s.kind == "curve":
        parts = [f"curve {a[0]} ="]
        if a[1] is not None:
            parts.append(a[1])
        if a[2] is not None:
            parts.append("[" + ",".join(str(c) for c in a[2]) + "]")
        return " ".join(parts) + ";"
    if s.kind == "word":
        letters = " ".join(f"{name}^-1" if e == -1 else name for name, e in a[1])
        return f"word {a[0]} = {letters};".replace(" ;", ";")
    if s.kind == "factorization":
        entries = " ".join(name if rep == 1 else f"{name}^{rep}" for name, rep in a[1])
        return f"factorization {a[0]} = {entries} power {a[2]};"
    if s.kind == "pencil":
        return f"pencil {a[0]};"
    if s.kind == "conjugate":
        return f"conjugate {a[0]} = {a[1]} by {a[2]};"
    if s.kind == "fibersum":
        tail = f" by {a[3]}" if a[3] is not None else ""
        return f"fibersum {a[0]} = {a[1]} {a[2]}{tail};"
    if s.kind == "hurwitz":
        return f"hurwitz {a[0]} = {a[1]} at {a[2]} {a[3]};"
    if s.kind == "breed":
        return f"breed {a[0]} = {a[1]} at {a[2]} with {a[3]};"
    if s.kind == "check":
        return f"check {a[0]} {a[1]};"
    if s.kind == "check-spin":
        return f"check-spin {a[0]} {a[1]};"
    if s.kind == "check-relation":
        return f"check-relation {a[0]};"
    if s.kind == "invariants":
        return f"invariants {a[0]} sigma={a[1]};"
    if s.kind == "h1":
        return f"h1 {a[0]};"
    raise AssertionError(f"unknown statement kind {s.kind}")


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect_kind: Optional[str] = None, expect_text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("punct", "", 1, 1)
            raise ScriptError("unexpected end of input", last.line, last.column)
        if expect_kind and tok.kind != expect_kind:
            raise ScriptError(f"expected {expect_kind}, got {tok.text!r}", tok.line, tok.column)
        if expect_text and tok.text != expect_text:
            raise ScriptError(f"expected {expect_text!r}, got {tok.text!r}", tok.line, tok.column)
        self.pos += 1
        return tok

    def next_int(self) -> int:
        tok = self.next("int")
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise ScriptError(f"integer of {len(tok.text)} digits is too long", tok.line, tok.column) from None

    def at_text(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text

    def parse(self) -> Script:
        statements = []
        while self.peek() is not None:
            statements.append(self.statement())
        return Script(tuple(statements))

    def statement(self) -> Statement:
        tok = self.next("name")
        # statement names are spelled with '-'; '_' would reach the same handler
        handler = None if "_" in tok.text else getattr(self, "stmt_" + tok.text.replace("-", "_"), None)
        if handler is None:
            raise ScriptError(f"unknown statement {tok.text!r}", tok.line, tok.column)
        args = handler()
        self.next("punct", ";")
        return Statement(tok.text, args, tok.line, tok.column)

    def stmt_basis(self):
        self.next("name", "g")
        self.next("punct", "=")
        genus = self.next_int()
        labels = "xy"
        if self.at_text("labels"):
            self.next()
            labels = self.next("name").text
        return (genus, labels)

    def stmt_form(self):
        name = self.next("name").text
        self.next("punct", "=")
        pairs = []
        while not self.at_text(";"):
            lab = self.next("name").text
            self.next("punct", ":")
            bit = self.next_int()
            pairs.append((lab, bit))
        return (name, tuple(pairs))

    def stmt_curve(self):
        name = self.next("name").text
        self.next("punct", "=")
        sparse = None
        coords = None
        tok = self.peek()
        if tok is not None and tok.text != "[":
            if tok.kind == "int" and tok.text == "0":
                sparse = self.next().text
            else:
                parts = [self.next("name").text]
                while self.at_text("+"):
                    self.next()
                    parts.append(self.next("name").text)
                sparse = "+".join(parts)
        if self.at_text("["):
            self.next()
            coords = [self.next_int()]
            while self.at_text(","):
                self.next()
                coords.append(self.next_int())
            self.next("punct", "]")
        if sparse is None and coords is None:
            tok = self.peek()
            raise ScriptError("curve needs a sparse class or an integer vector",
                              tok.line if tok else 1, tok.column if tok else 1)
        return (name, sparse, tuple(coords) if coords is not None else None)

    def stmt_word(self):
        name = self.next("name").text
        self.next("punct", "=")
        letters = []
        while not self.at_text(";"):
            ref = self.next("name")
            e = 1
            if self.at_text("^"):
                self.next()
                e = self.next_int()
                if e not in (1, -1):
                    raise ScriptError("word exponents must be 1 or -1", ref.line, ref.column)
            letters.append((ref.text, e))
        return (name, tuple(letters))

    def stmt_factorization(self):
        name = self.next("name").text
        self.next("punct", "=")
        entries = []
        total = 0
        while not self.at_text("power"):
            ref = self.next("name")
            rep = 1
            if self.at_text("^"):
                self.next()
                rep = self.next_int()
                if rep < 1:
                    raise ScriptError("entry exponents must be positive", ref.line, ref.column)
            total += rep
            if total > _MAX_ENTRIES:
                raise ScriptError(f"factorization has more than {_MAX_ENTRIES} entries", ref.line, ref.column)
            entries.append((ref.text, rep))
        self.next("name", "power")
        power = self.next_int()
        return (name, tuple(entries), power)

    def stmt_pencil(self):
        return (self.next("name").text,)

    def stmt_conjugate(self):
        name = self.next("name").text
        self.next("punct", "=")
        fact = self.next("name").text
        self.next("name", "by")
        word = self.next("name").text
        return (name, fact, word)

    def stmt_fibersum(self):
        name = self.next("name").text
        self.next("punct", "=")
        f1 = self.next("name").text
        f2 = self.next("name").text
        word = None
        if self.at_text("by"):
            self.next()
            word = self.next("name").text
        return (name, f1, f2, word)

    def stmt_hurwitz(self):
        name = self.next("name").text
        self.next("punct", "=")
        fact = self.next("name").text
        self.next("name", "at")
        index = self.next_int()
        direction = self.next("name").text
        return (name, fact, index, direction)

    def stmt_breed(self):
        name = self.next("name").text
        self.next("punct", "=")
        fact = self.next("name").text
        self.next("name", "at")
        index = self.next_int()
        self.next("name", "with")
        image = self.next("name").text
        return (name, fact, index, image)

    def stmt_check(self):
        return (self.next("name").text, self.next("name").text)

    def stmt_check_spin(self):
        return (self.next("name").text, self.next("name").text)

    def stmt_check_relation(self):
        return (self.next("name").text,)

    def stmt_invariants(self):
        fact = self.next("name").text
        self.next("name", "sigma")
        self.next("punct", "=")
        source = self.next("name").text
        return (fact, source)

    def stmt_h1(self):
        return (self.next("name").text,)


def parse_script(text: str) -> Script:
    return _Parser(tokenize(text)).parse()


# --- query results ---------------------------------------------------------------
# One result dict per factorization query, shared by scripts and the CLI.


def relation_results(p: PositiveFactorization) -> dict:
    r = check_relation(p)
    return {
        "mod2": r.mod2,
        "integral": r.integral if r.integral is not None else "unavailable",
        "verdict": r.mod2 and r.integral is not False,
    }


def invariants_results(p: PositiveFactorization, sigma: str) -> dict:
    """Invariants with the signature taken from ``sigma``: endo, meyer or paper."""
    source = {"paper": "paper-formula"}.get(sigma, sigma)
    inv = invariants_of(p, source, hyperelliptic=(source == "endo"))
    return {
        "euler": inv.euler,
        "signature": inv.signature,
        "signature_method": inv.signature_method,
        "chi_h": inv.chi_h,
        "c1_squared": inv.c1_squared,
    }


def h1_results(p: PositiveFactorization) -> dict:
    h1 = fibration_h1(p)
    if h1.coefficients == "Z":
        return {"coefficients": "Z", "group": str(h1.group)}
    return {"coefficients": h1.coefficients, "dimension": h1.mod2_dimension}


# --- execution -------------------------------------------------------------------


@dataclass
class _Env:
    basis: Optional[SurfaceBasis] = None
    forms: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    words: dict = field(default_factory=dict)
    factorizations: dict = field(default_factory=dict)
    pencils: dict = field(default_factory=dict)


def _need(env_map: dict, name: str, what: str, s: Statement):
    if name not in env_map:
        raise ScriptError(f"undeclared {what} {name!r}", s.line, s.column)
    return env_map[name]


_DECLARATIONS = frozenset({"basis", "form", "curve", "word", "factorization", "pencil"})


def run_script(script: Script) -> list[dict]:
    """Execute a script; one result dict per query statement.

    Declaration failures (bad labels, dimension mismatches, scope errors)
    surface as ScriptError; precondition violations inside operations and
    queries keep their own type so the caller can distinguish the failure
    class, with the source position prepended to the message.
    """
    env = _Env()
    results: list[dict] = []
    for s in script.statements:
        try:
            _execute(s, env, results)
        except ScriptError:
            raise
        except PreconditionError as exc:
            if s.kind in _DECLARATIONS:
                raise ScriptError(str(exc), s.line, s.column) from exc
            raise PreconditionError(f"{s.line}:{s.column}: {exc}") from exc
    return results


def _store(env: _Env, name: str, p: PositiveFactorization) -> None:
    """Bind a factorization, refusing one over ``_MAX_ENTRIES`` entries."""
    if len(p) > _MAX_ENTRIES:
        raise PreconditionError(f"factorization {name} would have {len(p)} entries, more than {_MAX_ENTRIES}")
    env.factorizations[name] = p


def _execute(s: Statement, env: _Env, results: list[dict]) -> None:
    a = s.args
    if s.kind == "basis":
        check_fiber_genus(a[0])
        env.basis = SurfaceBasis(a[0], a[1])
        env.forms.clear()
        env.curves.clear()
        env.words.clear()
        env.factorizations.clear()
        env.pencils.clear()
        return
    if env.basis is None:
        raise ScriptError("declare a basis first", s.line, s.column)
    basis = env.basis

    if s.kind == "form":
        values = [0] * basis.dim
        for lab, bit in a[1]:
            if bit not in (0, 1):
                raise ScriptError(f"form value must be a bit, got {bit}", s.line, s.column)
            if lab.endswith("*"):
                letter = lab[:-1]
                if letter not in tuple(basis.labels):
                    raise ScriptError(f"unknown label family {lab!r}", s.line, s.column)
                offset = 0 if letter == basis.labels[0] else basis.genus
                for i in range(basis.genus):
                    values[offset + i] = bit
            else:
                values[basis.label_index(lab)] = bit
        env.forms[a[0]] = QuadraticForm(basis, tuple(values))
        return
    if s.kind == "curve":
        name, sparse, coords = a
        if coords is not None:
            if len(coords) != basis.dim:
                raise ScriptError(
                    f"integer vector has length {len(coords)}, basis dimension is {basis.dim}",
                    s.line, s.column)
            hclass = ClassInt(basis, coords)
            if sparse is not None and ClassMod2.parse(basis, sparse) != hclass.mod2():
                raise ScriptError("sparse class does not match the integer vector mod 2", s.line, s.column)
        else:
            hclass = ClassMod2.parse(basis, sparse)
        curve = Curve(name, hclass)  # refuses a class that is zero mod 2 first
        divisor = 1 if coords is None else gcd(*coords)
        if divisor != 1:
            raise ScriptError(f"curve {name}: integer class is not primitive (gcd {divisor})", s.line, s.column)
        env.curves[name] = curve
        return
    if s.kind == "word":
        letters = tuple((_need(env.curves, ref, "curve", s), e) for ref, e in a[1])
        env.words[a[0]] = TwistWord(letters, name=a[0])
        return
    if s.kind == "factorization":
        twists = []
        for ref, rep in a[1]:
            twists.extend([_need(env.curves, ref, "curve", s)] * rep)
        _store(env, a[0], PositiveFactorization(basis, tuple(twists), a[2]))
        return
    if s.kind == "pencil":
        env.pencils[a[0]] = pencil_images(basis.genus)
        return
    if s.kind == "conjugate":
        p = _need(env.factorizations, a[1], "factorization", s)
        w = _need(env.words, a[2], "word", s)
        _store(env, a[0], conjugate(p, w))
        return
    if s.kind == "fibersum":
        p1 = _need(env.factorizations, a[1], "factorization", s)
        p2 = _need(env.factorizations, a[2], "factorization", s)
        w = _need(env.words, a[3], "word", s) if a[3] is not None else None
        _store(env, a[0], fiber_sum(p1, p2, w))
        return
    if s.kind == "hurwitz":
        p = _need(env.factorizations, a[1], "factorization", s)
        _store(env, a[0], hurwitz_move(p, a[2], a[3]))
        return
    if s.kind == "breed":
        p = _need(env.factorizations, a[1], "factorization", s)
        image = _need(env.pencils, a[3], "pencil", s)
        _store(env, a[0], breed(p, a[2], image))
        return
    if s.kind == "check":
        q = _need(env.forms, a[0], "form", s)
        c = _need(env.curves, a[1], "curve", s)
        results.append({"query": _render(s), "form": a[0], "curve": a[1], "value": q(c.mod2)})
        return
    if s.kind == "check-spin":
        p = _need(env.factorizations, a[0], "factorization", s)
        q = _need(env.forms, a[1], "form", s)
        cert = check_spin(p, q)
        results.append({
            "query": _render(s),
            "entries": [[lab, val] for lab, val in cert.entries],
            "boundary_power": cert.boundary_power,
            "all_values_one": cert.all_values_one,
            "power_even": cert.power_even,
            "verdict": cert.verdict,
        })
        return
    if s.kind == "check-relation":
        p = _need(env.factorizations, a[0], "factorization", s)
        results.append({"query": _render(s), **relation_results(p)})
        return
    if s.kind == "invariants":
        p = _need(env.factorizations, a[0], "factorization", s)
        results.append({"query": _render(s), **invariants_results(p, a[1])})
        return
    if s.kind == "h1":
        p = _need(env.factorizations, a[0], "factorization", s)
        results.append({"query": _render(s), **h1_results(p)})
        return
    raise ScriptError(f"unknown statement {s.kind!r}", s.line, s.column)
