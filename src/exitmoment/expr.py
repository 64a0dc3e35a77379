"""Exact multivariate polynomial algebra with sinusoidal atoms.

Coefficients stay exact rationals (``fractions.Fraction``) through every
symbolic operation; conversion to floats happens only when a caller
evaluates numerically or hands data to the conic assembler.  There is one
polynomial type.  Sinusoidal atoms (``sin``/``cos`` of a monomial times a
rational frequency) are its trailing variables, named by the polynomial's
atom registry: no trig identities are applied, so products of atoms remain
plain monomials over the extended alphabet, and only differentiation and
evaluation read an atom as a function of the base variables.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

MultiIndex = tuple  # tuple[int, ...], one exponent per variable

# ---------------------------------------------------------------------------
# Graded lexicographic order on multi-indices
# ---------------------------------------------------------------------------


def mi_add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(alpha, beta))


def grlex_key(alpha: MultiIndex):
    """Sort key realizing graded lex order (degree, then leftmost-largest)."""
    return (sum(alpha), tuple(-a for a in alpha))


def count_upto(nvars: int, max_degree: int) -> int:
    """Number of multi-indices of dimension ``nvars`` with degree <= K."""
    return math.comb(nvars + max_degree, max_degree)


def graded_lex_ranks(alphas: np.ndarray) -> np.ndarray:
    """Zero-based position of every row of an (N, n) integer array in the
    graded lex enumeration (``enumerate_multi_indices``).

    The indices of lower degree come first, count_upto(n, S_0 - 1) of
    them; among those of the same degree, the ones with a larger exponent
    in the first position where they differ come first.  Counting those
    position by position telescopes (hockey stick), so with S_k the
    suffix sum alpha_k + ... + alpha_{n-1} of the exponents

        rank(alpha) = sum_{k=0}^{n-1} count_upto(n - k, S_k - 1),

    where count_upto(., -1) = 0.  The terms come from a table over
    (n - k, S_k), so the result is exact in int64.
    """
    alphas = np.asarray(alphas, dtype=np.int64)
    n = alphas.shape[1]
    suffix = np.cumsum(alphas[:, ::-1], axis=1)[:, ::-1]
    max_deg = int(suffix[:, 0].max(initial=0))
    table = np.array(
        [[count_upto(t, s - 1) if s > 0 else 0 for s in range(max_deg + 1)]
         for t in range(n + 1)], dtype=np.int64)
    return table[np.arange(n, 0, -1), suffix].sum(axis=1)


def enumerate_multi_indices(nvars: int, max_degree: int) -> list:
    """All multi-indices of degree <= ``max_degree`` in graded lex order."""
    out = []
    for deg in range(max_degree + 1):
        out.extend(_exact_degree(nvars, deg))
    return out


def _exact_degree(nvars: int, deg: int) -> Iterator[MultiIndex]:
    if nvars == 1:
        yield (deg,)
        return
    for lead in range(deg, -1, -1):
        for tail in _exact_degree(nvars - 1, deg - lead):
            yield (lead,) + tail


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def is_int(value) -> bool:
    """Whether ``value`` is an integer, numpy integers included; a bool is
    not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether ``value`` is a real number, numpy floats and ``Fraction``
    included; a bool is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # the nearest fraction with a denominator of at most 10^12, so a
        # decimal such as 0.1 becomes 1/10 rather than its binary value
        return Fraction(value).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms are stored as a dict keyed by exponent tuple, and ``items``
    iterates in graded lex order.  The constructor is the one place where
    coefficients become ``Fraction`` and zero terms are dropped, so the
    stored terms are always exact and nonzero; every operation hands it
    raw sums and products and repeats neither job.  The last
    ``len(atoms)`` variables stand for the sinusoidal atoms ``atoms``,
    functions of the first ``nbase`` (base) variables; a polynomial
    without atoms has the empty registry.
    """

    __slots__ = ("nvars", "terms", "atoms")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, Fraction] | None = None,
                 atoms: Sequence["TrigAtom"] = ()):
        self.nvars = nvars
        self.atoms = tuple(atoms)
        clean = {}
        if terms:
            for alpha, coef in terms.items():
                if len(alpha) != nvars:
                    raise ValueError(f"exponent {alpha} has wrong arity for {nvars} vars")
                coef = _as_fraction(coef)
                if coef != 0:
                    clean[tuple(alpha)] = coef
        self.terms = clean

    @property
    def nbase(self) -> int:
        return self.nvars - len(self.atoms)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: value})

    @staticmethod
    def monomial(nvars: int, alpha: MultiIndex, coef=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(alpha): coef})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        alpha = tuple(1 if i == index else 0 for i in range(nvars))
        return Polynomial(nvars, {alpha: Fraction(1)})

    @staticmethod
    def atom(nbase: int, atom: "TrigAtom", coef=1) -> "Polynomial":
        return Polynomial(nbase + 1, {(0,) * nbase + (1,): coef}, (atom,))

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(alpha) for alpha in self.terms)

    def items(self):
        """Terms in graded lex order."""
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def coefficient(self, alpha: MultiIndex) -> Fraction:
        return self.terms.get(tuple(alpha), Fraction(0))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.nbase != other.nbase:
            return False
        a, b = self._unify(other)
        return a.terms == b.terms

    # -- atom registry --------------------------------------------------

    def used_atoms(self) -> tuple:
        """Atoms with a nonzero exponent in some term, in registry order."""
        if not self.atoms:
            return ()
        nb = self.nbase
        used = {j for alpha in self.terms for j in range(nb, self.nvars) if alpha[j]}
        return tuple(self.atoms[j - nb] for j in sorted(used))

    def with_atoms(self, atoms: Sequence["TrigAtom"]) -> "Polynomial":
        """The same polynomial over the registry ``atoms``, which must
        hold every atom used."""
        atoms = tuple(atoms)
        if atoms == self.atoms:
            return self
        for a in self.used_atoms():
            if a not in atoms:
                raise ValueError(f"atom {a} missing from registry")
        nb = self.nbase
        slot = {a: nb + i for i, a in enumerate(atoms)}
        mapping = list(range(nb)) + [slot.get(a) for a in self.atoms]
        return self.remap_vars(nb + len(atoms), mapping, atoms)

    def _unify(self, other: "Polynomial"):
        """Both operands over the union of their registries."""
        if self.atoms == other.atoms and self.nvars == other.nvars:
            return self, other
        if self.nbase != other.nbase:
            raise ValueError("polynomials over different variable alphabets")
        atoms = self.atoms + tuple(a for a in other.atoms if a not in self.atoms)
        return self.with_atoms(atoms), other.with_atoms(atoms)

    # -- arithmetic ---------------------------------------------------

    # An operand that is not a Polynomial, int or Fraction (a float, say)
    # gets NotImplemented, so that Python raises TypeError.

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nbase, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._unify(other)
        terms = dict(a.terms)
        for alpha, coef in b.terms.items():
            terms[alpha] = terms.get(alpha, 0) + coef
        return Polynomial(a.nvars, terms, a.atoms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {a: -c for a, c in self.terms.items()}, self.atoms)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, Polynomial)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.nvars, {a: other * v for a, v in self.terms.items()},
                              self.atoms)
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._unify(other)
        terms: dict = {}
        for x, cx in a.terms.items():
            for y, cy in b.terms.items():
                key = mi_add(x, y)
                terms[key] = terms.get(key, 0) + cx * cy
        return Polynomial(a.nvars, terms, a.atoms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers not supported")
        result = Polynomial.constant(self.nbase, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus and evaluation ---------------------------------------

    def diff(self, var: int) -> "Polynomial":
        """d/dx_var, with each atom a function of the base variables.

        For an atom slot this is the plain partial.  For a base variable
        and atoms a_j = sin/cos(w_j x^arg_j), the chain rule adds
        dP/da_j * da_j/dx, where da_j/dx = +-w_j arg_j[var]
        x^(arg_j - e_var) * partner(a_j), plus for sin and minus for cos;
        partners (sin <-> cos) missing from the registry are appended to
        the registry of the result.
        """
        terms = {}
        for alpha, coef in self.terms.items():
            e = alpha[var]
            if e == 0:
                continue
            beta = alpha[:var] + (e - 1,) + alpha[var + 1:]
            terms[beta] = terms.get(beta, Fraction(0)) + coef * e
        out = Polynomial(self.nvars, terms, self.atoms)
        if not self.atoms or var >= self.nbase:
            return out
        nb = self.nbase
        for a in self.used_atoms():
            if not a.arg[var]:
                continue
            shift = list(a.arg) + [1]
            shift[var] -= 1
            rate = a.freq * a.arg[var] * (1 if a.kind == "sin" else -1)
            inner = Polynomial(nb + 1, {tuple(shift): rate}, (a.partner(),))
            out = out + self.diff(nb + self.atoms.index(a)) * inner
        return out

    def evaluate(self, point: Sequence[float]) -> float:
        """Value at the base point ``point``; atoms are evaluated there."""
        if len(point) != self.nbase:
            raise ValueError(
                f"point has dimension {len(point)}, expected {self.nbase}"
            )
        if self.atoms:
            point = list(point) + [a.value(point) for a in self.atoms]
        total = 0.0
        try:
            for alpha, coef in self.terms.items():
                val = float(coef)
                for x, e in zip(point, alpha):
                    if e:
                        val *= x**e
                total += val
        except OverflowError as exc:
            raise ValueError("a polynomial term is too large for a float") from exc
        return total

    def scale_vars(self, factors: Sequence[Fraction]) -> "Polynomial":
        """Substitute x_i -> factors[i] * x_i (exact, factors rational)."""
        if len(factors) != self.nvars:
            raise ValueError("one scale factor per variable required")
        fr = [_as_fraction(f) for f in factors]
        terms = {}
        for alpha, coef in self.terms.items():
            for f, e in zip(fr, alpha):
                if e:
                    coef *= f**e
            terms[alpha] = coef
        return Polynomial(self.nvars, terms)

    def remap_vars(self, new_nvars: int, mapping: Sequence[int],
                   atoms: Sequence["TrigAtom"] = ()) -> "Polynomial":
        """Move variable i to slot mapping[i] in a ``new_nvars`` alphabet
        whose last slots are the atoms ``atoms``."""
        terms = {}
        for alpha, coef in self.terms.items():
            beta = [0] * new_nvars
            for i, e in enumerate(alpha):
                if e:
                    beta[mapping[i]] += e
            terms[tuple(beta)] = terms.get(tuple(beta), Fraction(0)) + coef
        return Polynomial(new_nvars, terms, atoms)

    def max_coefficient(self) -> Fraction:
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    def __repr__(self):
        return f"Polynomial({self.nvars}, {self.terms!r}, {self.atoms!r})"


# ---------------------------------------------------------------------------
# Sinusoidal atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class TrigAtom:
    """sin or cos of ``freq * x^arg`` over the base state variables.

    Frequencies are normalized positive at construction time; sign factors
    from odd symmetry are absorbed by the caller (sin(-u) = -sin(u)).
    """

    kind: str  # "sin" | "cos"
    freq: Fraction
    arg: MultiIndex

    def __post_init__(self):
        if self.kind not in ("sin", "cos"):
            raise ValueError(f"unknown atom kind {self.kind!r}")
        if self.freq <= 0:
            raise ValueError("atom frequency must be strictly positive")
        if not self.arg or all(e == 0 for e in self.arg):
            raise ValueError("atom argument must be a non-constant monomial")

    def partner(self) -> "TrigAtom":
        """The derivative partner: the other kind at the same frequency/argument."""
        return TrigAtom("cos" if self.kind == "sin" else "sin", self.freq, self.arg)

    def value(self, point: Sequence[float]) -> float:
        try:
            u = float(self.freq)
            for x, e in zip(point, self.arg):
                if e:
                    u *= x**e
        except OverflowError as exc:
            raise ValueError(f"the argument of a {self.kind} is too large for a float") from exc
        return math.sin(u) if self.kind == "sin" else math.cos(u)


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\+|-|\*|/|\(|\)))"
)


class ExprSyntaxError(ValueError):
    """Raised for malformed expression text, with position info."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at column {pos + 1}: {text!r}")
        self.pos = pos


class ExprParser:
    """Recursive-descent parser for the infix grammar with sin/cos atoms.

    Grammar: ``+ - * / ^`` with parentheses and no implicit
    multiplication; ``*`` and ``/`` share one precedence and associate to
    the left.  A divisor must reduce to a nonzero rational constant.
    ``sin(...)``/``cos(...)`` arguments must reduce to a single monomial
    over the base variables with a rational coefficient.
    """

    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")
        for name in ("sin", "cos"):
            if name in self.index:
                raise ValueError(f"{name!r} is reserved for the {name} function")

    def parse(self, text: str) -> Polynomial:
        self.text = text
        self.tokens = self._tokenize(text)
        self.pos = 0
        expr = self._sum()
        if self.pos != len(self.tokens):
            tok = self.tokens[self.pos]
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", text, tok[2])
        return expr

    def _tokenize(self, text: str):
        tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == m.start():
                if text[pos:].strip():
                    raise ExprSyntaxError("unrecognized character", text, pos)
                break
            # the token's own start, past the blanks the pattern skips
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        return tokens

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, kind=None, value=None):
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", self.text, len(self.text))
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ExprSyntaxError(f"unexpected {tok[1]!r}", self.text, tok[2])
        self.pos += 1
        return tok

    def _sum(self) -> Polynomial:
        left = self._product()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.pos += 1
                right = self._product()
                left = left + right if tok[1] == "+" else left - right
            else:
                return left

    def _product(self) -> Polynomial:
        left = self._unary()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.pos += 1
                at = self._peek()[2] if self._peek() else len(self.text)
                right = self._unary()
                left = left * (right if tok[1] == "*" else self._reciprocal(right, at))
            else:
                return left

    def _reciprocal(self, divisor: Polynomial, pos: int) -> Fraction:
        if any(any(alpha) for alpha in divisor.terms):
            raise ExprSyntaxError("divisor must be a numeric constant", self.text, pos)
        if divisor.is_zero():
            raise ExprSyntaxError("division by zero", self.text, pos)
        return 1 / divisor.coefficient((0,) * divisor.nvars)

    def _unary(self) -> Polynomial:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.pos += 1
            inner = self._unary()
            return inner if tok[1] == "+" else -inner
        return self._power()

    def _power(self) -> Polynomial:
        base = self._primary()
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.pos += 1
            exp_tok = self._take("num")
            if "." in exp_tok[1] or "e" in exp_tok[1] or "E" in exp_tok[1]:
                raise ExprSyntaxError("exponent must be a non-negative integer",
                                      self.text, exp_tok[2])
            return base ** int(exp_tok[1])
        return base

    def _primary(self) -> Polynomial:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", self.text, len(self.text))
        if tok[0] == "num":
            self.pos += 1
            return Polynomial.constant(len(self.names), Fraction(tok[1]))
        if tok[0] == "name":
            self.pos += 1
            name = tok[1]
            if name in ("sin", "cos"):
                self._take("op", "(")
                arg = self._sum()
                self._take("op", ")")
                return self._make_atom(name, arg, tok[2])
            if name not in self.index:
                raise ExprSyntaxError(f"undeclared variable {name!r}", self.text, tok[2])
            return Polynomial.variable(len(self.names), self.index[name])
        if tok[0] == "op" and tok[1] == "(":
            self.pos += 1
            inner = self._sum()
            self._take("op", ")")
            return inner
        raise ExprSyntaxError(f"unexpected {tok[1]!r}", self.text, tok[2])

    def _make_atom(self, kind: str, arg: Polynomial, pos: int) -> Polynomial:
        nbase = len(self.names)
        if arg.used_atoms():
            raise ExprSyntaxError(f"{kind} argument must not contain nested trig",
                                  self.text, pos)
        terms = arg.with_atoms(()).terms
        if len(terms) > 1:
            raise ExprSyntaxError(
                f"{kind} argument must be a single monomial", self.text, pos)
        # a zero argument has no term and folds like any other constant
        alpha, coef = next(iter(terms.items()), ((0,) * nbase, Fraction(0)))
        if all(e == 0 for e in alpha):
            # Constant argument: fold to a numeric constant.
            value = math.sin(float(coef)) if kind == "sin" else math.cos(float(coef))
            return Polynomial.constant(nbase, Fraction(value).limit_denominator(10**15))
        sign = 1
        if coef < 0:
            coef = -coef
            if kind == "sin":
                sign = -1
        atom = TrigAtom(kind, coef, tuple(alpha))
        return Polynomial.atom(nbase, atom, sign)


def parse_expression(text: str, names: Sequence[str]) -> Polynomial:
    return ExprParser(names).parse(text)


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    expr = parse_expression(text, names)
    if expr.used_atoms():
        raise ValueError(f"expected a polynomial, got trig terms in {text!r}")
    return expr.with_atoms(())
