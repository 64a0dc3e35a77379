"""Exact multivariate polynomial algebra with sinusoidal atoms.

Coefficients stay exact rationals (``fractions.Fraction``) through every
symbolic operation; conversion to floats happens only when a caller
evaluates numerically or hands data to the conic assembler.  Sinusoidal
atoms (``sin``/``cos`` of a monomial times a rational frequency) are kept
as opaque extra variables: no trig identities are applied, so products of
atoms remain plain monomials over the extended alphabet.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

MultiIndex = tuple  # tuple[int, ...], one exponent per variable

# ---------------------------------------------------------------------------
# Graded lexicographic order on multi-indices
# ---------------------------------------------------------------------------


def mi_degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def mi_add(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(alpha, beta))


def grlex_key(alpha: MultiIndex):
    """Sort key realizing graded lex order (degree, then leftmost-largest)."""
    return (sum(alpha), tuple(-a for a in alpha))


def count_degree(nvars: int, degree: int) -> int:
    """Number of multi-indices of dimension ``nvars`` with exact degree."""
    return math.comb(nvars + degree - 1, degree)


def count_upto(nvars: int, max_degree: int) -> int:
    """Number of multi-indices of dimension ``nvars`` with degree <= K."""
    return math.comb(nvars + max_degree, max_degree)


def graded_lex_rank(alpha: MultiIndex) -> int:
    """Zero-based position of ``alpha`` in the graded lex enumeration."""
    n = len(alpha)
    deg = sum(alpha)
    rank = count_upto(n, deg - 1) if deg > 0 else 0
    # Count same-degree indices preceding alpha: those with a larger leading
    # exponent come first, then recurse on the tail.
    rem = deg
    for pos in range(n - 1):
        a = alpha[pos]
        tail = n - pos - 1
        for lead in range(rem, a, -1):
            rank += count_degree(tail, rem - lead)
        rem -= a
    return rank


def graded_lex_ranks(alphas: np.ndarray) -> np.ndarray:
    """``graded_lex_rank`` of every row of an (N, n) integer array.

    The inner sum of ``graded_lex_rank`` telescopes (hockey stick) to
    count_upto(tail, rem - a - 1), and rem - a at position pos is the
    suffix sum S_{pos+1} of the exponents, so with S_0 the degree

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


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # Floats are accepted for convenience but converted exactly.
        return Fraction(value).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class Polynomial:
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms are stored as a dict keyed by exponent tuple; zero coefficients
    are never stored, and iteration is in graded lex order.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[MultiIndex, Fraction] | None = None):
        self.nvars = nvars
        clean = {}
        if terms:
            for alpha, coef in terms.items():
                if len(alpha) != nvars:
                    raise ValueError(f"exponent {alpha} has wrong arity for {nvars} vars")
                coef = _as_fraction(coef)
                if coef != 0:
                    clean[tuple(alpha)] = coef
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: _as_fraction(value)})

    @staticmethod
    def monomial(nvars: int, alpha: MultiIndex, coef=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(alpha): _as_fraction(coef)})

    @staticmethod
    def variable(nvars: int, index: int) -> "Polynomial":
        alpha = tuple(1 if i == index else 0 for i in range(nvars))
        return Polynomial(nvars, {alpha: Fraction(1)})

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
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials over different variable alphabets")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for alpha, coef in other.terms.items():
            new = terms.get(alpha, Fraction(0)) + coef
            if new:
                terms[alpha] = new
            else:
                terms.pop(alpha, None)
        return Polynomial(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.nvars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            return Polynomial(self.nvars, {a: c * v for a, v in self.terms.items()})
        self._check(other)
        terms: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = mi_add(a, b)
                new = terms.get(key, Fraction(0)) + ca * cb
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative powers not supported")
        result = Polynomial.constant(self.nvars, 1)
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
        """Partial derivative treating every variable as independent."""
        terms = {}
        for alpha, coef in self.terms.items():
            e = alpha[var]
            if e == 0:
                continue
            beta = alpha[:var] + (e - 1,) + alpha[var + 1:]
            terms[beta] = terms.get(beta, Fraction(0)) + coef * e
        return Polynomial(self.nvars, terms)

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != self.nvars:
            raise ValueError(
                f"point has dimension {len(point)}, expected {self.nvars}"
            )
        total = 0.0
        for alpha, coef in self.terms.items():
            val = float(coef)
            for x, e in zip(point, alpha):
                if e:
                    val *= x**e
            total += val
        return total

    def scale_vars(self, factors: Sequence[Fraction]) -> "Polynomial":
        """Substitute x_i -> factors[i] * x_i (exact, factors rational)."""
        if len(factors) != self.nvars:
            raise ValueError("one scale factor per variable required")
        fr = [_as_fraction(f) for f in factors]
        terms = {}
        for alpha, coef in self.terms.items():
            c = coef
            for f, e in zip(fr, alpha):
                if e:
                    c *= f**e
            if c:
                terms[alpha] = terms.get(alpha, Fraction(0)) + c
        return Polynomial(self.nvars, terms)

    def remap_vars(self, new_nvars: int, mapping: Sequence[int]) -> "Polynomial":
        """Move variable i to slot mapping[i] in a ``new_nvars`` alphabet."""
        terms = {}
        for alpha, coef in self.terms.items():
            beta = [0] * new_nvars
            for i, e in enumerate(alpha):
                if e:
                    beta[mapping[i]] += e
            terms[tuple(beta)] = terms.get(tuple(beta), Fraction(0)) + coef
        return Polynomial(new_nvars, terms)

    def max_coefficient(self) -> Fraction:
        return max((abs(c) for c in self.terms.values()), default=Fraction(0))

    # -- display --------------------------------------------------------

    def format(self, names: Sequence[str]) -> str:
        return format_terms(self.items(), names)

    def __repr__(self):
        names = [f"x{i + 1}" for i in range(self.nvars)]
        return f"Polynomial({self.format(names)})"


def format_coeff(coef: Fraction) -> str:
    if coef.denominator == 1:
        return str(coef.numerator)
    f = float(coef)
    if Fraction(str(f)) == coef:
        return str(f)
    return f"{coef.numerator}/{coef.denominator}"


def format_terms(items, names: Sequence[str]) -> str:
    if not items:
        return "0"
    parts = []
    for alpha, coef in items:
        factors = []
        for name, e in zip(names, alpha):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        mag = format_coeff(abs(coef))
        if body and mag == "1":
            text = body
        elif body:
            text = f"{mag}*{body}"
        else:
            text = mag
        sign = "-" if coef < 0 else "+"
        parts.append((sign, text))
    first_sign, first_text = parts[0]
    out = ("-" if first_sign == "-" else "") + first_text
    for sign, text in parts[1:]:
        out += f" {sign} {text}"
    return out


# ---------------------------------------------------------------------------
# Sinusoidal atoms and mixed expressions
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

    def widen(self, new_nbase: int, mapping: Sequence[int]) -> "TrigAtom":
        arg = [0] * new_nbase
        for i, e in enumerate(self.arg):
            if e:
                arg[mapping[i]] += e
        return TrigAtom(self.kind, self.freq, tuple(arg))

    def value(self, point: Sequence[float]) -> float:
        u = float(self.freq)
        for x, e in zip(point, self.arg):
            if e:
                u *= x**e
        return math.sin(u) if self.kind == "sin" else math.cos(u)

    def format(self, names: Sequence[str]) -> str:
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, self.arg)
            if e
        )
        if self.freq == 1:
            return f"{self.kind}({mono})"
        return f"{self.kind}({format_coeff(self.freq)}*{mono})"


class Expression:
    """Polynomial over base state variables plus registered trig atoms.

    The underlying polynomial has ``nbase + len(atoms)`` variables; slot
    ``nbase + j`` stands for ``atoms[j]``.  An expression with no atom
    usage is exactly a polynomial in the base variables.
    """

    __slots__ = ("nbase", "atoms", "poly")

    def __init__(self, nbase: int, atoms: Sequence[TrigAtom], poly: Polynomial):
        if poly.nvars != nbase + len(atoms):
            raise ValueError("polynomial arity does not match base + atoms")
        self.nbase = nbase
        self.atoms = tuple(atoms)
        self.poly = poly

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_polynomial(nbase: int, poly: Polynomial) -> "Expression":
        if poly.nvars != nbase:
            raise ValueError("arity mismatch")
        return Expression(nbase, (), poly)

    @staticmethod
    def zero(nbase: int) -> "Expression":
        return Expression(nbase, (), Polynomial.zero(nbase))

    @staticmethod
    def constant(nbase: int, value) -> "Expression":
        return Expression(nbase, (), Polynomial.constant(nbase, value))

    @staticmethod
    def variable(nbase: int, index: int) -> "Expression":
        return Expression(nbase, (), Polynomial.variable(nbase, index))

    @staticmethod
    def atom(nbase: int, atom: TrigAtom, coef=1) -> "Expression":
        poly = Polynomial.monomial(nbase + 1, (0,) * nbase + (1,), coef)
        return Expression(nbase, (atom,), poly)

    # -- atom registry maintenance ---------------------------------------

    def used_atoms(self) -> tuple:
        """Atoms actually appearing in some term."""
        used = set()
        for alpha in self.poly.terms:
            for j in range(self.nbase, len(alpha)):
                if alpha[j]:
                    used.add(j - self.nbase)
        return tuple(self.atoms[j] for j in sorted(used))

    def with_atoms(self, atoms: Sequence[TrigAtom]) -> "Expression":
        """Re-express over the given atom registry (must cover used atoms)."""
        atoms = tuple(atoms)
        pos = {a: i for i, a in enumerate(atoms)}
        mapping = list(range(self.nbase))
        for a in self.atoms:
            if a in pos:
                mapping.append(self.nbase + pos[a])
            else:
                mapping.append(-1)
        n_new = self.nbase + len(atoms)
        terms = {}
        for alpha, coef in self.poly.terms.items():
            beta = [0] * n_new
            for i, e in enumerate(alpha):
                if not e:
                    continue
                if mapping[i] < 0:
                    raise ValueError(
                        f"atom {self.atoms[i - self.nbase]} missing from registry"
                    )
                beta[mapping[i]] += e
            key = tuple(beta)
            terms[key] = terms.get(key, Fraction(0)) + coef
        return Expression(self.nbase, atoms, Polynomial(n_new, terms))

    def _unify(self, other: "Expression"):
        if self.nbase != other.nbase:
            raise ValueError("expressions over different base alphabets")
        atoms = list(self.atoms)
        for a in other.atoms:
            if a not in atoms:
                atoms.append(a)
        return self.with_atoms(atoms), other.with_atoms(atoms)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression.constant(self.nbase, other)
        a, b = self._unify(other)
        return Expression(a.nbase, a.atoms, a.poly + b.poly)

    __radd__ = __add__

    def __neg__(self):
        return Expression(self.nbase, self.atoms, -self.poly)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expression.constant(self.nbase, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Expression(self.nbase, self.atoms, self.poly * other)
        a, b = self._unify(other)
        return Expression(a.nbase, a.atoms, a.poly * b.poly)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        return Expression(self.nbase, self.atoms, self.poly**exponent)

    def __eq__(self, other):
        if not isinstance(other, Expression):
            return NotImplemented
        a, b = self._unify(other)
        return a.poly == b.poly

    # -- queries ------------------------------------------------------------

    def is_polynomial(self) -> bool:
        return not self.used_atoms()

    def base_polynomial(self) -> Polynomial:
        """Drop unused atom slots; error if any atom is actually used."""
        if not self.is_polynomial():
            raise ValueError("expression contains sinusoidal atoms")
        terms = {alpha[: self.nbase]: c for alpha, c in self.poly.terms.items()}
        return Polynomial(self.nbase, terms)

    def degree(self) -> int:
        return self.poly.degree()

    # -- calculus -------------------------------------------------------------

    def differentiate(self, var: int) -> "Expression":
        """d/dx_var with atoms treated as functions of the base state.

        The chain rule may introduce derivative partners (sin <-> cos),
        which are appended to the atom registry of the result.
        """
        if not 0 <= var < self.nbase:
            raise ValueError("differentiation variable must be a base variable")
        atoms = list(self.atoms)
        result = Expression(self.nbase, tuple(atoms), Polynomial.zero(self.poly.nvars))

        def ensure(atom: TrigAtom) -> int:
            nonlocal result, atoms
            if atom in atoms:
                return atoms.index(atom)
            atoms.append(atom)
            result = result.with_atoms(atoms)
            return len(atoms) - 1

        for alpha, coef in list(self.poly.terms.items()):
            base = alpha[: self.nbase]
            # product-rule contribution of the plain monomial factor
            if base[var] > 0:
                beta = list(alpha)
                beta[var] -= 1
                term = Expression(
                    self.nbase,
                    tuple(self.atoms),
                    Polynomial.monomial(self.poly.nvars, tuple(beta), coef * base[var]),
                ).with_atoms(atoms)
                result = Expression(self.nbase, tuple(atoms), result.poly + term.poly)
            # contribution of each atom factor via the chain rule
            for j, atom in enumerate(self.atoms):
                e = alpha[self.nbase + j]
                if e == 0 or atom.arg[var] == 0:
                    continue
                partner_idx = ensure(atom.partner())
                sign = 1 if atom.kind == "sin" else -1
                c = coef * e * atom.freq * atom.arg[var] * sign
                beta = [0] * result.poly.nvars
                for i, ee in enumerate(base):
                    beta[i] = ee
                beta[var] += atom.arg[var] - 1
                for i, ee in enumerate(atom.arg):
                    if i != var:
                        beta[i] += ee
                # remaining atom powers from this term
                for jj, aa in enumerate(self.atoms):
                    ee = alpha[self.nbase + jj]
                    if jj == j:
                        ee -= 1
                    if ee:
                        beta[self.nbase + atoms.index(aa)] += ee
                beta[self.nbase + partner_idx] += 1
                term_poly = Polynomial.monomial(result.poly.nvars, tuple(beta), c)
                result = Expression(self.nbase, tuple(atoms), result.poly + term_poly)
        return result

    # -- evaluation --------------------------------------------------------

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != self.nbase:
            raise ValueError(
                f"point has dimension {len(point)}, expected {self.nbase}"
            )
        full = list(point) + [a.value(point) for a in self.atoms]
        return self.poly.evaluate(full)

    # -- display --------------------------------------------------------------

    def format(self, names: Sequence[str]) -> str:
        full_names = list(names) + [a.format(names) for a in self.atoms]
        return self.poly.format(full_names)

    def __repr__(self):
        names = [f"x{i + 1}" for i in range(self.nbase)]
        return f"Expression({self.format(names)})"


# ---------------------------------------------------------------------------
# Expression grammar
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\+|-|\*|\(|\)))"
)


class ExprSyntaxError(ValueError):
    """Raised for malformed expression text, with position info."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(f"{message} at column {pos + 1}: {text!r}")
        self.pos = pos


class ExprParser:
    """Recursive-descent parser for the infix grammar with sin/cos atoms.

    Grammar: ``+ - * ^`` with parentheses; no implicit multiplication and
    no division.  ``sin(...)``/``cos(...)`` arguments must reduce to a
    single monomial over the base variables with a rational coefficient.
    """

    def __init__(self, names: Sequence[str]):
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")

    def parse(self, text: str) -> Expression:
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
            if m.group("num") is not None:
                tokens.append(("num", m.group("num"), m.start()))
            elif m.group("name") is not None:
                tokens.append(("name", m.group("name"), m.start()))
            else:
                tokens.append(("op", m.group("op"), m.start()))
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

    def _sum(self) -> Expression:
        left = self._product()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.pos += 1
                right = self._product()
                left = left + right if tok[1] == "+" else left - right
            else:
                return left

    def _product(self) -> Expression:
        left = self._unary()
        while True:
            tok = self._peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.pos += 1
                left = left * self._unary()
            else:
                return left

    def _unary(self) -> Expression:
        tok = self._peek()
        if tok and tok[0] == "op" and tok[1] in "+-":
            self.pos += 1
            inner = self._unary()
            return inner if tok[1] == "+" else -inner
        return self._power()

    def _power(self) -> Expression:
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

    def _primary(self) -> Expression:
        tok = self._peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of expression", self.text, len(self.text))
        if tok[0] == "num":
            self.pos += 1
            return Expression.constant(len(self.names), Fraction(tok[1]))
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
            return Expression.variable(len(self.names), self.index[name])
        if tok[0] == "op" and tok[1] == "(":
            self.pos += 1
            inner = self._sum()
            self._take("op", ")")
            return inner
        raise ExprSyntaxError(f"unexpected {tok[1]!r}", self.text, tok[2])

    def _make_atom(self, kind: str, arg: Expression, pos: int) -> Expression:
        nbase = len(self.names)
        if not arg.is_polynomial():
            raise ExprSyntaxError(f"{kind} argument must not contain nested trig",
                                  self.text, pos)
        poly = arg.base_polynomial()
        if len(poly.terms) != 1:
            raise ExprSyntaxError(
                f"{kind} argument must be a single monomial", self.text, pos)
        (alpha, coef), = poly.terms.items()
        if all(e == 0 for e in alpha):
            # Constant argument: fold to a numeric constant.
            value = math.sin(float(coef)) if kind == "sin" else math.cos(float(coef))
            return Expression.constant(nbase, Fraction(value).limit_denominator(10**15))
        sign = 1
        if coef < 0:
            coef = -coef
            if kind == "sin":
                sign = -1
        atom = TrigAtom(kind, coef, tuple(alpha))
        return Expression.atom(nbase, atom, sign)


def parse_expression(text: str, names: Sequence[str]) -> Expression:
    return ExprParser(names).parse(text)


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    expr = parse_expression(text, names)
    if not expr.is_polynomial():
        raise ValueError(f"expected a polynomial, got trig terms in {text!r}")
    return expr.base_polynomial()
