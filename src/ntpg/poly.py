"""Sparse multivariate polynomials over an exact field.

Terms live in a dict keyed by exponent tuples; coefficients are the field's
scalars, each reduced by ``field.norm`` and never zero, so equality of
fields and dicts is equality of polynomials.  Variables are indices
0..nvars-1; formal parameters (the t, s of dilation identities) are
ordinary extra variables, never sampled.
"""

from itertools import chain

from .errors import InvalidInput, all_ints


def _fold(norm, terms, pairs):
    """Add each (exponents, coefficient) pair into ``terms`` in place,
    keeping every coefficient reduced and nonzero; returns ``terms``."""
    for e, c in pairs:
        acc = norm(terms.get(e, 0) + c)
        if acc:
            terms[e] = acc
        else:
            terms.pop(e, None)
    return terms


class Poly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = {}
        if terms:
            if not all_ints(chain.from_iterable(terms)):
                raise InvalidInput("exponents must be integers")
            for exps, c in terms.items():
                c = field.of(c)
                if c:
                    if len(exps) != nvars:
                        raise InvalidInput("exponent tuple has wrong length",
                                           exponents=list(exps))
                    self.terms[tuple(exps)] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def _of(cls, field, nvars, terms):
        """Wrap a dict whose coefficients are already reduced and nonzero."""
        out = cls.__new__(cls)
        out.field = field
        out.nvars = nvars
        out.terms = terms
        return out

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def const(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, field, nvars, i):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exps: field.one})

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.field, self.nvars, other)
        elif other.field is not self.field:
            raise InvalidInput("polynomials over different fields",
                               fields=[self.field.name, other.field.name])
        if other.nvars != self.nvars:
            raise InvalidInput("polynomials over different variable sets")
        return other

    def __add__(self, other):
        other = self._check(other)
        return Poly._of(self.field, self.nvars, _fold(
            self.field.norm, dict(self.terms), other.terms.items()))

    def __neg__(self):
        norm = self.field.norm
        return Poly._of(self.field, self.nvars,
                        {e: norm(-c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        pairs = ((tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
                 for e1, c1 in self.terms.items()
                 for e2, c2 in other.terms.items())
        return Poly._of(self.field, self.nvars,
                        _fold(self.field.norm, {}, pairs))

    def scale(self, c):
        c = self.field.of(c)
        norm = self.field.norm
        terms = {e: norm(c * v) for e, v in self.terms.items()} if c else {}
        return Poly._of(self.field, self.nvars, terms)

    def __pow__(self, k):
        if k < 0:
            raise InvalidInput("negative power")
        if k == 0:
            return Poly.const(self.field, self.nvars, self.field.one)
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.nvars == other.nvars and self.terms == other.terms
                and self.field is other.field)

    def key(self):
        return frozenset(self.terms.items())

    def diff(self, i):
        """Partial derivative with respect to variable i."""
        pairs = ((tuple(v - 1 if j == i else v for j, v in enumerate(e)),
                  c * e[i]) for e, c in self.terms.items() if e[i])
        return Poly._of(self.field, self.nvars,
                        _fold(self.field.norm, {}, pairs))

    def subs(self, values):
        """Substitute a Poly (over a common variable set) for each variable."""
        if len(values) != self.nvars:
            raise InvalidInput("wrong number of substitution values")
        if not self.terms:
            tgt = values[0].nvars if values else 0
            return Poly.zero(self.field, tgt)
        tgt = values[0].nvars
        out = Poly._of(self.field, tgt, {})
        norm = self.field.norm
        powers = [{} for _ in range(self.nvars)]
        for e, c in self.terms.items():
            m = None
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if k not in powers[i]:
                    powers[i][k] = values[i] ** k
                m = powers[i][k] if m is None else m * powers[i][k]
            if m is None:
                _fold(norm, out.terms, [((0,) * tgt, c)])
            else:
                # refuses a value over another field or variable set
                _fold(norm, out.terms, ((me, c * v) for me, v
                                        in out._check(m).terms.items()))
        return out

    def eval(self, point):
        """Evaluate at a tuple of field scalars; powers go through
        ``field.pow``, so the cost is logarithmic in the degree."""
        field = self.field
        acc = field.zero
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k:
                    v = field.norm(v * field.pow(point[i], k))
            acc = field.norm(acc + v)
        return acc

    def lift(self, nvars):
        """View in a larger variable set (extra variables appended)."""
        if nvars < self.nvars:
            raise InvalidInput("cannot drop variables")
        pad = (0,) * (nvars - self.nvars)
        return Poly._of(self.field, nvars,
                        {e + pad: c for e, c in self.terms.items()})
