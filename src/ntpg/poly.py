"""Sparse multivariate polynomials over an exact field.

Terms live in a dict keyed by exponent tuples; coefficients are the field's
scalars, each reduced by ``field.norm`` and never zero, so equality of
fields and dicts is equality of polynomials.  Variables are indices
0..nvars-1; formal parameters (the t, s of dilation identities) are
ordinary extra variables, never sampled.
"""

from .errors import InvalidInput


class Poly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, c in terms.items():
                c = field.of(c)
                if c:
                    if len(exps) != nvars:
                        raise InvalidInput("exponent tuple has wrong length",
                                           exponents=list(exps))
                    self.terms[tuple(int(e) for e in exps)] = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def const(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, field, nvars, i, coeff=None):
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return cls(field, nvars, {exps: coeff if coeff is not None else field.one})

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(self.field, self.nvars, other)
        elif other.field is not self.field and other.field != self.field:
            raise InvalidInput("polynomials over different fields",
                               fields=[self.field.name, other.field.name])
        if other.nvars != self.nvars:
            raise InvalidInput("polynomials over different variable sets")
        return other

    def __add__(self, other):
        other = self._check(other)
        terms = dict(self.terms)
        norm = self.field.norm
        for e, c in other.terms.items():
            acc = norm(terms.get(e, 0) + c)
            if not acc:
                terms.pop(e, None)
            else:
                terms[e] = acc
        out = Poly(self.field, self.nvars)
        out.terms = terms
        return out

    def __neg__(self):
        out = Poly(self.field, self.nvars)
        norm = self.field.norm
        out.terms = {e: norm(-c) for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-self._check(other))

    def __mul__(self, other):
        other = self._check(other)
        norm = self.field.norm
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc = norm(terms.get(e, 0) + c1 * c2)
                if not acc:
                    terms.pop(e, None)
                else:
                    terms[e] = acc
        out = Poly(self.field, self.nvars)
        out.terms = terms
        return out

    def scale(self, c):
        c = self.field.of(c)
        norm = self.field.norm
        out = Poly(self.field, self.nvars)
        if c:
            out.terms = {e: norm(c * v) for e, v in self.terms.items()}
        return out

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
                and (self.field is other.field or self.field == other.field))

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def key(self):
        return frozenset(self.terms.items())

    def diff(self, i):
        """Partial derivative with respect to variable i."""
        terms = {}
        norm = self.field.norm
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = tuple(v - 1 if j == i else v for j, v in enumerate(e))
            acc = norm(terms.get(ne, 0) + c * e[i])
            if not acc:
                terms.pop(ne, None)
            else:
                terms[ne] = acc
        out = Poly(self.field, self.nvars)
        out.terms = terms
        return out

    def subs(self, values):
        """Substitute a Poly (over a common variable set) for each variable."""
        if len(values) != self.nvars:
            raise InvalidInput("wrong number of substitution values")
        if not self.terms:
            tgt = values[0].nvars if values else 0
            return Poly.zero(self.field, tgt)
        tgt = values[0].nvars
        out = Poly.zero(self.field, tgt)
        powers = [{} for _ in range(self.nvars)]
        for e, c in self.terms.items():
            m = None
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if k not in powers[i]:
                    powers[i][k] = values[i] ** k
                m = powers[i][k] if m is None else m * powers[i][k]
            out = out + (Poly.const(self.field, tgt, c) if m is None
                         else m.scale(c))
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
        out = Poly(self.field, nvars)
        out.terms = {e + pad: c for e, c in self.terms.items()}
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            mono = "*".join("y%d^%d" % (i, k) if k > 1 else "y%d" % i
                            for i, k in enumerate(e) if k)
            c = self.terms[e]
            bits.append("%s%s" % (c, "*" + mono if mono else ""))
        return " + ".join(bits)
