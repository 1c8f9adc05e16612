"""Exact scalar fields: the rationals and prime fields F_p.

Scalars are plain Python numbers: ``fractions.Fraction`` values over Q and
ints in 0..p-1 over F_p.  Callers add, subtract and multiply them with the
operators and pass every result through ``Field.norm``, which reduces mod p
over F_p and is the identity over Q; this module is the only place that
knows how.  ``Field.of`` checks and converts an input scalar, and division
goes through ``Field.inv`` so that the zero-divisor check lives in one place.
"""

from functools import cached_property

from .errors import InvalidInput, NotInvertible, is_int

PRIME_CAP = 97


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RationalField:
    char = 0
    name = "Q"

    @cached_property
    def _fraction(self):
        # imported on first use, so a run over F_p never loads it
        from fractions import Fraction
        return Fraction

    zero = cached_property(lambda self: self._fraction(0))
    one = cached_property(lambda self: self._fraction(1))

    def of(self, x):
        if isinstance(x, self._fraction):
            return x
        if isinstance(x, int):
            return self._fraction(x)
        raise InvalidInput("not a rational scalar", value=repr(x))

    def norm(self, a):
        return a

    def pow(self, a, k):
        return a ** k

    def inv(self, a):
        if a == 0:
            raise NotInvertible("division by zero in Q")
        return 1 / self._fraction(a)

    def parse(self, num, den="1"):
        return self._fraction(int(num), int(den))

    def unparse(self, a):
        return (str(a.numerator), str(a.denominator))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    zero = 0
    one = 1

    def __init__(self, p):
        # the cap first: trial division of a large p would not end
        if p > PRIME_CAP:
            raise InvalidInput("prime exceeds configured cap", p=p,
                               cap=PRIME_CAP)
        if not _is_prime(p):
            raise InvalidInput("characteristic must be prime", p=p)
        self.p = p
        self.char = p
        self.name = "F%d" % p

    def of(self, x):
        if isinstance(x, int):
            return x % self.p
        raise InvalidInput("not an F_p scalar", value=repr(x))

    def norm(self, a):
        return a % self.p

    def pow(self, a, k):
        return pow(a, k, self.p)

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise NotInvertible("division by zero in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def parse(self, num, den="1"):
        return int(num) * self.inv(int(den)) % self.p

    def unparse(self, a):
        return (str(a), "1")

    def elements(self):
        return list(range(self.p))

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = RationalField()

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


def field_from_json(spec):
    """{"field": "Q"} or {"field": {"Fp": p}} (the inner value also accepted);
    p must be an integer."""
    if isinstance(spec, dict) and "field" in spec:
        spec = spec["field"]
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and "Fp" in spec:
        p = spec["Fp"]
        if not is_int(p):
            raise InvalidInput("field characteristic must be an integer",
                               p=p)
        return GF(p)
    raise InvalidInput("unrecognized field spec", spec=repr(spec))


def field_to_json(field):
    if field.char == 0:
        return "Q"
    return {"Fp": field.char}


# -- exact dense linear algebra (desk scale) ---------------------------------

def mat_inv(field, rows):
    """Invert a square matrix of field scalars by Gauss-Jordan elimination.

    Returns the inverse as a list of rows, or None if singular.
    """
    n = len(rows)
    norm = field.norm
    aug = [[field.of(x) for x in row] + [field.one if i == j else field.zero
                                         for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        scale = field.inv(aug[col][col])
        aug[col] = [norm(scale * x) for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [norm(a - f * b) for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]
