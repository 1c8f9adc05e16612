"""Graded signatures: each coordinate's weight in N^n, an n-tuple.

A simple signature (a graded bundle of degree k) is the case n = 1, and a
multi signature has 0/1 entries over n commuting gradings (the double and
n-tuple vector bundles).  The JSON spelling is unchanged: simple weights
still read and print as integers.
"""

from .errors import InvalidInput, is_int

MAX_COORDS = 24
MAX_GRADINGS = 4
MAX_WEIGHT = 6


def _integer(x, what):
    """x itself if it is an integer; strings, floats and bools are input errors."""
    if not is_int(x):
        raise InvalidInput("%s must be an integer" % what, value=x)
    return x


class GradedSignature:
    """Coordinate weights in N^n, one n-tuple per coordinate.

    A simple signature is the n = 1 case: dims=(d_1, ..., d_k) gives d_w
    coordinates of weight (w,), plus an optional block of weight-(0,) base
    coordinates, and no weight may exceed MAX_WEIGHT.  A multi signature
    lists (sigma, dim) blocks over n gradings with 0/1 vectors sigma; the
    zero vector is the base block.  ``mode`` records which of the two the
    input was, for validation and for the JSON spelling (an integer weight
    for simple signatures, a list for multi ones), which is unchanged.
    Coordinates are ordered block by block, blocks by ascending total
    weight with earlier gradings first within a level.
    """

    __slots__ = ("mode", "n", "blocks", "weights", "ncoords")

    def __init__(self, mode, blocks, n=1):
        if mode not in ("simple", "multi"):
            raise InvalidInput("unknown signature mode", mode=mode)
        self.mode = mode
        self.n = n
        if mode == "multi":
            # a multi listing's order is arbitrary: the first non-integer
            # is named in repr order, which no relisting changes
            blocks = sorted(blocks, key=repr)
        blocks = [(tuple(_integer(x, "weight") for x in s),
                   _integer(d, "block dimension")) for s, d in blocks]
        # ascending total weight; within a level, earlier gradings first,
        # so the (d, d', d0) double space orders as y, y', z; the checks
        # below name the first bad block in this order, not the listing's
        blocks.sort(key=lambda bd: (sum(bd[0]), [-x for x in bd[0]]))
        if mode == "multi":
            for s, _ in blocks:
                if len(s) != n or any(x not in (0, 1) for x in s):
                    raise InvalidInput("multi weights must be 0/1 vectors",
                                       sigma=list(s))
        for s, d in blocks:
            if d < 0:
                raise InvalidInput("negative block dimension",
                                   weight=self.spell_weight(s))
        blocks = [(s, d) for s, d in blocks if d > 0]
        seen = set()
        for s, d in blocks:
            if s in seen:
                raise InvalidInput("duplicate weight block",
                                   weight=self.spell_weight(s))
            seen.add(s)
        self.blocks = tuple(blocks)
        # capped before the weights are spelled out, one per coordinate
        self.ncoords = sum(d for _, d in blocks)
        if self.ncoords == 0:
            raise InvalidInput("signature has no coordinates")
        if self.ncoords > MAX_COORDS:
            raise InvalidInput("too many coordinates", ncoords=self.ncoords,
                               cap=MAX_COORDS)
        self.weights = tuple(s for s, d in blocks for _ in range(d))
        if mode == "simple" and max(self.weights)[0] > MAX_WEIGHT:
            raise InvalidInput("weight exceeds cap", cap=MAX_WEIGHT)

    @classmethod
    def simple(cls, dims, base=0):
        blocks = [((0,), base)] + [((w + 1,), d) for w, d in enumerate(dims)]
        return cls("simple", blocks)

    @classmethod
    def multi(cls, n, block_dims, base=0):
        """block_dims: (sigma, dim) pairs; a sigma given twice is an
        input error."""
        n = _integer(n, "number of gradings")
        if not 1 <= n <= MAX_GRADINGS:
            raise InvalidInput("number of gradings out of range", n=n)
        return cls("multi", [((0,) * n, base), *block_dims], n=n)

    @classmethod
    def double_vector(cls, d, d_prime, d_core):
        """The (d, d', d0) double space signature: blocks (1,0), (0,1), (1,1)."""
        return cls.multi(2, [((1, 0), d), ((0, 1), d_prime), ((1, 1), d_core)])

    def spell_weight(self, w):
        """A weight as the input spelled it: an integer for simple
        signatures, the tuple (a JSON list) for multi ones."""
        return w[0] if self.mode == "simple" else w

    def zero_weight(self):
        return (0,) * self.n

    def monomial_weight(self, exps):
        w = [0] * self.n
        for e, wi in zip(exps, self.weights):
            if e:
                for k, x in enumerate(wi):
                    w[k] += e * x
        return tuple(w)

    def block_coords(self, w):
        return [i for i, wi in enumerate(self.weights) if wi == w]

    def __eq__(self, other):
        return (isinstance(other, GradedSignature) and self.mode == other.mode
                and self.n == other.n and self.blocks == other.blocks)


def monomials_of_weight(sig, target):
    """All exponent tuples of the given weight, an n-tuple.

    Weight-0 coordinates would make the set infinite, so they are left out:
    their exponent is always 0, and the zero target gives only the
    constant monomial.
    """
    out = []

    def rec(i, remaining, exps):
        if i == sig.ncoords:
            if not any(remaining):
                out.append(tuple(exps))
            return
        w = sig.weights[i]
        e = 0
        cur = remaining
        while True:
            exps.append(e)
            rec(i + 1, cur, exps)
            exps.pop()
            if not any(w):
                break
            cur = tuple(a - b for a, b in zip(cur, w))
            if min(cur) < 0:
                break
            e += 1

    rec(0, target, [])
    return out
