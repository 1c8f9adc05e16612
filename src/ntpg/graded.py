"""Weight-graded polynomial maps, dilations, homogeneity structures and the
second-order tangent prolongation of a chart change.

The coordinates carry the weights of a ``signature``.  A polynomial map is
a graded morphism exactly when every monomial of every component has
source weight equal to its target coordinate's weight; this is the formal
version of intertwining the dilations, and all identity checking here is
symbolic (formal parameters are extra polynomial variables, never sampled,
so the checks are sound over every field).
"""

from collections import namedtuple

from .errors import (InternalDisagreement, InternalInconsistency,
                     InvalidInput, NotInvertible, NotInvertibleChart,
                     SignatureMismatch, all_ints)
from .fields import mat_inv
from .poly import Poly
from .signature import GradedSignature, _integer


def _require_field(field, other):
    if other is not field:
        raise InvalidInput("polynomials over different fields",
                           fields=[field.name, other.name])


class PolyMap:
    """A polynomial map between graded coordinate spaces.

    components[c] is the polynomial (over the source variables) giving
    target coordinate c.
    """

    __slots__ = ("sig_in", "sig_out", "field", "components")

    def __init__(self, sig_in, sig_out, field, components):
        if len(components) != sig_out.ncoords:
            raise InvalidInput("wrong number of components")
        for f in components:
            if f.nvars != sig_in.ncoords:
                raise InvalidInput("component over wrong variable count")
            _require_field(field, f.field)
        self.sig_in = sig_in
        self.sig_out = sig_out
        self.field = field
        self.components = tuple(components)

    @classmethod
    def identity(cls, sig, field):
        comps = [Poly.var(field, sig.ncoords, i) for i in range(sig.ncoords)]
        return cls(sig, sig, field, comps)

    @classmethod
    def from_terms(cls, sig_in, sig_out, field, terms):
        """terms: iterable of (target index, exponent tuple, coefficient)."""
        data = [{} for _ in range(sig_out.ncoords)]
        for tgt, exps, c in terms:
            exps = tuple(exps)
            if not all_ints((tgt, *exps)):
                raise InvalidInput("target and exponents must be integers",
                                   target=tgt, exponents=list(exps))
            if not 0 <= tgt < sig_out.ncoords:
                raise InvalidInput("target coordinate out of range", target=tgt)
            if len(exps) != sig_in.ncoords:
                raise InvalidInput("exponent tuple has wrong length",
                                   target=tgt, exponents=list(exps))
            data[tgt][exps] = data[tgt].get(exps, 0) + field.of(c)
        comps = [Poly(field, sig_in.ncoords, d) for d in data]
        return cls(sig_in, sig_out, field, comps)

    def key(self):
        return tuple(f.key() for f in self.components)

    def __eq__(self, other):
        return (isinstance(other, PolyMap) and self.sig_in == other.sig_in
                and self.sig_out == other.sig_out
                and self.components == other.components)

    def eval(self, point):
        return tuple(f.eval(point) for f in self.components)


def compose(f, g):
    """f after g: (f ∘ g)(x) = f(g(x)); signatures must chain."""
    if f.sig_in != g.sig_out:
        raise SignatureMismatch("signatures do not chain")
    _require_field(f.field, g.field)
    comps = [c.subs(list(g.components)) for c in f.components]
    return PolyMap(g.sig_in, f.sig_out, f.field, comps)


def _require_same_mode(pm):
    if pm.sig_in.mode != pm.sig_out.mode or pm.sig_in.n != pm.sig_out.n:
        raise SignatureMismatch("mixed signature modes")


def is_graded_morphism(pm):
    """Does pm intertwine the dilations of its two signatures?

    Formally equivalent to weight preservation: every monomial of component
    c has source weight equal to the weight of target coordinate c.
    """
    _require_same_mode(pm)
    return graded_violation(pm) is None


def graded_violation(pm):
    """First (target, exponents) pair breaking weight preservation, or None."""
    for c, f in enumerate(pm.components):
        target = pm.sig_out.weights[c]
        bad = min((exps for exps in f.terms
                   if pm.sig_in.monomial_weight(exps) != target), default=None)
        if bad is not None:
            return (c, bad)
    return None


def triangular_inverse(pm):
    """Solve for an exact inverse up the weight filtration.

    Works for any map whose blocks are triangular: within each block the
    bare degree-1 part must be a constant invertible matrix, and every
    other monomial may involve only variables of strictly smaller total
    weight (weight-0 blocks must be affine).  The result is verified to be
    a two-sided inverse, exactly.
    """
    _require_same_mode(pm)
    sig_in, sig_out, field = pm.sig_in, pm.sig_out, pm.field
    if [bd for bd in sig_in.blocks] != [bd for bd in sig_out.blocks]:
        raise NotInvertible("signatures have different block dimensions")

    nv_in, nv_out = sig_in.ncoords, sig_out.ncoords
    # inverse components, indexed by source coordinate
    g_comp = [None] * nv_in

    for wkey, _dim in sig_in.blocks:
        rows_idx = sig_out.block_coords(wkey)
        cols_idx = sig_in.block_coords(wkey)
        lin = [[field.zero] * len(cols_idx) for _ in rows_idx]
        rests = []
        for r, c in enumerate(rows_idx):
            f = pm.components[c]
            rest = {}
            for exps, coeff in f.terms.items():
                support = [i for i, e in enumerate(exps) if e]
                block_vars = [i for i in support if i in cols_idx]
                if not any(wkey):
                    # base block: affine only
                    deg = sum(exps)
                    if deg == 0:
                        rest[exps] = coeff
                    elif deg == 1:
                        lin[r][cols_idx.index(support[0])] = coeff
                    else:
                        raise NotInvertible("base block is not affine",
                                            target=c, exponents=exps)
                elif block_vars:
                    others = [i for i in support if i not in cols_idx]
                    if others or exps[block_vars[0]] != 1 or len(block_vars) > 1:
                        raise NotInvertible("linear block is not constant",
                                            target=c, exponents=exps)
                    lin[r][cols_idx.index(block_vars[0])] = coeff
                else:
                    if any(sum(sig_in.weights[i]) >= sum(wkey)
                           and any(sig_in.weights[i]) for i in support):
                        raise NotInvertible("block is not triangular",
                                            target=c, exponents=exps)
                    rest[exps] = coeff
            rests.append(Poly._of(field, nv_in, rest))
        linv = mat_inv(field, lin)
        if linv is None:
            raise NotInvertible("singular linear block",
                                block=sig_in.spell_weight(wkey))
        # substitute the already-computed inverse for lower variables
        sub_list = []
        for i in range(nv_in):
            if g_comp[i] is not None:
                sub_list.append(g_comp[i])
            else:
                sub_list.append(Poly.zero(field, nv_out))
        adjusted = []
        for r, c in enumerate(rows_idx):
            hat = Poly.var(field, nv_out, c)
            adjusted.append(hat - rests[r].subs(sub_list))
        for bpos, b in enumerate(cols_idx):
            acc = Poly.zero(field, nv_out)
            for r in range(len(rows_idx)):
                acc = acc + adjusted[r].scale(linv[bpos][r])
            g_comp[b] = acc

    ginv = PolyMap(sig_out, sig_in, field, g_comp)
    if compose(pm, ginv) != PolyMap.identity(sig_out, field) or \
            compose(ginv, pm) != PolyMap.identity(sig_in, field):
        raise InternalInconsistency("computed inverse fails round trip")
    return ginv


def invert(pm):
    """Exact inverse of a weight-preserving map, solved up the filtration.

    The weight-0 block must be affine with an invertible linear part; each
    positive block must have a constant invertible linear part (terms mixing
    a block variable with base variables are rejected).  Higher terms are
    eliminated by back-substitution of the already-inverted lower blocks.
    """
    _require_same_mode(pm)
    w = graded_violation(pm)
    if w is not None:
        raise NotInvertible("map is not weight-preserving", witness=w)
    return triangular_inverse(pm)


# -- the second-order tangent prolongation ------------------------------------

def t2_transition(chart):
    """The second-order prolongation of a chart change.

    Input: a polynomial self-map of weight-0 coordinates with an invertible
    linear part at the origin.  Output: the graded transition on
    (x, xdot, xddot) with weights (0, 1, 2): velocities transform by the
    Jacobian, accelerations pick up the quadratic velocity correction from
    the second derivative.
    """
    sig0 = chart.sig_in
    if chart.sig_out != sig0 or sig0 != GradedSignature.simple(
            [], base=sig0.ncoords):
        raise InvalidInput("chart change must be a self-map of weight-0 "
                           "coordinates")
    d = sig0.ncoords
    field = chart.field
    # partials[a][b] is the derivative of component a along coordinate b
    partials = [[f.diff(b) for b in range(d)] for f in chart.components]
    jac0 = [[df.eval((field.zero,) * d) for df in row] for row in partials]
    if mat_inv(field, jac0) is None:
        raise NotInvertibleChart("Jacobian at the origin is singular")

    sig = GradedSignature.simple([d, d], base=d)
    nv = 3 * d
    x = [Poly.var(field, nv, b) for b in range(nv)]
    lift = x[:d]
    jac = [[df.subs(lift) for df in row] for row in partials]

    comps = [f.subs(lift) for f in chart.components]
    for a in range(d):
        acc = Poly.zero(field, nv)
        for b in range(d):
            acc = acc + jac[a][b] * x[d + b]
        comps.append(acc)
    for a in range(d):
        acc = Poly.zero(field, nv)
        for b in range(d):
            acc = acc + jac[a][b] * x[2 * d + b]
        for b in range(d):
            for cc in range(d):
                acc = acc + partials[a][b].diff(cc).subs(lift) * \
                    x[d + b] * x[d + cc]
        comps.append(acc)
    out = PolyMap(sig, sig, field, comps)
    if not is_graded_morphism(out):
        raise InternalInconsistency("prolongation is not weight-graded")
    return out


def t2_has_quadratic_term(pm):
    """Does any acceleration component carry a velocity-quadratic term?"""
    sig = pm.sig_in
    d = sig.ncoords // 3
    for a in range(d):
        comp = pm.components[2 * d + a]
        for exps in comp.terms:
            if sum(exps[d:2 * d]) == 2:
                return True
    return False


# -- homogeneity / weight decomposition --------------------------------------

def weight_components(f, sig):
    """Decompose a polynomial by total monomial weight (simple signatures)."""
    if sig.mode != "simple":
        raise SignatureMismatch("weight decomposition needs a simple signature")
    if f.nvars != sig.ncoords:
        raise InvalidInput("polynomial over wrong variable count")
    comps = {}
    for exps, c in f.terms.items():
        comps.setdefault(sum(sig.monomial_weight(exps)), {})[exps] = c
    return {w: Poly._of(f.field, f.nvars, terms)
            for w, terms in sorted(comps.items())}


def is_homogeneous(f, sig, w):
    """Single weight-w component?  The zero polynomial is homogeneous of
    every degree (empty decomposition)."""
    comps = weight_components(f, sig)
    if not comps:
        return True
    return set(comps) == {w}


class Derivation:
    """A vector field sum a_i(y) d/dy_i acting as a derivation."""

    __slots__ = ("field", "nvars", "coeffs")

    def __init__(self, field, nvars, coeffs):
        if len(coeffs) != nvars:
            raise InvalidInput("need one coefficient per variable")
        self.field = field
        self.nvars = nvars
        self.coeffs = tuple(coeffs)

    def apply(self, f):
        out = Poly.zero(self.field, self.nvars)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                out = out + a * f.diff(i)
        return out

    def bracket(self, other):
        """[X, Y] with coefficients X(Y_i) - Y(X_i)."""
        coeffs = [self.apply(other.coeffs[i]) - other.apply(self.coeffs[i])
                  for i in range(self.nvars)]
        return Derivation(self.field, self.nvars, coeffs)

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)


# -- dilations as formal families ---------------------------------------------

class HomogeneityStructure:
    """A family of maps polynomial in one formal parameter t.

    Components are polynomials in (y_0..y_{m-1}, t) with t the last
    variable.  Construction checks the monoid laws h_1 = id and
    h_t ∘ h_s = h_{ts} as formal polynomial identities.
    """

    __slots__ = ("ncoords", "field", "components")

    def __init__(self, ncoords, field, components):
        if len(components) != ncoords:
            raise InvalidInput("wrong number of components")
        for f in components:
            if f.nvars != ncoords + 1:
                raise InvalidInput("component must use coords plus parameter")
        self.ncoords = ncoords
        self.field = field
        self.components = tuple(components)
        self._check_laws()

    def at_one(self):
        one = Poly.const(self.field, self.ncoords, self.field.one)
        vals = [Poly.var(self.field, self.ncoords, i) for i in range(self.ncoords)]
        return [c.subs(vals + [one]) for c in self.components]

    def _check_laws(self):
        field, nc = self.field, self.ncoords
        for i, c in enumerate(self.at_one()):
            if c != Poly.var(field, nc, i):
                raise InternalInconsistency("h_1 is not the identity",
                                            coordinate=i)
        # h_t ∘ h_s = h_{ts} over variables (y, t, s)
        big = nc + 2
        t = Poly.var(field, big, nc)
        s = Poly.var(field, big, nc + 1)
        ys = [Poly.var(field, big, i) for i in range(nc)]
        inner = [c.subs(ys + [s]) for c in self.components]
        lhs = [c.subs(inner + [t]) for c in self.components]
        rhs = [c.subs(ys + [t * s]) for c in self.components]
        for i in range(nc):
            if lhs[i] != rhs[i]:
                raise InternalInconsistency("h_t∘h_s != h_{ts}", coordinate=i)

    def weight_vector_field(self):
        """d/dt at t = 1, the infinitesimal generator of the family.  For a
        ``dilation`` it is the Euler field sum w y d/dy, which detects
        homogeneity; over F_p it sees weights mod p only, and the formal
        dilation test is the characteristic-independent criterion."""
        field, nc = self.field, self.ncoords
        one = Poly.const(field, nc, field.one)
        vals = [Poly.var(field, nc, i) for i in range(nc)]
        coeffs = [c.diff(nc).subs(vals + [one]) for c in self.components]
        return Derivation(field, nc, coeffs)

    def commutes_with(self, other):
        """h_t ∘ k_s = k_s ∘ h_t as a formal identity in (y, t, s)."""
        if other.ncoords != self.ncoords:
            raise SignatureMismatch("structures on different coordinate sets")
        field, nc = self.field, self.ncoords
        big = nc + 2
        t = Poly.var(field, big, nc)
        s = Poly.var(field, big, nc + 1)
        ys = [Poly.var(field, big, i) for i in range(nc)]
        h_at_t = [c.subs(ys + [t]) for c in self.components]
        k_at_s = [c.subs(ys + [s]) for c in other.components]
        hk = [c.subs(k_at_s + [t]) for c in self.components]
        kh = [c.subs(h_at_t + [s]) for c in other.components]
        return hk == kh

    def max_parameter_degree(self):
        return max((e[self.ncoords] for c in self.components for e in c.terms),
                   default=0)


def dilation(sig, field, axis=0):
    """The diagonal dilation family of a signature: coordinate of weight w
    scales by t^w (for multi signatures, by t^(sigma_axis) in family
    ``axis``)."""
    _integer(axis, "grading axis")
    if not 0 <= axis < sig.n:
        if sig.mode == "simple":
            raise InvalidInput("simple signatures have a single grading")
        raise InvalidInput("grading axis out of range", axis=axis)
    m = sig.ncoords
    comps = []
    for i in range(m):
        exps = [0] * (m + 1)
        exps[i] = 1
        exps[m] = sig.weights[i][axis]
        comps.append(Poly(field, m + 1, {tuple(exps): field.one}))
    return HomogeneityStructure(m, field, comps)


def dilation_families(sig, field):
    return [dilation(sig, field, axis) for axis in range(sig.n)]


def conjugate_structure(h, phi, phi_inv=None):
    """The family phi ∘ h_t ∘ phi^-1 on the same coordinates."""
    if phi.sig_in != phi.sig_out:
        raise SignatureMismatch("conjugation needs an endo-map")
    if phi.sig_in.ncoords != h.ncoords:
        raise SignatureMismatch("structure and map coordinate counts differ")
    if phi_inv is None:
        phi_inv = invert(phi)
    elif compose(phi, phi_inv) != PolyMap.identity(phi.sig_out, phi.field):
        raise NotInvertible("supplied inverse fails the round trip")
    field, nc = h.field, h.ncoords
    big = nc + 1
    t = Poly.var(field, big, nc)
    inner = [c.lift(big) for c in phi_inv.components]
    mid = [c.subs(inner + [t]) for c in h.components]
    outer = [c.subs(mid) for c in phi.components]
    return HomogeneityStructure(nc, field, outer)


StructureCompatReport = namedtuple(
    "StructureCompatReport", "commute bracket_commute agreement_enforced")
StructureCompatReport.__doc__ = """Two independent verdicts for pairwise
compatibility of dilations."""


def check_compatible_structures(structures):
    """Pairwise commutation of dilation families, two ways.

    Verdict one: h^i_t ∘ h^j_s = h^j_s ∘ h^i_t as formal identities.
    Verdict two: the infinitesimal generators commute, [∇^i, ∇^j] = 0.
    Over characteristic zero (or when every parameter degree stays below
    the characteristic) the two must agree and a disagreement raises
    InternalDisagreement; over small F_p the generator test only sees
    weights mod p, so agreement is reported but not enforced.
    """
    if not structures:
        raise InvalidInput("need at least one structure")
    nc = structures[0].ncoords
    field = structures[0].field
    for h in structures:
        if h.ncoords != nc:
            raise SignatureMismatch("structures on different coordinate sets")
    commute = True
    bracket_commute = True
    fields_ok = field.char == 0 or all(
        h.max_parameter_degree() < field.char for h in structures)
    nabla = [h.weight_vector_field() for h in structures]
    for i in range(len(structures)):
        for j in range(i + 1, len(structures)):
            if not structures[i].commutes_with(structures[j]):
                commute = False
            if not nabla[i].bracket(nabla[j]).is_zero():
                bracket_commute = False
    if fields_ok and commute != bracket_commute:
        raise InternalDisagreement(
            "formal commutation and generator bracket disagree",
            commute=commute, bracket=bracket_commute)
    return StructureCompatReport(commute, bracket_commute, fields_ok)
