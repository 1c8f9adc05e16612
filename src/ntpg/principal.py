"""Double principal groups and the bundle pipeline.

A double principal group is a group with two normal subgroups whose union
generates it; ``ntuple`` holds the recursion to n of them.

The pipeline `gamma_from_actions` rebuilds the structure group of a pair of
compatible free actions from scratch: it derives the twist g_{g'} from
pgg' = pg'g_{g'}, builds Γ = (G' ⋉ G)/G0 as the group of the permutations
p -> (p.g').g, derives the reverse twist g'_g from pg'g = pgg'_g and checks
the commuting square of orbit maps.
"""

from collections import namedtuple

from . import groupoids
from .actions import (FiniteAction, action_check, automorphism_action,
                      descend, quotient, subgroup_as_group)
from .errors import (InternalInconsistency, NotAnAction, NotCompatible,
                     NotFree, ParentMismatch)
from .groups import (Subgroup, _built, _built_group, _inverse_perm,
                     _perm_group, generates, intersect, normality_witness)
from .ntuple import _failures, verify_ntuple  # noqa: F401, perfbench traces


class DoublePrincipalGroup(namedtuple("DoublePrincipalGroup",
                                      "gamma g1 g2 core")):
    """(Γ; G, G') with both subgroups normal and jointly generating, and
    its core G∩G'.

    The quotients [G] = G/core and [G'] = G'/core are isomorphic to Γ/G'
    and Γ/G by the second isomorphism theorem, as Γ = GG'.  ``report``
    gives their orders by Lagrange and builds neither.
    """

    __slots__ = ()

    def report(self):
        core = len(self.core)
        return {"gamma_order": self.gamma.order,
                "g1_order": len(self.g1),
                "g2_order": len(self.g2),
                "core_order": core,
                "quotients": [len(self.g1) // core, len(self.g2) // core]}


VerifyResult = namedtuple("VerifyResult", "ok dpg failures")


def verify_double(gamma, g1, g2):
    """Check (Γ; G, G'): normality of both and generation by the union.

    On success returns the verified structure with its core G∩G'; it
    builds no quotient.  On failure the result lists each violated
    condition with a minimal witness.
    """
    if g1.parent is not gamma or g2.parent is not gamma:
        raise ParentMismatch("subgroups of a different parent group")
    failures = _failures(gamma.whole(), [("g1", g1), ("g2", g2)])
    if failures:
        return VerifyResult(False, None, failures)
    return VerifyResult(True, DoublePrincipalGroup(gamma, g1, g2,
                                                   intersect(g1, g2)),
                        failures)


VacancyReport = namedtuple("VacancyReport",
                           "vacant product_bijective fiber_size")


def vacancy(dpg):
    """Vacancy (trivial core) against the product-map criterion.

    The multiplication map m : G x G' -> Γ is enumerated independently;
    every element of Γ must be hit exactly |core| times and bijectivity
    must agree with core triviality.
    """
    G = dpg.gamma
    hits = [0] * G.order
    for g in dpg.g1.members:
        for gp in dpg.g2.members:
            hits[G.table[g][gp]] += 1
    nonzero = [h for h in hits if h > 0]
    bijective = nonzero.count(1) == G.order and len(nonzero) == G.order
    vacant = len(dpg.core) == 1
    if vacant != bijective:
        raise InternalInconsistency("vacancy and product bijectivity disagree")
    fiber_sizes = set(nonzero)
    if fiber_sizes != {len(dpg.core)}:
        raise InternalInconsistency("product fibers are not constant |core|",
                                    sizes=sorted(fiber_sizes))
    return VacancyReport(vacant, bijective, len(dpg.core))


DressingAction = namedtuple("DressingAction", "g_on gp_on")
DressingAction.__doc__ = """The conjugation dressings: ``g_on`` takes
(g, g') to g_{g'} = (g')^-1 g g' in G, ``gp_on`` takes (g', g) to
g'_g = g^-1 g' g in G'."""


def _conjugation_rows(G, H, K):
    """The rows of K acting on H by conjugation, k^-1 h k in G, for H and
    K reified (``subgroup_as_group``), in their indices; the rows are not
    yet proved an action."""
    t, inv = G.table, G.inverse
    (_, to_h, from_h), (_, to_k, _) = H, K
    rows = [tuple([from_h.get(t[t[inv[k]][h]][k]) for h in to_h])
            for k in to_k]
    for k, row in zip(to_k, rows):
        if None in row:
            raise InternalInconsistency("dressing leaves the subgroup",
                                        pair=(to_h[row.index(None)], k))
    return rows


def dressing(dpg):
    """Compute both dressing actions and verify all their laws.

    G and G' are reified once each, and each dressing, k^-1 h k, is proved
    a right action by automorphisms (``automorphism_action``).  Checked on
    every pair: the refactorizations gg' = g'g_{g'} = g'_{g^-1}g and
    g'g = gg'_g = g_{(g')^-1}g', and the mixed identity
    (g')_{g^-1}(g')^-1 = g (g_{(g')^-1})^-1.  These are consequences of
    normality, so a failure flags a library bug.
    """
    G = dpg.gamma
    t, inv = G.table, G.inverse
    pair = subgroup_as_group(dpg.g1), subgroup_as_group(dpg.g2)
    ons = []
    for H, K in (pair, pair[::-1]):
        (Hgrp, to_h, _), (Kgrp, to_k, _) = H, K
        rows = _conjugation_rows(G, H, K)
        _built(automorphism_action, Kgrp, Hgrp, rows)
        ons.append({(h, k): to_h[x] for k, row in zip(to_k, rows)
                    for h, x in zip(to_h, row)})
    g_on, gp_on = ons
    for g in dpg.g1.members:
        for gp in dpg.g2.members:
            if t[g][gp] != t[gp][g_on[(g, gp)]]:
                raise InternalInconsistency("gg' != g' g_{g'}", pair=(g, gp))
            if t[g][gp] != t[gp_on[(gp, inv[g])]][g]:
                raise InternalInconsistency("gg' != g'_{g^-1} g", pair=(g, gp))
            if t[gp][g] != t[g][gp_on[(gp, g)]]:
                raise InternalInconsistency("g'g != g g'_g", pair=(g, gp))
            if t[gp][g] != t[g_on[(g, inv[gp])]][gp]:
                raise InternalInconsistency("g'g != g_{(g')^-1} g'",
                                            pair=(g, gp))
            lhs = t[gp_on[(gp, inv[g])]][inv[gp]]
            rhs = t[g][inv[g_on[(g, inv[gp])]]]
            if lhs != rhs:
                raise InternalInconsistency("mixed dressing identity fails",
                                            pair=(g, gp))
    return DressingAction(g_on, gp_on)


def semidirect(gprime, g, act):
    """G' ⋉ G for a right action of G' on G by automorphisms.

    ``act[g'][x]`` is x twisted by g', proved an action by automorphisms
    (``automorphism_action``).  Multiplication follows
    (g', g)(g1', g1) = (g'g1', g_{g1'} g1); the stated inverse formula
    ((g')^-1, (g^-1)_{(g')^-1}) is verified, G embeds normally and G'
    embeds as a subgroup.
    """
    np_, n = gprime.order, g.order
    automorphism_action(gprime, g, act)

    def row_of(left):
        gp, x = divmod(left, n)
        return tuple(c * n + y for c, twisted in zip(gprime.table[gp], act)
                     for y in g.table[twisted[x]])

    S = _built_group(np_ * n, gprime.identity * n + g.identity, row_of,
                     [gprime.identity * n + x for x in g.generators] +
                     [gp * n + g.identity for gp in gprime.generators])

    for gp in range(np_):
        for x in range(n):
            idx = gp * n + x
            expect = gprime.inverse[gp] * n + \
                act[gprime.inverse[gp]][g.inverse[x]]
            if S.inverse[idx] != expect:
                raise InternalInconsistency("inverse formula fails", pair=(gp, x))

    embed_gp, embed_g = (_built(Subgroup, S, product_factor_members(
        gprime, g, which)) for which in (0, 1))
    if normality_witness(S, embed_g) is not None:
        raise InternalInconsistency("G does not embed normally")
    if not generates(S, [embed_g, embed_gp]):
        raise InternalInconsistency("factors do not generate")
    return S


def product_factor_members(G, H, which):
    """Member indices of the embedded factor G (which 0) or H (which 1)
    of a product of G and H coded g*|H| + h."""
    if which == 0:
        return [g * H.order + H.identity for g in range(G.order)]
    return [G.identity * H.order + h for h in range(H.order)]


def semidirect_from_dressing(dpg):
    """G' ⋉ G built from the dressing action of a double principal group,
    which ``semidirect`` proves an action by automorphisms."""
    G1, G2 = subgroup_as_group(dpg.g1), subgroup_as_group(dpg.g2)
    return _built(semidirect, G2[0], G1[0],
                  _conjugation_rows(dpg.gamma, G1, G2))


# -- the two-action pipeline --------------------------------------------------

class PipelineResult(namedtuple("PipelineResult",
                                "gamma gamma_action kernel m_size "
                                "m_prime_size m0_size")):
    __slots__ = ()

    def report(self):
        return {"gamma_order": self.gamma.order,
                "kernel_order": len(self.kernel),
                "m_size": self.m_size,
                "m_prime_size": self.m_prime_size,
                "m0_size": self.m0_size}


def derive_twist(set_size, rho, rho_prime, report, **where):
    """Solve pgg' = pg'g_{g'} for g_{g'}, a single candidate per (g, g').

    Freeness of rho makes the candidate from one base point unique: it is
    c[base]^-1 c[target] for c the coordinates in rho's ``action_check``
    report, and there is none across orbits.  It is then verified against
    every point, which is the compatibility proof.  ``where`` is added to
    the details of a NotCompatible witness.
    """
    if set_size == 0:
        raise NotAnAction("empty point set")
    c, t, inv = report.coordinate, rho.group.table, rho.group.inverse
    twist = {}
    for g in range(rho.group.order):
        for gp in range(rho_prime.group.order):
            target = rho_prime.act[gp][rho.act[g][0]]
            base = rho_prime.act[gp][0]
            if report.orbit_of[base] != report.orbit_of[target]:
                raise NotCompatible("no twist candidate", pair=(g, gp),
                                    **where)
            cand = t[inv[c[base]]][c[target]]
            for p in range(set_size):
                if rho_prime.act[gp][rho.act[g][p]] != \
                        rho.act[cand][rho_prime.act[gp][p]]:
                    raise NotCompatible("twist fails at a point",
                                        pair=(g, gp), point=p, **where)
            twist[(g, gp)] = cand
    return twist


def gamma_from_actions(set_size, rho, rho_prime):
    """Rebuild the joint structure group of two compatible free actions.

    Once the twist is derived, Γ = (G' ⋉ G)/G0 is the group of the
    permutations p -> (p.g').g of the pairs (g', g), taken in the order
    g'·|G| + g and labelled by first appearance; the kernel G0 lists the
    pairs acting trivially.  A non-free rho, rho' or induced Γ-action raises
    NotFree, a missing twist NotCompatible, the reverse one with
    ``"direction": "reverse"``.  That the permutations are closed, that the
    orbit maps descend, that the square commutes and that both projections
    are equivariant follow from the theory, so a failure there raises
    InternalInconsistency, a library bug.
    """
    reports = []
    for name, a in (("rho", rho), ("rho_prime", rho_prime)):
        if a.set_size != set_size:
            raise NotAnAction("action on wrong point set", action=name)
        reports.append(action_check(a))
        if not reports[-1].is_free:
            raise NotFree("action is not free", action=name)

    derive_twist(set_size, rho, rho_prime, reports[0])
    G, Gp = rho.group, rho_prime.group
    pair_perms = [tuple(rho.act[g][x] for x in rho_prime.act[gp])
                  for gp in range(Gp.order) for g in range(G.order)]
    perms = list(dict.fromkeys(pair_perms))
    ident = tuple(range(set_size))
    kernel = [i for i, q in enumerate(pair_perms) if q == ident]
    # (p then q)^-1 = p^-1 after q^-1: the map rule on the inverses
    gamma = _perm_group(list(map(_inverse_perm, perms)), range(set_size))
    gamma_action = _built(FiniteAction, gamma, set_size, perms)
    gamma_report = action_check(gamma_action)
    if not gamma_report.is_free:
        raise NotFree("induced gamma action is not free")
    # the reverse twist g'_g of pg'g = pgg'_g; its pairs are (g', g)
    derive_twist(set_size, rho_prime, rho, reports[1], direction="reverse")

    pi, pi_prime = (r.orbit_of for r in reports)
    pi_zero = gamma_report.orbit_of
    m_size = len(set(pi))
    m_prime_size = len(set(pi_prime))
    m0_size = len(set(pi_zero))

    # [pi'] : M -> M0 and [pi] : M' -> M0 well-defined, square commutes
    bracket_pi_prime, p = descend(pi, pi_zero, m_size)
    if bracket_pi_prime is None:
        raise InternalInconsistency("pi' does not descend to M", point=p)
    bracket_pi, p = descend(pi_prime, pi_zero, m_prime_size)
    if bracket_pi is None:
        raise InternalInconsistency("pi does not descend to M'", point=p)
    for p in range(set_size):
        if bracket_pi_prime[pi[p]] != bracket_pi[pi_prime[p]]:
            raise InternalInconsistency("square does not commute", point=p)

    # equivariance of the projections: pi(p.[g',g]) = pi(p.g')
    for i, q in enumerate(pair_perms):
        gp, g = divmod(i, G.order)
        for p in range(set_size):
            if pi[q[p]] != pi[rho_prime.act[gp][p]]:
                raise InternalInconsistency("pi is not a bundle morphism",
                                            element=i, point=p)
            if pi_prime[q[p]] != pi_prime[rho.act[g][p]]:
                raise InternalInconsistency("pi' is not a bundle morphism",
                                            element=i, point=p)

    if gamma.order * len(kernel) != G.order * Gp.order:
        raise InternalInconsistency("order bookkeeping failed")
    return PipelineResult(gamma=gamma, gamma_action=gamma_action,
                          kernel=kernel, m_size=m_size,
                          m_prime_size=m_prime_size, m0_size=m0_size)


CompatibilityResult = namedtuple("CompatibilityResult", "ok forward backward")


def _one_direction(set_size, rho, rho_prime):
    """Does rho_prime induce a compatible pre-principal action on the gauge
    groupoid of rho?  Returns (ok, details)."""
    gpd, labels = groupoids.gauge_groupoid(set_size, rho)
    Gp = rho_prime.group
    pairs = labels.pair_to_arrow
    arrows = list(pairs.values())
    rows = []
    for gp, act in enumerate(rho_prime.act):
        row, k = descend(arrows, [pairs[(act[p], act[q])] for p, q in pairs],
                         gpd.n_arrows)
        if row is None:
            return False, {"reason": "action not well-defined on orbits",
                           "element": gp, "arrow": arrows[k]}
        rows.append(row)
    # once rho' descends it is an action by groupoid automorphisms: each
    # row is a bijection, as g'^-1 descends too; the action law comes from
    # P x P; and (p, q) -> (p.g', q.g') is an automorphism of the pair
    # groupoid whose descent keeps the units and <p,q><q,r> = <p,r>
    ga = groupoids.GroupoidAction(gpd, _built(FiniteAction, Gp, gpd.n_arrows,
                                              rows))
    rep = groupoids.check_compatible(ga)
    if not rep.compatible:
        raise InternalInconsistency("a descended action is not compatible",
                                    witness=rep.witness)
    if not rep.pre_principal:
        return False, {"reason": "not pre-principal"}
    return True, {"kernel_order": len(rep.kernel),
                  "pre_principal": rep.pre_principal}


def check_compatibility(set_size, rho, rho_prime):
    """Full double-principal-bundle condition for two free actions:
    each action must induce a compatible pre-principal action on the gauge
    groupoid of the other."""
    for name, a in (("rho", rho), ("rho_prime", rho_prime)):
        if not action_check(a).is_free:
            raise NotFree("action is not free", action=name)
    fwd_ok, fwd = _one_direction(set_size, rho, rho_prime)
    bwd_ok, bwd = _one_direction(set_size, rho_prime, rho)
    return CompatibilityResult(fwd_ok and bwd_ok, fwd, bwd)


def dpg_morphism_check(phi, source, target):
    """φ(G1) ⊆ G2 and φ(G1') ⊆ G2' for a homomorphism of the ambient groups."""
    if phi.source is not source.gamma or phi.target is not target.gamma:
        raise ParentMismatch("homomorphism endpoints do not match")
    return (all(phi(m) in target.g1 for m in source.g1.members) and
            all(phi(m) in target.g2 for m in source.g2.members))


def exact_sequence_check(dpg):
    """Exactness of 1 -> G0 -> Γ -> [G] x [G'] at G0 and Γ.

    φ sends γ to its pair of cosets modulo G' and modulo G; exactness at Γ
    means ker φ = G0, checked over every element.
    """
    G = dpg.gamma
    _, proj1 = quotient(G, dpg.g2)  # Γ/G' ≅ [G]
    _, proj2 = quotient(G, dpg.g1)  # Γ/G  ≅ [G']
    kernel = [x for x in range(G.order)
              if proj1(x) == proj1(G.identity) and proj2(x) == proj2(G.identity)]
    return set(kernel) == set(dpg.core.members)
