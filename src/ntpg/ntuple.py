"""The n-tuple principal recursion: every intersected sub-system
(G^i; G^1∩G^i, ..., G^n∩G^i) must again be (n-1)-tuple principal, down to
n = 2, a double principal group; a direct 1-tuple input is accepted when
its single subgroup is normal and generates (forcing G^1 = Γ)."""

from collections import namedtuple

from .errors import InternalInconsistency, ParentMismatch
from .groups import _closure, generates, intersect, normality_witness


def _failures(level, labelled):
    """NotNormal for each (label, subgroup) in order, then NotGenerating if
    the union falls short of the level, a Subgroup of Γ holding them all;
    each least witness is named by its rank among the level's members."""
    rank = level.members.index
    failures = []
    for label, H in labelled:
        w = normality_witness(level, H)
        if w is not None:
            failures.append({"kind": "NotNormal", "subgroup": label,
                             "witness": {"conjugator": rank(w[0]),
                                         "element": rank(w[1])}})
    _, gen = _closure(level.parent,
                      set().union(*(H.members for _, H in labelled)))
    if len(gen) != len(level):
        missing = next(i for i, m in enumerate(level.members) if m not in gen)
        failures.append({"kind": "NotGenerating", "missing": missing})
    return failures



NTupleWitness = namedtuple("NTupleWitness", "verdict trace")
NTupleWitness.__doc__ = """Recursive verification record of an n-tuple
principal group."""


def _verify_ntuple_level(level, subgroups, path):
    node = {"path": list(path),
            "group_order": len(level),
            "subgroup_orders": [len(H) for H in subgroups],
            "failures": _failures(level, list(enumerate(subgroups))),
            "children": []}
    ok = not node["failures"]
    if ok and len(subgroups) >= 3:
        # recurse into each intersected sub-system at level n-1, in Γ
        for i, H in enumerate(subgroups):
            subs = [intersect(H, K) for j, K in enumerate(subgroups) if j != i]
            child_ok, child = _verify_ntuple_level(H, subs, path + [i])
            node["children"].append(child)
            ok = ok and child_ok
    return ok, node


def verify_ntuple(gamma, subgroups):
    """Recursive n-tuple verification with a full trace.

    n = 1 asks the single subgroup to be normal and generating (so equal to
    the whole group); n = 2 coincides with `verify_double`; n >= 3 recurses
    into every intersected sub-system.  Each level is a Subgroup of Γ, the
    top one all of Γ (``gamma.whole()``), read in Γ's table: none is
    rebuilt as a group of its own, and a witness is named by its rank among
    the level's members, its index in the level reified.  When the verdict
    is true, the consequence that every pair (Γ; G^i, G^j) is a double
    principal group is asserted as a theory oracle, once per unordered
    pair.  The top level has already found every G^i normal in Γ, so the
    oracle asks only whether G^i ∪ G^j generates Γ; it builds no
    DoublePrincipalGroup and no quotient.
    """
    for H in subgroups:
        if H.parent is not gamma:
            raise ParentMismatch("subgroups of a different parent group")
    ok, trace = _verify_ntuple_level(gamma.whole(), list(subgroups), [])
    if ok and len(subgroups) >= 2:
        for i in range(len(subgroups)):
            for j in range(i + 1, len(subgroups)):
                if not generates(gamma, [subgroups[i], subgroups[j]]):
                    raise InternalInconsistency(
                        "pair is not double principal despite n-tuple verdict",
                        pair=(i, j))
    return NTupleWitness(ok, trace)
