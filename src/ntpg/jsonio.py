"""JSON schemas for every object the CLI reads or writes.

Scalars serialize as {"num": "...", "den": "..."} strings so exact rationals
survive the trip; reports are dumped with sorted keys, making identical
inputs produce byte-identical reports (the timing field is excluded from
that contract).
"""

import json
import math
from collections import Counter
from itertools import chain
from json.encoder import encode_basestring_ascii as _quoted

from . import (actions, cocycles, fields, graded, groupoids, groups, poly,
               signature)
from .errors import DEFAULT_CLOSURE_CAP, InvalidInput, all_ints, is_int

# Input caps: Poly.subs raises polynomials to the exponents of the map it
# substitutes into, and the coboundary search forms |G|^charts before it
# compares that with its own cap.
MAX_EXPONENT = 1000
MAX_CHARTS = 10_000


def _object(obj, what):
    """obj, if it is a JSON object; otherwise an input error."""
    if not isinstance(obj, dict):
        raise InvalidInput("%s must be a JSON object" % what)
    return obj


def _need(obj, key, where):
    if not isinstance(obj, dict) or key not in obj:
        raise InvalidInput("missing field '%s' in %s" % (key, where))
    return obj[key]


def _array(value, what):
    """value, unless a JSON number, boolean or null stands where an array
    belongs.  Strings and objects pass on to the checks on their entries,
    which reject them with messages naming the bad entry."""
    if value is None or isinstance(value, (int, float)):
        raise InvalidInput("%s must be a list" % what, value=value)
    return value


def _is_ints(obj):
    """A list of integers (``is_int``: no booleans)?"""
    return isinstance(obj, list) and all_ints(obj)


def _int_rows(value, what):
    """value, if it is a list of integer lists; otherwise an input error."""
    if not all(_is_ints(row) for row in _array(value, what)):
        raise InvalidInput("%s must be lists of integers" % what)
    return value


def load_group(obj, cap=DEFAULT_CLOSURE_CAP):
    """{"order": n, "table": [[...]]} or {"permutations": [...], "degree": m}."""
    _object(obj, "group")
    if "table" in obj:
        table = _array(obj["table"], "table")
        for row in table:
            _array(row, "table row")
        if "order" in obj and not (is_int(obj["order"])
                                   and obj["order"] == len(table)):
            raise InvalidInput("declared order disagrees with the table")
        return groups.make_group(table)
    if "permutations" in obj:
        perms = _array(obj["permutations"], "permutations")
        if not all(_is_ints(p) for p in perms):
            raise InvalidInput("permutations must be lists of integers")
        degree = obj.get("degree")
        if degree is not None and not (
                is_int(degree) and all(len(p) == degree for p in perms)):
            raise InvalidInput("permutation of wrong degree")
        G, _ = groups.make_group_from_permutations(perms, cap=cap)
        return G
    raise InvalidInput("group needs 'table' or 'permutations'")


def dump_group(G):
    return {"order": G.order, "table": [list(r) for r in G.table]}


def load_subgroup(G, obj):
    """{"members": [...]} or a bare list of members."""
    if isinstance(obj, dict):
        obj = _need(obj, "members", "subgroup")
    if not _is_ints(obj):
        raise InvalidInput("subgroup members must be a list of integers",
                           members=obj)
    return groups.Subgroup(G, obj)


def load_action(obj, cap=DEFAULT_CLOSURE_CAP):
    """{"group": <group>, "points": m, "act": [[...]], "side": "right"}."""
    group = load_group(_need(obj, "group", "action"), cap=cap)
    points = _need(obj, "points", "action")
    if not is_int(points):
        raise InvalidInput("action points must be an integer", points=points)
    return actions.FiniteAction(
        group, points, _int_rows(_need(obj, "act", "action"), "action rows"),
        side=obj.get("side", "right"))


def _least_repeat(keys):
    """The least key that ``keys`` lists more than once."""
    return min(key for key, n in Counter(keys).items() if n > 1)


def load_groupoid(obj):
    mul = {}
    entries = _int_rows(_need(obj, "mul", "groupoid"), "mul entries")
    for entry in entries:
        if len(entry) != 3:
            raise InvalidInput("mul entries must be [g, h, gh]", entry=entry)
        g, h, gh = entry
        mul[(g, h)] = gh
    if len(mul) < len(entries):
        raise InvalidInput("repeated mul pair", pair=list(
            _least_repeat((g, h) for g, h, _ in entries)))
    objects = _need(obj, "objects", "groupoid")
    arrays = [_need(obj, key, "groupoid")
              for key in ("src", "tgt", "id", "inv")]
    if not (is_int(objects) and all(_is_ints(a) for a in arrays)):
        raise InvalidInput("groupoid objects, src, tgt, id and inv must be "
                           "integers and integer lists")
    gpd = groupoids.FiniteGroupoid(objects, *arrays, mul)
    if "arrows" in obj and not (is_int(obj["arrows"])
                                and obj["arrows"] == gpd.n_arrows):
        raise InvalidInput("declared arrow count disagrees with src array")
    return gpd


def dump_groupoid(gpd):
    return {"objects": gpd.n_objects, "arrows": gpd.n_arrows,
            "src": list(gpd.src), "tgt": list(gpd.tgt),
            "id": list(gpd.id), "inv": list(gpd.inv),
            "mul": [[g, h, gh] for (g, h), gh in gpd.products()]}


def load_groupoid_action(obj, cap=DEFAULT_CLOSURE_CAP):
    """{"groupoid": <groupoid>, "group": <group>, "act": [[...]]}; the rows
    are proved once, here, as the right ``FiniteAction`` on the arrows."""
    gpd = load_groupoid(_need(obj, "groupoid", "groupoid action"))
    group = load_group(_need(obj, "group", "groupoid action"), cap=cap)
    rows = _int_rows(_need(obj, "act", "groupoid action"), "action rows")
    return groupoids.GroupoidAction(
        gpd, actions.FiniteAction(group, gpd.n_arrows, rows))


def load_signature(obj):
    mode = _need(obj, "mode", "signature")
    if mode == "simple":
        return signature.GradedSignature.simple(
            _array(obj.get("dims", []), "dims"), base=obj.get("base", 0))
    if mode == "multi":
        blocks = []
        for b in _array(_need(obj, "blocks", "signature"), "blocks"):
            sigma = _array(_need(b, "sigma", "block"), "sigma")
            if any(isinstance(x, (list, dict)) for x in sigma):
                raise InvalidInput("sigma entries must be integers",
                                   sigma=sigma)
            blocks.append((tuple(sigma), _need(b, "dim", "block")))
        return signature.GradedSignature.multi(
            _need(obj, "n", "signature"), blocks, base=obj.get("base", 0))
    raise InvalidInput("unknown signature mode", mode=mode)


def dump_signature(sig):
    dims = {sig.spell_weight(w): d for w, d in sig.blocks}
    base = dims.pop(sig.spell_weight(sig.zero_weight()), 0)
    if sig.mode == "simple":
        return {"mode": "simple", "base": base,
                "dims": [dims.get(w, 0)
                         for w in range(1, max(dims, default=0) + 1)]}
    return {"mode": "multi", "n": sig.n, "base": base,
            "blocks": [{"sigma": list(s), "dim": d} for s, d in dims.items()]}


def _exponents(entry, nvars):
    """The term's exponent tuple: nvars integers in 0..MAX_EXPONENT."""
    exps = _array(_need(entry, "exponents", "term"), "exponents")
    if len(exps) != nvars:
        raise InvalidInput("exponent tuple has wrong length",
                           exponents=list(exps))
    if not all(is_int(k) and 0 <= k <= MAX_EXPONENT for k in exps):
        raise InvalidInput("exponents must be integers in 0..%d"
                           % MAX_EXPONENT, exponents=list(exps))
    return tuple(exps)


def _coefficient(field, entry):
    """The term's num/den, each an integer or an integer string."""
    num, den = _need(entry, "num", "term"), entry.get("den", "1")
    if all(is_int(x) or isinstance(x, str) for x in (num, den)):
        try:
            return field.parse(num, den)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInput("coefficient must be a ratio of integers",
                       num=num, den=den)


def load_terms(field, entries, nvars):
    out = []
    for e in _array(entries, "terms"):
        exps = _exponents(e, nvars)
        target = e.get("target", 0)
        if not is_int(target):
            raise InvalidInput("term target must be an integer", target=target)
        out.append((target, exps, _coefficient(field, e)))
    return out


def dump_terms(field, pm):
    out = []
    for c, f in enumerate(pm.components):
        for exps in sorted(f.terms, key=lambda e: (sum(e), e)):
            num, den = field.unparse(f.terms[exps])
            out.append({"target": c, "exponents": list(exps),
                        "num": num, "den": den})
    return out


def load_polymap(obj):
    field = fields.field_from_json(_object(obj, "polymap").get("field", "Q"))
    sig_in = load_signature(_need(obj, "sig_in", "polymap"))
    sig_out = load_signature(_need(obj, "sig_out", "polymap"))
    terms = load_terms(field, _need(obj, "terms", "polymap"), sig_in.ncoords)
    return graded.PolyMap.from_terms(sig_in, sig_out, field, terms), field


def dump_polymap(pm):
    return {"field": fields.field_to_json(pm.field),
            "sig_in": dump_signature(pm.sig_in),
            "sig_out": dump_signature(pm.sig_out),
            "terms": dump_terms(pm.field, pm)}


def load_polynomial(obj):
    """{"sig": ..., "field": ..., "terms": [{exponents, num, den}...]}."""
    field = fields.field_from_json(
        _object(obj, "polynomial").get("field", "Q"))
    sig = load_signature(_need(obj, "sig", "polynomial"))
    terms = {}
    for e in _array(_need(obj, "terms", "polynomial"), "terms"):
        exps = _exponents(e, sig.ncoords)
        terms[exps] = terms.get(exps, 0) + _coefficient(field, e)
    return poly.Poly(field, sig.ncoords, terms), sig, field


def load_nerve(obj):
    charts = _need(obj, "charts", "cocycle")
    if not is_int(charts) or not 0 <= charts <= MAX_CHARTS:
        raise InvalidInput("charts must be an integer in 0..%d" % MAX_CHARTS,
                           charts=charts)
    overlaps = _array(obj.get("overlaps", []), "overlaps")
    if not all(_is_ints(p) and len(p) == 2 for p in overlaps):
        raise InvalidInput("overlaps must be pairs of chart indices")
    triples = _array(obj.get("triples", []), "triples")
    if not all(_is_ints(t) for t in triples):
        raise InvalidInput("triples must be lists of chart indices")
    return cocycles.CoverNerve(charts, overlaps, triples)


def load_group_cocycle(obj, group=None, cap=DEFAULT_CLOSURE_CAP):
    """A cocycle valued in a finite group, given inline unless ``group`` is."""
    nerve = load_nerve(obj)
    if group is None:
        group = load_group(_need(obj, "group", "cocycle"), cap=cap)
    values = {}
    entries = _array(_need(obj, "values", "cocycle"), "values")
    for v in entries:
        pair = _pair(v, nerve)
        element = _need(v, "element", "cocycle value")
        if not _is_index(element, group.order):
            raise InvalidInput("cocycle value outside the group",
                               element=element, order=group.order)
        values[pair] = element
    _no_repeated_pair(values, entries)
    return cocycles.Cocycle(nerve, group, values), group


def _is_index(x, n):
    return is_int(x) and 0 <= x < n


def _no_repeated_pair(values, entries):
    """An input error naming the least pair that two of the cocycle's
    ``entries`` give, whatever their order; ``values`` is keyed by pair."""
    if len(values) < len(entries):
        raise InvalidInput("repeated cocycle pair", pair=list(
            _least_repeat(tuple(v["pair"]) for v in entries)))


def _pair(value, nerve):
    """The value's chart pair (i, j), each an index below the chart count."""
    pair = _need(value, "pair", "cocycle value")
    if not (isinstance(pair, list) and len(pair) == 2
            and all(_is_index(x, nerve.n) for x in pair)):
        raise InvalidInput("cocycle pair must be two chart indices",
                           pair=pair, charts=nerve.n)
    return tuple(pair)


def load_aut_cocycle(obj, handle):
    """A cocycle valued in graded automorphisms of the handle's model, read
    as elements of its enumerated group: (that cocycle, {pair: the
    automorphism read})."""
    from .autgroups import make_automorphism
    nerve = load_nerve(obj)
    sig, field = handle.sig, handle.field
    values, auts = {}, {}
    entries = _array(_need(obj, "values", "cocycle"), "values")
    for v in entries:
        pair = _pair(v, nerve)
        terms = load_terms(field, _need(v, "terms", "cocycle value"),
                           sig.ncoords)
        auts[pair] = make_automorphism(sig, field, terms)
        values[pair] = handle.index_of(auts[pair])
    _no_repeated_pair(values, entries)
    return cocycles.Cocycle(nerve, handle.group, values), auts


def read_json(path):
    """The parsed file, read as UTF-8 (RFC 8259) whatever the locale; a
    file that cannot be read or decoded, nested too deep or holding an
    integer too long to convert is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInput("input file not found", path=path)
    except OSError as e:
        raise InvalidInput("cannot read the input file", path=path,
                           error=str(e))
    except (ValueError, RecursionError) as e:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors too
        raise InvalidInput("invalid JSON input", path=path, error=str(e))


class _Fallback(Exception):
    """A value the indent-2 writer leaves to ``json.dumps``."""


def _indented(value, nl):
    """``json.dumps(value, sort_keys=True, indent=2)`` for the exact types
    reports hold, the value starting at indent ``nl``; raises _Fallback on
    any other type, a non-finite float or a key that is not a str.
    ``indent`` puts ``json`` on its pure-Python encoder, which writes one
    value at a time; here a list of ints is one C join, and a list of int
    rows of one length, such as ``mul`` triples, is one ``%d`` format."""
    t = type(value)
    if t is str:
        return _quoted(value)
    if t is int:
        return int.__repr__(value)
    if t is float and math.isfinite(value):
        return float.__repr__(value)
    if t is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    inner = nl + "  "
    if t is dict:
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            raise _Fallback
        body = ("," + inner).join([
            _quoted(k) + ": " + _indented(value[k], inner)
            for k in sorted(value)])
        return "{" + inner + body + nl + "}"
    if t is not list and t is not tuple:
        raise _Fallback
    if not value:
        return "[]"
    sep = "," + inner
    types = set(map(type, value))
    cells = ()
    if types <= {list, tuple} and len(set(map(len, value))) == 1:
        cells = tuple(chain.from_iterable(value))
    if types == {int}:
        body = sep.join(map(int.__repr__, value))
    elif set(map(type, cells)) == {int}:
        cell = inner + "  "
        row = "[" + cell + ("," + cell).join(["%d"] * len(value[0])) \
            + inner + "]"
        body = sep.join([row] * len(value)) % cells
    else:
        body = sep.join([_indented(v, inner) for v in value])
    return "[" + inner + body + nl + "]"


def _report_text(report):
    """The report as ``json.dumps(report, sort_keys=True, indent=2,
    default=str)`` writes it; ``json`` itself writes any report holding a
    value ``_indented`` leaves to it, or nested deeper than ``_indented``
    recurses (an error's details can echo a deeply nested input)."""
    try:
        return _indented(report, "\n")
    except (_Fallback, RecursionError):
        return json.dumps(report, sort_keys=True, indent=2, default=str)


def write_report(report, path=None):
    text = _report_text(report)
    if path in (None, "-"):
        print(text)
    else:
        with open(path, "w") as fh:
            fh.write(text + "\n")
