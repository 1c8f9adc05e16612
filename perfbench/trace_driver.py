"""Run one ``ntpg`` command line with per-layer spans and counters.

Usage: python3 trace_driver.py TRACE_JSON ARG...

Times ``import ntpg.cli``, wraps the layer functions in every ``ntpg``
module namespace that binds them (so ``from .x import y`` call sites are
caught) and runs ``ntpg.cli.main(ARG...)`` as ``python -m ntpg.cli`` would.
Spans are aggregated in memory as they close (calls, self time, where self
time is a span's duration minus the time its child spans cover) and written
to TRACE_JSON when the command ends, even when it raises.  Scalar
(FpElement, Fraction) operations are not wrapped; their cost shows inside
the ``poly.*`` self times.
"""

import json
import os
import sys
import time

clock = time.perf_counter


class Recorder:
    def __init__(self):
        self.stack = []          # [name, start, time covered by children]
        self.spans = {}          # name -> [calls, self_s]
        self.counts = {}

    def add(self, name, k):
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name, fn, count=None):
        stack, spans = self.stack, self.spans

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                entry = spans.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if count is not None:
                count(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


# -- counters read off arguments and results ------------------------------------

def _mul_pairs(rec, args, kwargs, result):
    a, b = args[0], args[1]
    rec.add("poly.mul.term_pairs",
            len(a.terms) * len(getattr(b, "terms", (None,))))


def _make_group(rec, args, kwargs, result):
    rec.add("groups.make_group.elements", len(args[0]))


def _groupoid(rec, args, kwargs, result):
    rec.add("groupoids.composable_pairs", len(args[0].mul))


def _enumerate(rec, args, kwargs, result):
    from ntpg import autgroups
    sig, field = args[0], args[1]
    rec.add("autgroups.enumerate_aut.grid",
            field.char ** len(autgroups._slot_list(sig)))
    rec.add("autgroups.enumerate_aut.kept", result.group.order)


def _searched(rec, args, kwargs, result):
    rec.add("cocycles.are_cohomologous.searched", result.searched)


def _bytes_in(rec, args, kwargs, result):
    rec.add("jsonio.bytes_in", os.path.getsize(args[0]))


class _CountingStream:
    def __init__(self, inner):
        self.inner = inner
        self.written = 0

    def write(self, text):
        self.written += len(text.encode())
        return self.inner.write(text)

    def flush(self):
        self.inner.flush()


def _wrap_write_report(rec, fn):
    """Bytes of each report, less the digits of its run-dependent timing."""
    def write_report(report, path=None):
        if path in (None, "-"):
            stream = sys.stdout = _CountingStream(sys.stdout)
            try:
                fn(report, path)
            finally:
                sys.stdout = stream.inner
            size = stream.written
        else:
            fn(report, path)
            size = os.path.getsize(path)
        rec.add("jsonio.bytes_out",
                size - len(json.dumps(report.get("timing_ms"))))
    return rec.wrap("jsonio.write_report", write_report)


LOADERS = ("load_group", "load_subgroup", "load_action", "load_groupoid",
           "load_groupoid_action", "load_signature", "load_terms",
           "load_polymap", "load_polynomial", "load_nerve",
           "load_group_cocycle", "load_aut_cocycle")

# (module, attribute, span name, counter)
FUNCTIONS = [
    ("fields", "mat_inv", "fields.mat_inv", None),
    ("graded", "compose", "graded.compose", None),
    ("graded", "triangular_inverse", "graded.triangular_inverse", None),
    ("groups", "make_group", "groups.make_group", _make_group),
    ("groups", "make_group_from_permutations",
     "groups.make_group_from_permutations", None),
    ("groups", "subgroup_closure", "groups.subgroup_closure", None),
    ("groups", "normality_witness", "groups.normality_witness", None),
    ("principal", "verify_double", "principal.verify_double", None),
    ("principal", "verify_ntuple", "principal.verify_ntuple", None),
    ("principal", "dressing", "principal.dressing", None),
    ("groupoids", "gauge_groupoid", "groupoids.gauge_groupoid", None),
    ("groupoids", "check_compatible", "groupoids.check_compatible", None),
    ("groupoids", "split", "groupoids.split", None),
    ("autgroups", "enumerate_aut", "autgroups.enumerate_aut", _enumerate),
    ("autgroups", "verify_p54", "autgroups.verify_p54", None),
    ("cocycles", "are_cohomologous", "cocycles.are_cohomologous", _searched),
    ("cocycles", "standard_fibered_space", "cocycles.standard_fibered_space",
     None),
    ("jsonio", "read_json", "jsonio.read_json", _bytes_in),
] + [("jsonio", name, "jsonio.load", None) for name in LOADERS]

METHODS = [
    ("poly", "Poly", "__mul__", "poly.mul", _mul_pairs),
    ("poly", "Poly", "subs", "poly.subs", None),
    ("poly", "Poly", "__pow__", "poly.pow", None),
    ("groupoids", "FiniteGroupoid", "__init__", "groupoids.FiniteGroupoid.init",
     _groupoid),
]


def install(rec):
    """Replace each traced function wherever an ntpg module binds it."""
    modules = [m for name, m in list(sys.modules.items())
               if (name == "ntpg" or name.startswith("ntpg.")) and m]
    for mod, attr, name, count in FUNCTIONS:
        original = getattr(sys.modules["ntpg." + mod], attr)
        wrapped = rec.wrap(name, original, count)
        for m in modules:
            if getattr(m, attr, None) is original:
                setattr(m, attr, wrapped)
    original = sys.modules["ntpg.jsonio"].write_report
    wrapped = _wrap_write_report(rec, original)
    for m in modules:
        if getattr(m, "write_report", None) is original:
            setattr(m, "write_report", wrapped)
    for mod, cls, attr, name, count in METHODS:
        klass = getattr(sys.modules["ntpg." + mod], cls)
        setattr(klass, attr, rec.wrap(name, getattr(klass, attr), count))


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = clock()
    import ntpg.cli
    import_s = clock() - start
    rec = Recorder()
    install(rec)
    main_fn = rec.wrap("cli.main", ntpg.cli.main)
    try:
        rc = main_fn(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": rec.spans,
                       "counts": rec.counts}, fh)
    sys.exit(rc)


if __name__ == "__main__":
    main()
