"""Per-module spans and counters, installed on kraitchik from outside.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces the
import bindings of selected functions (the attribute of the defining module
and every ``from .x import f`` copy in the other kraitchik modules) with
timing wrappers, and ``Tracer.uninstall`` puts the originals back.  Untraced
runs never create a Tracer, so they run the program unmodified.

Spans are aggregated per name in memory (calls, inclusive seconds, self
seconds) and read out once at the end: certify opens about 10^5 spans per
pass, too many to keep one record each.  Self time is a span's duration minus
the time covered by the spans it directly encloses, so nested layers are not
counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# span name -> (module, attribute); every binding of the function is wrapped,
# so calls from inside the defining module are timed too.
ENTRY_POINTS = {
    "construct.psi_xi": ("kraitchik.construct", "psi_xi"),
    "construct.verify_identity": ("kraitchik.construct", "verify_identity"),
    "construct.cyclotomic": ("kraitchik.construct", "cyclotomic"),
    "construct.check_symmetry": ("kraitchik.construct", "check_symmetry"),
    "symfunc.newton_elementary": ("kraitchik.symfunc", "newton_elementary"),
    "symfunc.pm_polynomial": ("kraitchik.symfunc", "pm_polynomial"),
    "powersums.power_sum_s": ("kraitchik.powersums", "power_sum_s"),
    "powersums.residue_sum_enclosure": ("kraitchik.powersums", "residue_sum_enclosure"),
    "bounds.check_coefficient_bounds": ("kraitchik.bounds", "check_coefficient_bounds"),
    "bounds.rising_factorial_bound": ("kraitchik.bounds", "rising_factorial_bound"),
    "bounds.check_explicit_bound": ("kraitchik.bounds", "check_explicit_bound"),
    "ratio.check_ratio_approx": ("kraitchik.ratio", "check_ratio_approx"),
}

# Module-level spans that time calls into a module from other modules only;
# the module's calls to itself stay inside the outer span.
NUMTHEORY_FUNCS = ("factor", "divisors", "mobius", "euler_phi", "jacobi")
COMPARE_FUNCS = ("cmp_surd", "cmp_real", "abs_real")
POLY_METHODS = ("__mul__", "__rmul__", "__divmod__", "evaluate")
DECIDING_MODULES = ("kraitchik.bounds", "kraitchik.ratio")

SUITES = ("identity", "symmetry", "bounds", "corollary", "ratio", "gauss-oracle", "symfunc")

# (metric name, unit) in report order; BENCHMARK.json's per_layer list matches.
LAYER_METRICS = (
    [(f"cli.suite.{s}_s", "s") for s in SUITES]
    + [("cli.pair_builds_per_modulus", "ratio")]
    + [m for name in ENTRY_POINTS for m in ((f"{name}.calls", "count"), (f"{name}.self_s", "s"))]
    + [
        ("qfield.elems_created", "count"),
        ("qfield.compare.calls", "count"),
        ("qfield.compare.self_s", "s"),
        ("poly.calls", "count"),
        ("poly.self_s", "s"),
        ("numtheory.calls", "count"),
        ("numtheory.self_s", "s"),
        ("interval.calls", "count"),
        ("interval.self_s", "s"),
        ("interval.rungs", "count"),
        ("interval.rungs_per_case", "ratio"),
        ("interval.first_rung_frac", "ratio"),
        ("interval.max_prec_bits", "bits"),
        ("trace.untraced_wall_s", "s"),
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.counts = {"qfield.elems_created": 0, "ladders": 0, "rungs": 0,
                       "first_rung_ladders": 0, "max_prec_bits": 0}
        self.moduli: set[int] = set()  # distinct d handed to psi_xi
        self._open: list[float] = []  # child time covered so far, per open span
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _close(self, stats: list, start: float) -> None:
        dur = self.clock() - start
        child = self._open.pop()
        stats[0] += 1
        stats[1] += dur
        stats[2] += dur - child
        if self._open:
            self._open[-1] += dur

    def wrap(self, name: str, fn, note=None):
        """``fn`` with every call recorded as a span called ``name``."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args)
            self._open.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(stats, start)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        self._open.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            self._close(stats, start)

    # -- counters ------------------------------------------------------------

    def wrap_ladder(self, fn):
        """Count the rungs each precision ladder hands out before it is dropped."""
        counts = self.counts

        @functools.wraps(fn)
        def ladder(*args, **kwargs):
            rungs = 0
            try:
                for prec in fn(*args, **kwargs):
                    rungs += 1
                    counts["max_prec_bits"] = max(counts["max_prec_bits"], prec)
                    yield prec
            finally:
                counts["ladders"] += 1
                counts["rungs"] += rungs
                counts["first_rung_ladders"] += rungs == 1

        return ladder

    def _note_modulus(self, args) -> None:
        d = args[0]
        self.moduli.add(d if isinstance(d, int) else d.d)

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement, skip: str | None = None, only=None) -> None:
        for modname, mod in list(sys.modules.items()):
            if not (modname == "kraitchik" or modname.startswith("kraitchik.")):
                continue
            if modname == skip or (only is not None and modname not in only):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from kraitchik import numtheory, poly, qfield

        for name, (modname, attr) in ENTRY_POINTS.items():
            fn = getattr(sys.modules[modname], attr)
            note = self._note_modulus if name == "construct.psi_xi" else None
            self._rebind(fn, self.wrap(name, fn, note))
        for attr in NUMTHEORY_FUNCS:
            fn = getattr(numtheory, attr)
            self._rebind(fn, self.wrap("numtheory", fn), skip="kraitchik.numtheory")
        for attr in COMPARE_FUNCS:
            fn = getattr(qfield, attr)
            self._rebind(fn, self.wrap("qfield.compare", fn), only=DECIDING_MODULES)
        for modname in DECIDING_MODULES:
            mod = sys.modules[modname]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("iv_") and callable(value):
                    self._patch_attr(mod, attr, self.wrap("interval", value))
            self._patch_attr(mod, "precision_ladder", self.wrap_ladder(mod.precision_ladder))
        for attr in POLY_METHODS:
            self._patch_attr(poly.DensePoly, attr, self.wrap("poly", poly.DensePoly.__dict__[attr]))

        post_init = qfield.QuadElem.__post_init__
        counts = self.counts

        def counting_post_init(elem):
            counts["qfield.elems_created"] += 1
            post_init(elem)

        self._patch_attr(qfield.QuadElem, "__post_init__", counting_post_init)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- read-out ------------------------------------------------------------

    def layer_metrics(self, passes: int, untraced_wall: float, traced_wall: float, scale: float = 1.0) -> dict:
        """Every LAYER_METRICS value, per traced pass, with span seconds multiplied by ``scale``."""
        per = 1.0 / passes
        values: dict[str, float] = {}
        for name, (calls, inclusive, self_s) in self.spans.items():
            values[f"{name}.calls"] = calls * per
            values[f"{name}.self_s"] = self_s * per * scale
            if name.startswith("cli.suite."):
                values[f"{name}_s"] = inclusive * per * scale
        c = self.counts
        builds = self.spans.get("construct.psi_xi", [0])[0]
        values["cli.pair_builds_per_modulus"] = builds * per / len(self.moduli) if self.moduli else 0.0
        values["qfield.elems_created"] = c["qfield.elems_created"] * per
        values["interval.rungs"] = c["rungs"] * per
        cases = sum(self.spans.get(n, [0])[0] for n in ("bounds.check_explicit_bound", "ratio.check_ratio_approx"))
        values["interval.rungs_per_case"] = c["rungs"] / cases if cases else 0.0
        values["interval.first_rung_frac"] = c["first_rung_ladders"] / c["ladders"] if c["ladders"] else 0.0
        values["interval.max_prec_bits"] = c["max_prec_bits"]
        values["trace.untraced_wall_s"] = untraced_wall
        values["trace.traced_wall_s"] = traced_wall
        values["trace.overhead_s"] = traced_wall - untraced_wall
        return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in LAYER_METRICS}
