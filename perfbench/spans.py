"""Per-module spans for the traced benchmark run.

A span is one call across a module boundary of ``ffrat``.  The tracer wraps
the boundary functions by rebinding module attributes, in the defining module
and in every ``ffrat`` module that imported the function by name, so that calls
made from inside the package are seen as well as calls made by the benchmark.
Nothing under ``src/`` knows about it.

Spans are aggregated in memory per span name (calls, items and self time)
rather than stored one by one: the rational workload makes more
than a million boundary calls.  A span's self time is its duration minus the
time covered by traced spans nested inside it.

A boundary whose function no longer exists (a later refactor may fold it into
another) is reported as missing; its metrics read 0.
"""

from __future__ import annotations

import functools
import inspect
import time

# Closed forms of ``ffrat.counting`` that serve as references.
CLOSED_FORMS = (
    "coprime_monic_pairs", "coprime_monic_pairs_upto", "rational_function_count",
    "coprime_pairs_nonzero_constant", "self_dual_count", "reversal_coprime_count",
    "self_dual_coprime_pairs", "fix_central", "fix_diagonal", "fix_nonsplit",
    "fix_unipotent", "split_fix_total", "nonsplit_fix_total",
    "count_rational_classes", "count_rational_classes_lowdeg",
    "count_polynomial_classes", "count_polynomial_classes_lowdeg",
    "fix_affine_identity", "fix_affine_scale", "fix_affine_translate",
)

# The enumeration mirrors of the appendix lemmas in ``ffrat.oracle``.
APPENDIX_MIRRORS = (
    "count_coprime_pairs", "count_coprime_pairs_upto", "count_coprime_nonzero_const",
    "count_rational_functions", "count_self_dual", "count_reversal_coprime",
    "count_self_dual_coprime_pairs",
)

# (defining module, function, span name)
BOUNDARIES = (
    ("gf", "make_field", "gf.build"),
    ("gf", "field_of_order", "gf.build"),
    ("gf", "make_ext", "gf.build"),
    ("polyring", "gcd", "polyring.gcd"),
    ("ratmap", "enumerate_subfield_keys", "ratmap.enumerate"),
    ("ratmap", "substitution_matrix", "ratmap.substitution_matrix"),
    ("ratmap", "key_image", "ratmap.key_image"),
    ("classify", "_substitute_raw", "classify.substitute"),
    ("classify", "canonical_poly", "classify.canonical_form"),
    ("classify", "classify_all", "classify.closure"),
    ("oracle", "burnside_count_rational", "oracle.burnside"),
    ("oracle", "burnside_count_poly", "oracle.burnside"),
    ("oracle", "orbit_count_rational", "oracle.orbit"),
    ("oracle", "orbit_count_poly", "oracle.orbit"),
    *(("oracle", name, "oracle.appendix") for name in APPENDIX_MIRRORS),
    ("oracle", "_run_cell", "oracle.cell"),
    ("oracle", "verify_grid", "oracle.verify_grid"),
    *(("counting", name, "counting.formula") for name in CLOSED_FORMS),
    ("cli", "main", "cli.main"),
)

_END = object()


class Tracer:
    """Wraps the boundaries of the modules in ``lib`` (a namespace holding the
    package as ``ffrat`` and each module by its short name)."""

    def __init__(self, lib):
        self.lib = lib
        self.stats: dict[str, list] = {}   # span -> [calls, items, self_s]
        self.missing: list[str] = []
        self._stack = [0.0]                # time covered by children, per open span
        self._undo: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, object]] = []
        self._built: dict[int, object] = {}
        for modname, attr, span in BOUNDARIES:
            fn = getattr(getattr(lib, modname), attr, None)
            if fn is None:
                self.missing.append("%s.%s" % (modname, attr))
                continue
            self._wrappers.append((fn, self._wrap(fn, span)))

    def _items(self, span: str, result) -> int:
        if span == "gf.build":
            # Fields are cached; a returned object not seen before was built.
            if id(result) in self._built:
                return 0
            self._built[id(result)] = result
            return 1
        if span == "oracle.verify_grid":
            return len(getattr(result, "checks", ()))
        return 1

    def _close(self, span: str, start: float, items: int) -> None:
        elapsed = time.perf_counter() - start
        child = self._stack.pop()
        self._stack[-1] += elapsed
        rec = self.stats.get(span)
        if rec is None:
            rec = self.stats[span] = [0, 0, 0.0]
        rec[0] += 1
        rec[1] += items
        rec[2] += elapsed - child

    def _wrap(self, fn, span: str):
        stack, clock, close = self._stack, time.perf_counter, self._close

        if inspect.isgeneratorfunction(fn):
            # The work happens while the caller iterates: one span per item.
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    item = _END
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = next(it, _END)
                    finally:
                        close(span, start, item is not _END)
                    if item is _END:
                        return
                    yield item
            return traced_gen

        items = self._items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = _END
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(span, start, 0 if result is _END else items(span, result))
        return traced

    def install(self) -> None:
        """Rebind every module attribute that holds a boundary function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = list(vars(self.lib).values())
        for fn, wrapper in self._wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics, by name; a span never entered reads 0."""
        def get(span):
            return self.stats.get(span, [0, 0, 0.0])

        def per_us(seconds, count):
            return seconds / count * 1e6 if count else 0.0

        gcd = get("polyring.gcd")
        enum = get("ratmap.enumerate")
        subst = get("classify.substitute")
        image = get("ratmap.key_image")
        canon = get("classify.canonical_form")
        matrix = get("ratmap.substitution_matrix")
        formula = get("counting.formula")
        return {
            "gf.field_build_s": get("gf.build")[2],
            "gf.fields_built": get("gf.build")[1],
            "polyring.gcd_calls": gcd[0],
            "polyring.gcd_s": gcd[2],
            "polyring.gcd_us": per_us(gcd[2], gcd[0]),
            "ratmap.keys_enumerated": enum[1],
            "ratmap.enumerate_s": enum[2],
            "ratmap.enumerate_us": per_us(enum[2], enum[1]),
            "ratmap.substitution_matrices": matrix[0],
            "ratmap.substitution_matrix_s": matrix[2],
            "ratmap.key_images": image[0],
            "ratmap.key_image_s": image[2],
            "ratmap.key_image_us": per_us(image[2], image[0]),
            "classify.substitutions": subst[0],
            "classify.substitute_s": subst[2],
            "classify.substitute_us": per_us(subst[2], subst[0]),
            "classify.canonical_forms": canon[0],
            "classify.canonical_form_s": canon[2],
            "classify.closure_self_s": get("classify.closure")[2],
            "oracle.burnside_self_s": get("oracle.burnside")[2],
            "oracle.orbit_self_s": get("oracle.orbit")[2],
            "oracle.appendix_s": get("oracle.appendix")[2],
            "oracle.cells": get("oracle.cell")[0],
            "oracle.checks": get("oracle.verify_grid")[1],
            "counting.formula_calls": formula[0],
            "counting.formula_s": formula[2],
            "cli.self_s": get("cli.main")[2],
            "trace.missing_boundaries": len(self.missing),
        }
