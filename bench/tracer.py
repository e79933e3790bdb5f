"""Span recorder for the traced run.

The recorder replaces selected library functions with wrappers that open a
span on entry and close it on return. A wrapper is bound wherever the
function object is looked up: the class attribute for methods, and every
``meyersig.*`` module namespace that holds the same function object (so
``meyer.kernel_basis`` is traced as well as ``exactnum.kernel_basis``).

Spans stay in memory as ``[name, parent_index, start_ns, end_ns, size]``
and are reduced to per-layer metrics when the run ends. A target that does
not exist in the library being measured is skipped: its metrics read 0
instead of breaking the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

PACKAGE = "meyersig"
NS = 1e-9


def _len(args, result):
    return len(result)


def _genus(args, result):
    return args[0].g


def _max_entry_bits(args, result):
    return max(
        (
            max(abs(x.numerator).bit_length(), x.denominator.bit_length())
            for row in result.gram.data
            for x in row
        ),
        default=0,
    )


# (span name, module, attribute path, size hook). The size hook reads a
# number off the call's arguments or result: the genus of a tau call, the
# dimension of a kernel, the largest Gram entry, the letters of a word.
TARGETS = [
    ("symplectic.validate", "symplectic", "SymplecticElement.__init__", None),
    ("symplectic.mul", "symplectic", "SymplecticElement.__mul__", None),
    ("symplectic.inverse", "symplectic", "SymplecticElement.inverse", None),
    ("symplectic.identity", "symplectic", "SymplecticElement.identity", None),
    ("symplectic.sl2_word", "symplectic", "sl2_word", _len),
    ("exactnum.kernel_basis", "exactnum", "kernel_basis", _len),
    ("exactnum.gram_restrict", "exactnum", "gram_restrict", _max_entry_bits),
    ("exactnum.signature_symmetric", "exactnum", "signature_symmetric", None),
    ("exactnum.matmul", "exactnum", "RatMatrix.__mul__", None),
    ("exactnum.parse_matrix", "exactnum", "parse_matrix", None),
    ("meyer.tau", "meyer", "tau", _genus),
    ("meyer.phi1", "meyer", "phi1", None),
    ("meyer.phi1_base", "meyer", "phi1_base", None),
    ("meyer.phi1_word", "meyer", "phi1_word", None),
    ("cli.main", "cli", "main", None),
]
# every public function of these modules is traced as "<module>.<function>"
WHOLE_MODULES = ("varieties", "localsig")
TAU_GENERA = (1, 2, 3, 4, 6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span; the harness opens one per op."""
        return self._wrap(fn, name, None)(*args)

    def _wrap(self, fn, name, size_hook):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, open_[-1] if open_ else -1, perf_counter_ns(), 0, None]
            spans.append(rec)
            open_.append(idx)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec[3] = perf_counter_ns()
                open_.pop()
                if ok and size_hook is not None:
                    try:
                        rec[4] = size_hook(args, result)
                    except (AttributeError, TypeError, IndexError, ValueError):
                        pass

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        modules = {}
        for mod_name in {t[1] for t in TARGETS} | set(WHOLE_MODULES):
            try:
                modules[mod_name] = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                pass
        targets = list(TARGETS)
        for mod_name in WHOLE_MODULES:
            mod = modules.get(mod_name)
            for attr, val in sorted(vars(mod).items()) if mod else ():
                if not attr.startswith("_") and inspect.isfunction(val) and val.__module__ == mod.__name__:
                    targets.append((f"{mod_name}.{attr}", mod_name, attr, None))
        # every namespace that may hold a reference to a traced function
        package_mods = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        missing = []
        for name, mod_name, path, hook in targets:
            owner_name, _, attr = path.rpartition(".")
            owner = modules.get(mod_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if owner is None:
                missing.append(name)
                continue
            if owner_name:  # a method, looked up on its class
                raw = owner.__dict__.get(attr)
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrap(raw.__func__, name, hook)))
                elif inspect.isfunction(raw):
                    self._set(owner, attr, self._wrap(raw, name, hook))
                else:
                    missing.append(name)
                continue
            fn = getattr(owner, attr, None)
            if not inspect.isfunction(fn):
                missing.append(name)
                continue
            wrapper = self._wrap(fn, name, hook)
            for m in package_mods:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._set(m, key, wrapper)
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the recorded spans to the per-layer metrics.

        ``self`` time is a span's duration minus the durations of its direct
        children; spans nest strictly because there is one caller and no
        threads.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, parent, t0, t1, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        incl_ns: Counter = Counter()
        sizes: dict[str, list] = defaultdict(list)
        tau_by_genus: dict[int, list[int]] = defaultdict(list)
        revalidations = fold_taus = taus_in_phi1 = 0
        for i, (name, parent, t0, t1, size) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += t1 - t0 - child_ns[i]
            incl_ns[name] += t1 - t0
            if size is not None:
                sizes[name].append(size)
            if name == "symplectic.validate" and parent >= 0:
                if spans[parent][0] in (
                    "symplectic.mul",
                    "symplectic.inverse",
                    "symplectic.identity",
                ):
                    revalidations += 1
            elif name == "meyer.tau":
                if size is not None:
                    tau_by_genus[size].append(t1 - t0)
                ancestors = set()
                p = parent
                while p >= 0:
                    ancestors.add(spans[p][0])
                    p = spans[p][1]
                if "meyer.phi1_word" in ancestors and "meyer.phi1_base" not in ancestors:
                    fold_taus += 1
                if "meyer.phi1" in ancestors:
                    taus_in_phi1 += 1

        def module_total(prefix, table):
            return sum(v for k, v in table.items() if k.startswith(prefix + "."))

        out: dict[str, float] = {}
        for layer in (
            "symplectic.validate",
            "symplectic.mul",
            "symplectic.inverse",
            "exactnum.kernel_basis",
            "exactnum.gram_restrict",
            "exactnum.signature_symmetric",
            "exactnum.matmul",
            "exactnum.parse_matrix",
            "meyer.tau",
        ):
            out[f"{layer}.self_s"] = self_ns[layer] * NS
            out[f"{layer}.calls"] = calls[layer]
        out["symplectic.validate.s"] = incl_ns["symplectic.validate"] * NS
        validations = calls["symplectic.validate"]
        out["symplectic.revalidate_ratio"] = revalidations / validations if validations else 0.0
        out["symplectic.sl2_word.self_s"] = self_ns["symplectic.sl2_word"] * NS
        out["symplectic.sl2_word.letters"] = sum(sizes["symplectic.sl2_word"])
        out["exactnum.kernel_basis.dim"] = sum(sizes["exactnum.kernel_basis"])
        out["exactnum.gram.max_bits"] = max(sizes["exactnum.gram_restrict"], default=0)
        for g in TAU_GENERA:
            durations = tau_by_genus.get(g)
            out[f"meyer.tau.g{g}.p50_ms"] = statistics.median(durations) / 1e6 if durations else 0.0
        out["meyer.phi1_base.calls"] = calls["meyer.phi1_base"]
        out["meyer.phi1_base.s"] = incl_ns["meyer.phi1_base"] * NS
        out["meyer.phi1_word.self_s"] = self_ns["meyer.phi1_word"] * NS
        out["meyer.fold.tau_calls"] = fold_taus
        phi1_calls = calls["meyer.phi1"]
        out["meyer.tau_per_phi1"] = taus_in_phi1 / phi1_calls if phi1_calls else 0.0
        out["cli.main.self_s"] = self_ns["cli.main"] * NS
        for mod_name in WHOLE_MODULES:
            out[f"{mod_name}.self_s"] = module_total(mod_name, self_ns) * NS
            out[f"{mod_name}.calls"] = module_total(mod_name, calls)
        return out
