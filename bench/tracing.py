"""In-memory span tracing of diracdeform's public layer functions.

The tracer wraps functions from outside the program: it replaces every
binding of each traced function (the defining module, each
``from .x import y`` copy, the package re-exports, the suite generator
registry) with a wrapper that records one span per call.  A span is
(name, start, end, parent); spans are kept in flat arrays in memory and
reduced to per-name call counts and self times when a pass ends.  Self time
is a span's duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (traced name, module, attribute path in that module).  A method is named
# by "Class.method"; "*generators" stands for every registered payload
# generator of the suites module.
TRACED = [
    ("rational.scalar_mul", "rational", "Scalar.__mul__"),
    ("rational.scalar_add", "rational", "Scalar.__add__"),
    # Scalar.__truediv__ is never reached: every division goes through inverse.
    ("rational.scalar_inverse", "rational", "Scalar.inverse"),
    ("rational.poly_mul", "rational", "Poly.__mul__"),
    ("rational.poly_gcd", "rational", "poly_gcd"),
    ("rational.poly_divexact", "rational", "poly_divexact"),
    ("rational.poly_evaluate", "rational", "Poly.evaluate"),
    ("rational.poly_from_str", "rational", "poly_from_str"),
    ("linalg.rref", "linalg", "rref"),
    ("linalg.det", "linalg", "det"),
    ("linalg.inverse", "linalg", "inverse"),
    ("linalg.nullspace", "linalg", "nullspace"),
    # The Pfaffian certificates call pfaffian_poly; linalg.pfaffian is unused.
    ("linalg.pfaffian_poly", "linalg", "pfaffian_poly"),
    ("linalg.mat_mul", "linalg", "mat_mul"),
    ("exterior.wedge", "exterior", "wedge"),
    ("exterior.contract", "exterior", "contract"),
    ("exterior.multi_sharp", "exterior", "multi_sharp"),
    ("exterior.de_rham", "exterior", "de_rham"),
    ("exterior.schouten", "exterior", "schouten"),
    ("exterior.evaluate", "exterior", "evaluate"),
    ("exterior.form_from_json", "exterior", "form_from_json"),
    ("koszul.koszul_bracket", "koszul", "koszul_bracket"),
    ("koszul.trinary_bracket", "koszul", "trinary_bracket"),
    ("koszul.lam", "koszul", "lam"),
    ("koszul.jacobi_residual", "koszul", "jacobi_residual"),
    ("koszul.mc_residual", "koszul", "mc_residual"),
    ("koszul.F_symbolic", "koszul", "F_symbolic"),
    ("koszul.mc_equivalence_report", "koszul", "mc_equivalence_report"),
    ("dirac.F", "dirac", "F"),
    ("dirac.dirac_exp", "dirac", "dirac_exp"),
    ("dirac.rank_and_kernel", "dirac", "rank_and_kernel"),
    ("dirac.Z_from_eta_G", "dirac", "Z_from_eta_G"),
    ("dirac.verify_linear_lemmas", "dirac", "verify_linear_lemmas"),
    ("courant.dorfman", "courant", "dorfman"),
    ("courant.is_dirac_frame", "courant", "is_dirac_frame"),
    ("presymplectic.certify_constant_rank", "presymplectic", "certify_constant_rank"),
    ("presymplectic.kernel_distribution", "presymplectic", "kernel_distribution"),
    ("presymplectic.build_presymplectic", "presymplectic", "build_presymplectic"),
    ("presymplectic.deform", "presymplectic", "deform"),
    ("presymplectic.instance_from_json", "presymplectic", "instance_from_json"),
    ("suites.generators", "suites", "*generators"),
    ("suites.run_check", "suites", "run_check"),
    ("report.assemble_report", "report", "assemble_report"),
]
NAMES = [name for name, _, _ in TRACED]
MODULES = sorted({module for _, module, _ in TRACED})

# Operand classes of a Scalar multiply: both operands in Q (nvars == 0),
# both constant elements of Q(x), or at least one non-constant operand.
MUL_CLASSES = ("q", "qx_const", "qx")
PACKAGE = "diracdeform"


class TracingError(RuntimeError):
    """A traced function could not be found, or a binding escaped the patch."""


def _mul_class(a, b) -> int:
    if a.num.nvars == 0:
        return 0
    if a.is_constant() and b.is_constant():
        return 1
    return 2


class Tracer:
    """Patches the traced functions while active (a context manager)."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.mul_classes = [0, 0, 0]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, idx: int, fn, classify: bool = False):
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack, classes, clock = self._stack, self.mul_classes, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if classify:
                classes[_mul_class(args[0], args[1])] += 1
            sid = len(name)
            name.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def reset(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.mul_classes[:] = [0, 0, 0]

    def summary(self) -> dict[str, dict]:
        """Per traced name: exact call count and self time in ms."""
        name, parent = self.name, self.parent
        calls = [0] * len(NAMES)
        self_ns = [0] * len(NAMES)
        for i, (t0, t1) in enumerate(zip(self.start, self.end)):
            calls[name[i]] += 1
            self_ns[name[i]] += t1 - t0
            if parent[i] >= 0:
                self_ns[name[parent[i]]] -= t1 - t0
        return {
            n: {"calls": calls[k], "self_ms": self_ns[k] / 1e6}
            for k, n in enumerate(NAMES)
        }

    # -- patching -------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            self._patch()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch(self) -> None:
        mods = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for idx, (name, module, path) in enumerate(TRACED):
            mod = mods[module]
            if path == "*generators":
                registry = mod.CHECK_GENERATORS
                for key, fn in list(registry.items()):
                    wrappers[id(fn)] = registry[key] = self._wrap(idx, fn)
                    self._restore.append((registry, key, fn))
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = owner.__dict__.get(attr) if owner_name else getattr(mod, attr, None)
            if not callable(fn):
                raise TracingError(f"{module}.{path} not found")
            wrappers[id(fn)] = self._wrap(idx, fn, classify=(name == "rational.scalar_mul"))
            if owner_name:
                self._set(owner, attr, wrappers[id(fn)])
        # The originals stay alive (in _restore and in each wrapper's
        # __wrapped__), so an id match below is the original itself.
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
        stale = stale_bindings(set(wrappers))
        if stale:
            raise TracingError("unpatched bindings: " + ", ".join(stale))

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def package_modules():
    return [m for k, m in list(sys.modules.items())
            if (k == PACKAGE or k.startswith(PACKAGE + ".")) and m is not None]


def stale_bindings(original_ids: set[int]) -> list[str]:
    """Every place in the package that still refers to an unwrapped original:
    module attributes, class attributes, one level of module-level
    containers, and default argument values."""

    def is_orig(v) -> bool:
        return id(getattr(v, "__func__", v)) in original_ids  # unwrap staticmethod

    found = []
    for mod in package_modules():
        for attr, value in vars(mod).items():
            where = f"{mod.__name__}.{attr}"
            if is_orig(value):
                found.append(where)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{where}.{k}" for k, v in vars(value).items() if is_orig(v)]
            elif isinstance(value, dict):
                found += [f"{where}[{k!r}]" for k, v in value.items() if is_orig(v)]
            elif isinstance(value, (list, tuple)):
                found += [f"{where}[{i}]" for i, v in enumerate(value) if is_orig(v)]
            elif callable(value) and getattr(value, "__module__", None) == mod.__name__:
                defaults = (getattr(value, "__defaults__", None) or ()) + tuple(
                    (getattr(value, "__kwdefaults__", None) or {}).values())
                if any(is_orig(v) for v in defaults):
                    found.append(f"{where} (default argument)")
    return found
