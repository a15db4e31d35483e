"""Layer spans recorded from outside the program.

Each span wraps the public functions of one layer at every module binding
that the program calls them through.  ``cli``, ``skein`` and
``state_complex`` import names such as ``homology`` and ``smooth`` into their
own namespaces, so patching only the defining module would miss those calls;
:meth:`Tracer.install` therefore patches every binding and then verifies
that no bandkh module still holds an unwrapped original.

A span's self time is its duration minus the time of the spans it called.
Accounting happens only while :attr:`Tracer.active` is set, which the
benchmark does around each timed operation, so output checks that call the
same functions do not show up in the layers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from types import ModuleType
from typing import Callable

#: span name -> targets.  A target is ``module.attr`` or
#: ``module.Class.method``; every bandkh module that binds a ``module.attr``
#: target is patched, except the bindings in :data:`LEFT_UNWRAPPED`.
SPANS: dict[str, tuple[str, ...]] = {
    "cli.parse": ("cli._build_parser", "cli.load_diagram", "cli.parse_diagram"),
    "surface.classify": ("surface.classify",),
    "diagram.smooth": ("diagram.smooth", "diagram.smooth_crossing"),
    "state_complex.enumerate": ("state_complex.GradedComplex.__init__",),
    "state_complex.differential": ("state_complex.GradedComplex.differential",),
    # The d o d products: check_d_squared and the d2 suite of run_verify.
    "state_complex.d2": ("state_complex.GradedComplex.check_d_squared",
                         "state_complex._mat_mul"),
    "homology.snf": ("homology.smith_normal_form",),
    "skein.bracket": ("skein.kauffman_bracket", "skein.bracket_recursive"),
    "skein.phi_expand": ("skein.phi_expand",),
    "chainmaps.les": ("chainmaps.long_exact_sequence_check",),
    "chainmaps.map_build": ("chainmaps.ChainMap.build", "chainmaps.skein_triple"),
}

#: (module, attr) bindings of a target that stay unwrapped: chainmaps calls
#: _mat_mul for chain-map products, which are not d o d products.
LEFT_UNWRAPPED = {("bandkh.chainmaps", "_mat_mul")}

#: Called with a span's arguments and result after each active call; it
#: should only keep references, so that it adds no time to enclosing spans.
Observer = Callable[[tuple, object], None]


def _bandkh_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "bandkh" or name.startswith("bandkh."))]


class TracingError(RuntimeError):
    pass


class Tracer:
    """Per-span call counts and self times, accumulated while active."""

    def __init__(self, observers: dict[str, Observer] | None = None):
        self.names = list(SPANS)
        self.observers = observers or {}
        self.active = False
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting -------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float]]:
        return {name: (self.calls[k], self.self_s[k])
                for k, name in enumerate(self.names)}

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        observe = self.observers.get(self.names[idx])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[idx] += 1
                self.self_s[idx] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at its bindings; raise if one is left unwrapped."""
        if self._patches:
            raise TracingError("tracer already installed")
        modules = {m.__name__: m for m in _bandkh_modules()}
        for idx, name in enumerate(self.names):
            for target in SPANS[name]:
                self._install_target(idx, target, modules)
        self._check_no_originals(modules)

    def _install_target(self, idx: int, target: str,
                        modules: dict[str, ModuleType]) -> None:
        mod_name, *attrs = target.split(".")
        module = importlib.import_module(f"bandkh.{mod_name}")
        if len(attrs) == 2:
            cls = getattr(module, attrs[0])
            raw = cls.__dict__[attrs[1]]
            if isinstance(raw, staticmethod):
                self._patch(cls, attrs[1], staticmethod(self._wrap(idx, raw.__func__)))
            else:
                self._patch(cls, attrs[1], self._wrap(idx, raw))
            return
        original = getattr(module, attrs[0])
        wrapped = self._wrap(idx, original)
        holders = [m for m in modules.values()
                   if m.__dict__.get(attrs[0]) is original
                   and (m.__name__, attrs[0]) not in LEFT_UNWRAPPED]
        for holder in holders:
            self._patch(holder, attrs[0], wrapped)

    def _patch(self, holder: object, attr: str, value: object) -> None:
        self._patches.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def _check_no_originals(self, modules: dict[str, ModuleType]) -> None:
        originals = {id(old) for _holder, _attr, old in self._patches}
        for mod_name, module in modules.items():
            for attr, value in module.__dict__.items():
                if id(value) in originals and (mod_name, attr) not in LEFT_UNWRAPPED:
                    raise TracingError(
                        f"{mod_name}.{attr} still binds an unwrapped span target")

    def uninstall(self) -> None:
        for holder, attr, old in reversed(self._patches):
            setattr(holder, attr, old)
        self._patches.clear()
