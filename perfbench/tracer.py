"""Spans around the calls into each ``bilarx`` layer, installed from outside.

The program has no timers of its own, so the traced run wraps every public
function of every ``bilarx`` module, plus the three ``scipy.linalg`` kernels
the solver factors and solves with. A function imported by name into another
module (``extract.thin_svd``, ``solver.build_lifted_operator``, the solver
names in ``cli`` ...) is looked up in that module's namespace, so a wrapper
is bound at every lookup site, not only where the function is defined.

Spans nest on one stack (the program is single-threaded). Each closed span
adds its duration to its name's total, and the part of that interval not
covered by child spans to its self time. Spans are aggregated in memory as
they close and read out by name when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import scipy.linalg

# Modules whose public functions get spans, by short layer name.
LAYERS = ("problem", "prox", "extract", "solver", "analysis", "baseline",
          "datagen", "cli")

# scipy.linalg kernels the solver factors and solves with, called through
# ``scipy.linalg.<name>``; their spans are named ``linalg.<name>``.
LINALG = ("cho_factor", "cho_solve", "eigh")


def _modules() -> list:
    """The ``bilarx`` package followed by its layer modules, in LAYERS order."""
    return [importlib.import_module("bilarx")] + [
        importlib.import_module(f"bilarx.{layer}") for layer in LAYERS]


class Tracer:
    def __init__(self):
        self.stats = {}          # span name -> [calls, total_s, self_s]
        self.counters = {}       # counter name -> value
        self.root_s = 0.0        # time covered by outermost spans
        self.spans = 0
        self._stack = []         # open frames: [name, child_s]
        self._patched = []       # (namespace, attribute, original)

    # -- recording -------------------------------------------------------
    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + value

    def parent(self) -> str | None:
        """Name of the span enclosing the current one, if any."""
        return self._stack[-2][0] if len(self._stack) >= 2 else None

    def wrap(self, name, fn, on_return=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call args.

        ``on_return(tracer, args, kwargs, result)`` runs inside the span's
        frame after a normal return, so it can read ``parent()``.
        """
        stats, stack = self.stats, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(self, args, kwargs, result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration
                entry = stats.setdefault(label, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                self.spans += 1

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, hooks=None, names=None) -> None:
        """Bind wrappers at every lookup site of every public function.

        ``hooks`` maps ``"layer.function"`` to an ``on_return`` callback and
        ``names`` maps it to a span-name function of the call arguments.
        """
        hooks = hooks or {}
        names = names or {}
        modules = _modules()
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                key = f"{layer}.{attr}"
                wrappers[obj] = self.wrap(names.get(key, key), obj, hooks.get(key))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        for attr in LINALG:
            key = f"linalg.{attr}"
            self._patch(scipy.linalg, attr,
                        self.wrap(key, getattr(scipy.linalg, attr), hooks.get(key)))

    def _patch(self, namespace, attr, replacement) -> None:
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, replacement)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    def unwrapped_sites(self) -> list:
        """Lookup sites still bound to an unwrapped public bilarx function."""
        missed = []
        for module in _modules():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__.startswith("bilarx")
                        and not getattr(obj, "__wrapped_by_tracer__", False)):
                    missed.append(f"{module.__name__}.{attr}")
        return missed

    # -- reading ---------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(self, prefix: str) -> float:
        return sum(v[2] for k, v in self.stats.items() if k.startswith(prefix))

    def count(self, counter: str) -> float:
        return self.counters.get(counter, 0.0)
