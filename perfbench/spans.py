"""Spans around the calls the ``lbcs`` command line makes into its layers.

The benchmark does not instrument the program.  While a traced command
runs, the module-level functions that ``lbcs.cli`` imported from the
other modules (and the few class methods it calls) are replaced by
timing wrappers; they are restored when the command returns.  Only the
outermost call is recorded, so child spans never overlap and

    command wall time = sum of child spans + cli self time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str          # "<layer>.<function>"
    seconds: float
    args: tuple        # the call's arguments and returned object, kept so
    kwargs: dict       # counts can be read from them afterwards
    result: object


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    depth: int = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.depth -= 1
            self.spans.append(Span(name, dt, args, kwargs, out))
            return out
        return traced


def _layer(obj) -> str:
    return obj.__module__.rsplit(".", 1)[-1]


def _targets(cli):
    """(owner, attribute, span name) for every call cli makes into a layer."""
    from lbcs import shadows, states

    out = []
    for attr, obj in vars(cli).items():
        if attr.startswith("_") or not callable(obj):
            continue
        module = getattr(obj, "__module__", "") or ""
        if not module.startswith("lbcs.") or module == "lbcs.cli":
            continue
        if isinstance(obj, type) and obj is not states.StateVector:
            continue  # exception and result classes; StateVector is built by cli
        out.append((cli, attr, f"{_layer(obj)}.{attr}"))
    for cls, attr in ((shadows.BetaDistribution, "load"),
                      (shadows.BetaDistribution, "save"),
                      (states.SingleReference, "from_bits")):
        out.append((cls, attr, f"{_layer(cls)}.{cls.__name__}.{attr}"))
    return out


@contextmanager
def traced(cli, recorder: Recorder):
    """Install the wrappers for the duration of one command."""
    saved = []
    try:
        for owner, attr, name in _targets(cli):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = classmethod(recorder.wrap(name, original.__func__))
            else:
                wrapped = recorder.wrap(name, original)
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
