"""Outside-in tracing of the oamsm layers.

The tracer replaces public functions at the names the calling modules bind
(``oamsm.cli.abep``, ``oamsm.metrics.integrate``, ...) with wrappers that
record one span per call: name, start, end and the enclosing span.  Spans
live in compact in-memory arrays and are written out once, after the run.
Nothing in the package is replaced unless a ``Tracer`` is installed, and
``uninstall`` puts every original back.

Counters sit at the same boundaries: capacity draws, quadrature nodes (by
wrapping the integrand that ``integrate`` is handed), Marcum Q and ncx2
points, and Monte Carlo trials per detector.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time
from array import array

import numpy as np

# (module, attribute, span name).  The same function bound in two modules
# gets one span name, so a call is counted once whichever binding it takes.
_BINDINGS = (
    ("oamsm.cli", "run_sweep", "cli.run_sweep"),
    ("oamsm.cli", "build_channel_tensor", "channel.build_channel_tensor"),
    ("oamsm.metrics", "build_channel_tensor", "channel.build_channel_tensor"),
    ("oamsm.modem", "build_channel_tensor", "channel.build_channel_tensor"),
    ("oamsm.channel", "build_channel_tensor", "channel.build_channel_tensor"),
    ("oamsm.cli", "dcmc_capacity", "metrics.dcmc_capacity"),
    ("oamsm.metrics", "dcmc_capacity", "metrics.dcmc_capacity"),
    ("oamsm.cli", "mimo_capacity_baseline", "metrics.mimo_capacity_baseline"),
    ("oamsm.metrics", "mimo_capacity_baseline", "metrics.mimo_capacity_baseline"),
    ("oamsm.cli", "abep", "metrics.abep"),
    ("oamsm.metrics", "antenna_detection_prob", "metrics.antenna_detection_prob"),
    ("oamsm.metrics", "mod_bep", "metrics.mod_bep"),
    ("oamsm.metrics", "integrate", "numerics.integrate"),
    ("oamsm.metrics", "marcum_q1", "numerics.marcum_q1"),
    ("oamsm.metrics", "ncx2_pdf", "numerics.ncx2_pdf"),
    ("oamsm.cli", "simulate_ber", "modem.simulate_ber"),
    ("oamsm.modem", "simulate_ber", "modem.simulate_ber"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


class Tracer:
    """Span and counter recorder for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _counting_integrand(self, f):
        def counted(x):
            self.counts["numerics.integrate.nodes"] += int(np.size(x))
            return f(x)

        return counted

    def _prepare(self, name, args, kwargs):
        """Bump the counters of one call; returns the span name and the
        (possibly re-wrapped) arguments."""
        if name == "metrics.dcmc_capacity":
            self.counts["metrics.dcmc_capacity.draws"] += int(_arg(args, kwargs, 3, "samples"))
        elif name == "numerics.integrate":
            args = (self._counting_integrand(args[0]),) + tuple(args[1:])
        elif name == "numerics.marcum_q1":
            self.counts["numerics.marcum_q1.points"] += int(np.size(_arg(args, kwargs, 1, "b")))
        elif name == "numerics.ncx2_pdf":
            self.counts["numerics.ncx2_pdf.points"] += int(np.size(_arg(args, kwargs, 0, "g")))
        elif name == "modem.simulate_ber":
            name = f"{name}.{_arg(args, kwargs, 4, 'detector', 'stepwise')}"
            self.counts[f"{name}.trials"] += int(_arg(args, kwargs, 2, "trials"))
        return name, args

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, args = self._prepare(name, args, kwargs)
            idx = self._open(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for module_name, attr, name in _BINDINGS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            # One wrapper per function, shared by all of its bindings.
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, name)
            wrapped = wrappers[id(fn)]
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- reduction ---------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        if not self.start:
            return {}
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "s": float(np.sum(dur[sel])),
                "self_s": float(np.sum(dur[sel] - child[sel])),
            }
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: {"name", "start", "end", "parent"}, with
        times in seconds from the first span and parent as a line index."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for nid, par, s, e in zip(self.name_id, self.parent, self.start, self.end):
                fh.write(
                    json.dumps(
                        {"name": self.names[nid], "start": round(s - t0, 9),
                         "end": round(e - t0, 9), "parent": par}
                    )
                    + "\n"
                )
