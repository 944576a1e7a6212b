"""Span recorder that wraps kplab's functions from outside the package.

Each wrapped call records one span: name, start, end, parent span and an
optional point count (the size of the returned array).  Spans are kept in
flat arrays in memory and written out once, when the traced process ends.
A span's self time is its duration minus the durations of its direct
children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import resource
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.points = array("q")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, owner, attr: str, name, points: bool = False, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is a span name or a function of the call arguments that
        returns one.  With ``points`` the span records the size of the
        returned array.  ``after(args, result)`` runs once the
        span has closed, outside the timed interval of every span.
        """
        fn = getattr(owner, attr)
        clock = time.perf_counter
        stack = self._stack
        nid, par, st, en, pts = self.name_id, self.parent, self.start, self.end, self.points
        fixed = None if callable(name) else self._id(name)

        def wrapper(*args, **kwargs):
            i = len(st)
            nid.append(fixed if fixed is not None else self._id(name(args)))
            par.append(stack[-1])
            pts.append(0)
            en.append(0.0)
            stack.append(i)
            st.append(clock())
            try:
                res = fn(*args, **kwargs)
            finally:
                en[i] = clock()
                stack.pop()
            if points:
                pts[i] = np.size(res)
            if after is not None:
                after(args, res)
            return res

        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def arrays(self):
        """Spans as numpy arrays: name id, parent, start, end, points."""
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start), np.frombuffer(self.end),
                np.frombuffer(self.points, dtype=np.int64))

    def save(self, path):
        nid, par, st, en, pts = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, parent=par,
                 start=st, end=en, points=pts)


def summarize(names, nid, par, st, en, pts):
    """Per span name: calls, inclusive seconds, self seconds and points."""
    dur = en - st
    has_parent = par >= 0
    child = np.bincount(par[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child
    k = len(names)
    calls = np.bincount(nid, minlength=k)
    incl = np.bincount(nid, weights=dur, minlength=k)
    selfs = np.bincount(nid, weights=self_t, minlength=k)
    npts = np.bincount(nid, weights=pts, minlength=k)
    return {n: {"calls": int(calls[j]), "incl_s": float(incl[j]),
                "self_s": float(selfs[j]), "points": int(npts[j])}
            for j, n in enumerate(names)}


def under(names, nid, par, st, en, pts, name, parent):
    """Inclusive seconds and points of the ``name`` spans whose parent span
    is a ``parent`` span."""
    if name not in names or parent not in names:
        return 0.0, 0
    sel = (nid == names.index(name)) & (par >= 0)
    sel[sel] = nid[par[sel]] == names.index(parent)
    return float((en - st)[sel].sum()), int(pts[sel].sum())


def rusage():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt, r.ru_maxrss
