"""Span tracer that wraps tribell's layer boundaries from outside the package.

Nothing under ``src/`` is edited: `install` replaces module attributes with
timing wrappers, in every tribell namespace that holds a reference to the
wrapped function (``from .qmath import eig_hermitian`` copies the reference
into ``centropy``, so patching ``qmath`` alone would let those calls escape).

Spans live in per-thread ``array`` buffers (name, parent, start, end and the
thread's CPU seconds inside the span) so that a few hundred thousand spans
cost a few megabytes; `Tracer.save` writes them out once the pass is over.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array

import numpy as np

# Modules whose public functions are layer boundaries.
MODULES = ("cli", "rates", "bounds", "optimize", "centropy", "qmath", "bell",
           "states", "verification")

# Helpers that name no layer of their own: the scalar entropies (about 5
# million calls in one asym-CHSH threshold, from the tangent scan) and the
# small-matrix plumbing under every correlator and eigensolve (about 10^5
# calls per figures pass).  Their time counts as self time of the caller.
UNTRACED = {
    "qmath.as_matrix", "qmath.binary_entropy", "qmath.binary_entropy_deriv",
    "qmath.ensure_hermitian", "qmath.kron", "qmath.shannon_entropy",
    "qmath.validate_probability_vector", "states.obs_matrix",
}

# Methods traced on the class itself, so every instance is covered.
METHODS = (("states", "BlockDiagState", ("correlators", "to_matrix")),)

_clock = time.perf_counter
_cpu = time.thread_time


class _Buffer:
    """Spans recorded by one thread; parents index into the same buffer."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cpu = array("d")  # thread CPU seconds
        self.stack: list[int] = []

    def open(self, nid: int) -> int:
        i = len(self.name)
        stack = self.stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(i)
        self.cpu.append(_cpu())
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self.cpu[i] = _cpu() - self.cpu[i]
        self.stack.pop()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self.solves: list[tuple[int, bool, float]] = []
        self.cache_fns: dict[str, object] = {}

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, observe=None):
        nid = self._nid(name)
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            i = buf.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.close(i)
            if observe is not None:
                observe(out)
            return out

        return traced

    # -- installation ------------------------------------------------------

    def install(self, tribell) -> None:
        """Wrap every public function of `MODULES` (minus `UNTRACED`), the
        traced methods, the minimizer registry and the CLI thread pool."""
        mods = {m: getattr(tribell, m) for m in MODULES}
        wrappers = {}  # id(original) -> wrapper; the wrapper keeps it alive
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{mname}.{attr}"
                if name in UNTRACED:
                    continue
                if hasattr(obj, "cache_info"):
                    self.cache_fns[name] = obj
                observe = self._observe_solve if attr.startswith("minimize_") else None
                wrappers[id(obj)] = self.wrap(name, obj, observe)
        # rebind the originals wherever tribell holds a reference to them
        namespaces = [vars(m) for m in mods.values()]
        namespaces.append(mods["optimize"].MINIMIZERS)
        for ns in namespaces:
            for key, val in list(ns.items()):
                if id(val) in wrappers:
                    ns[key] = wrappers[id(val)]
        for mname, cls_name, methods in METHODS:
            cls = getattr(mods[mname], cls_name)
            for meth in methods:
                setattr(cls, meth,
                        self.wrap(f"{mname}.{cls_name}.{meth}", getattr(cls, meth)))
        cli = mods["cli"]
        pool_map = cli._map_parallel

        def traced_map(fn, xs):  # each task is a root span on a pool thread
            return pool_map(self.wrap("cli.pool.task", fn), xs)

        cli._map_parallel = self.wrap("cli.pool.map", traced_map)

    def _observe_solve(self, res) -> None:
        self.solves.append((int(res.restarts_used), bool(res.converged),
                            abs(float(res.achieved_beta) - float(res.beta_target))))

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; `parent` is a global index or -1."""
        cols = {k: [] for k in ("name", "parent", "start", "end", "cpu", "thread")}
        offset = 0
        for t, buf in enumerate(self._buffers):
            par = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            cols["parent"].append(np.where(par >= 0, par + offset, -1))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            for k in ("start", "end", "cpu"):
                cols[k].append(np.frombuffer(getattr(buf, k), dtype=np.float64))
            cols["thread"].append(np.full(len(buf.name), t, dtype=np.int32))
            offset += len(buf.name)
        return {k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_stats(names: list[str], sp: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, busy seconds (outermost call of that name on
    each thread, so recursion is not counted twice), the thread CPU seconds
    of those same calls, and self seconds (busy minus the time covered by
    traced children)."""
    n = len(sp["name"])
    dur = sp["end"] - sp["start"]
    child = np.zeros(n)
    par = sp["parent"]
    has_par = par >= 0
    np.add.at(child, par[has_par], dur[has_par])
    self_t = dur - child
    # a span is nested in a span of the same name if any ancestor shares it
    nested = np.zeros(n, dtype=bool)
    anc = par.copy()
    for _ in range(64):
        live = anc >= 0
        if not live.any():
            break
        same = np.zeros(n, dtype=bool)
        same[live] = sp["name"][anc[live]] == sp["name"][live]
        nested |= same
        anc = np.where(live, par[np.maximum(anc, 0)], -1)
    out = {}
    for nid, name in enumerate(names):
        sel = sp["name"] == nid
        outer = sel & ~nested
        out[name] = {
            "calls": int(sel.sum()),
            "busy_s": float(dur[outer].sum()),
            "cpu_s": float(sp["cpu"][outer].sum()),
            "self_s": float(self_t[sel].sum()),
        }
    return out


def pool_stats(names: list[str], sp: dict[str, np.ndarray]) -> tuple[float, float]:
    """(busy, wait) of the CLI pool: wall time of pool-task spans on worker
    threads, and its part not spent on that thread's CPU (GIL wait)."""
    if "cli.pool.task" not in names:
        return 0.0, 0.0
    sel = sp["name"] == names.index("cli.pool.task")
    wall = sp["end"][sel] - sp["start"][sel]
    cpu = sp["cpu"][sel]
    return float(wall.sum()), float(np.clip(wall - cpu, 0.0, None).sum())
