"""Spans around the package's public functions, recorded from outside.

Nothing in the package knows about tracing.  `Tracer.install` rebinds each
traced function under every name a package module holds it by (so
`ramanujan`'s own `build_table` import and `mps_holds`'s module-global
`ramanujan_prefix` are both covered) and patches methods on their class;
`uninstall` puts the originals back.  Spans stay in memory as tuples
(id, parent, name, start, end, attrs) until `write` is called.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

PACKAGE = "ramanujan_primes"
# TableCache.get's span records {"old", "new"} table limits when it grew.
GROWTH = "ramanujan.TableCache.get"

# (layer = module, attribute or Class.method, attrs(args, result) or None)
TARGETS = [
    ("primes", "build_table", lambda a, r: {"limit": a[0]}),
    ("primes", "PrimeTable.pi", None),
    ("primes", "PrimeTable.nth_prime", None),
    ("primes", "PrimeTable.pi_cumulative", lambda a, r: {"hi": a[1]}),
    ("primes", "PrimeTable.primes_array", None),
    ("ramanujan", "TableCache.get", None),
    ("ramanujan", "ramanujan_prefix",
     lambda a, r: None if r is None else {
         "cutoff": r.cutoff, "n": len(r.values), "r_last": r.values[-1]}),
    ("ramanujan", "pi_k", None),
    ("ramanujan", "rho_k", None),
    ("ramanujan", "empirical_N", None),
    ("ramanujan", "empirical_N0", None),
    ("ramanujan", "mps_holds", None),
    ("bounds", "certify_tail", None),
    ("bounds", "named_threshold", None),
    ("bounds", "n_threshold", None),
    ("verify", "run_campaign", lambda a, r: {"cid": a[0]}),
    ("cli", "main", None),
]


def span_name(layer: str, attr: str) -> str:
    """primes.pi for PrimeTable.pi, ramanujan.TableCache.get as is."""
    return f"{layer}.{attr.removeprefix('PrimeTable.')}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            table = args[0].current() if name == GROWTH else None
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if name == GROWTH:
                    data = None if result is table or result is None else {
                        "old": table.limit if table is not None else 0,
                        "new": result.limit}
                else:
                    data = attrs(args, result) if attrs else None
                spans[sid] = (sid, parent, name, start, end, data)
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE
                                         or key.startswith(PACKAGE + "."))]
        for layer, attr, attrs in TARGETS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                wrapper = self._wrap(span_name(layer, attr), original, attrs)
                self._set(owner, method, wrapper, original)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name(layer, attr), original, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)

    def _set(self, owner, key, value, original) -> None:
        setattr(owner, key, value)
        self._undo.append((owner, key, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end, "attrs": attrs}) + "\n")


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per traced name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for sid, parent, name, start, end, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {span_name(layer, attr): {"calls": 0, "s": 0.0, "self_s": 0.0}
           for layer, attr, _ in TARGETS}
    for sid, parent, name, start, end, attrs in spans:
        row = out[name]
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += end - start - child[sid]
    return out


def attr_sum(spans, name: str, key: str) -> int:
    return sum(s[5][key] for s in spans if s[2] == name and s[5])
