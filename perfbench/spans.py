"""Spans and counters around the public functions of rankcodes' layers.

The tracer wraps functions from the outside: it replaces module attributes
(and the FieldTower methods) with wrappers, so the program itself is left
untouched.  Every wrapped call is a span; a span's self time is its duration
minus the time of the spans it caused.  Spans are kept in memory as totals
per name, and the caller takes a snapshot after each pass.

Candidate subspaces yielded by ``linalg.subspace_bases`` are attributed to
the oracle by the tag that the enclosing ``grw_table_exact`` call returns,
and recorded per subspace dimension.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "frobenius", "trace")

# (module, function, span name); every rankcodes module attribute bound to
# the same function object is replaced, so imports by name are covered too.
SPANS = (
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "vec_mat", "linalg.vec_mat"),
    ("rankmetric", "closure_dim", "rankmetric.closure_dim"),
    ("grw", "grw_bounds_reducible", "grw.bounds_reducible"),
    ("equivalence", "to_c_opt", "equivalence.to_c_opt"),
    ("wiretap", "leakage_joint_enumeration", "wiretap.joint"),
    ("wiretap", "leakage_exact", "wiretap.leak_exact"),
)


def _oracle(tag: str) -> str:
    if "closed" in tag:
        return "closed"
    if "subcode" in tag:
        return "subcode"
    return "other"


class Tracer:
    def __init__(self):
        self._undo = []
        self.reset()

    def reset(self) -> None:
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.candidates = defaultdict(int)  # (oracle, dimension) -> count
        self.stack = [[0.0]]  # child time of each open span
        self.pending = [defaultdict(int)]  # candidates per dimension, per open table

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack = tracer.stack
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                tracer.self_s[name] += dt - frame[0]
                tracer.counts[name] += 1
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _enum(self, fn):
        tracer = self

        def subspace_bases(n, d, elements, *args, **kwargs):
            gen = fn(n, d, elements, *args, **kwargs)
            while True:
                frame = [0.0]
                stack = tracer.stack
                stack.append(frame)
                t0 = perf_counter()
                try:
                    basis = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    tracer.self_s["linalg.enum"] += dt - frame[0]
                tracer.counts["linalg.candidates"] += 1
                tracer.pending[-1][d] += 1
                yield basis

        subspace_bases.__wrapped__ = fn
        return subspace_bases

    def _table(self, fn):
        tracer = self
        inner = self._span("grw.table_exact", fn)

        def grw_table_exact(*args, **kwargs):
            tracer.pending.append(defaultdict(int))
            try:
                table, tag = out = inner(*args, **kwargs)
            finally:
                per_dim = tracer.pending.pop()
            oracle = _oracle(tag)
            tracer.counts[f"grw.oracle_{oracle}.tables"] += 1
            for d, c in per_dim.items():
                tracer.candidates[(oracle, d)] += c
                tracer.counts[f"grw.{oracle}.candidates"] += c
                if oracle == "closed" and table and d < table[0]:
                    tracer.counts["grw.closed.below_d1"] += c
            return out

        grw_table_exact.__wrapped__ = fn
        return grw_table_exact

    # -- installation -------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "rankcodes" and not modname.startswith("rankcodes."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import rankcodes
        from rankcodes import field, grw, linalg

        for op in FIELD_OPS:
            original = getattr(field.FieldTower, op)
            self._undo.append((field.FieldTower, op, original))
            setattr(field.FieldTower, op, self._span("field", original))
        for modname, fname, name in SPANS:
            original = getattr(getattr(rankcodes, modname), fname)
            after = None
            if name == "linalg.rref":
                after = self._count_rows
            elif name == "wiretap.joint":
                after = self._count_atoms
            self._replace_everywhere(original, self._span(name, original, after))
        self._replace_everywhere(linalg.subspace_bases, self._enum(linalg.subspace_bases))
        self._replace_everywhere(grw.grw_table_exact, self._table(grw.grw_table_exact))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            setattr(obj, attr, value)

    def _count_rows(self, args, out) -> None:
        self.counts["linalg.rref.rows"] += len(args[0])

    def _count_atoms(self, args, out) -> None:
        code = args[0]
        self.counts["wiretap.joint.atoms"] += code.tower.order ** code.n

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        """The per-layer metrics of the work done since the last reset."""
        c, s = self.counts, self.self_s
        closed = c["grw.closed.candidates"]
        return {
            "field.ops": c["field"],
            "field.self_s": s["field"],
            "linalg.rref.calls": c["linalg.rref"],
            "linalg.rref.rows": c["linalg.rref.rows"],
            "linalg.rref.self_s": s["linalg.rref"],
            "linalg.candidates": c["linalg.candidates"],
            "linalg.enum.self_s": s["linalg.enum"],
            "linalg.vec_mat.calls": c["linalg.vec_mat"],
            "linalg.vec_mat.self_s": s["linalg.vec_mat"],
            "rankmetric.closure_dim.calls": c["rankmetric.closure_dim"],
            "rankmetric.closure_dim.self_s": s["rankmetric.closure_dim"],
            "grw.closed.candidates": closed,
            "grw.subcode.candidates": c["grw.subcode.candidates"],
            "grw.closed.confirm_share": c["grw.closed.below_d1"] / closed if closed else 0.0,
            "grw.oracle_closed.tables": c["grw.oracle_closed.tables"],
            "grw.oracle_subcode.tables": c["grw.oracle_subcode.tables"],
            "grw.bounds_reducible.self_s": s["grw.bounds_reducible"],
            "equivalence.to_c_opt.self_s": s["equivalence.to_c_opt"],
            "wiretap.joint.atoms": c["wiretap.joint.atoms"],
            "wiretap.joint.self_s": s["wiretap.joint"],
            "wiretap.leak_exact.self_s": s["wiretap.leak_exact"],
        }

    def work_by_dimension(self) -> dict:
        """Candidates per oracle and per subspace dimension, as 'oracle:d' keys."""
        return {f"{o}:{d}": c for (o, d), c in sorted(self.candidates.items())}

    def export(self) -> dict:
        return {"counts": dict(self.counts), "self_s": dict(self.self_s),
                "candidates": self.work_by_dimension()}

    def absorb(self, exported: dict) -> None:
        """Add the totals of another tracer, e.g. one in a child process."""
        for name, v in exported["counts"].items():
            self.counts[name] += v
        for name, v in exported["self_s"].items():
            self.self_s[name] += v
        for key, v in exported["candidates"].items():
            oracle, d = key.split(":")
            self.candidates[(oracle, int(d))] += v
