"""Reference scheduler for the solver: the whole-list re-scan loop.

Before the variable-indexed wake-up queue, the solver parked deferred
constraints in one list and, whenever a drain made any binding at all,
re-queued *every* parked constraint to retry it.  That loop gives the
same answers with more steps, which makes it a useful reference:

* ``tests/test_unionfind_properties.py`` checks that both schedulers
  infer the same types;
* ``benchmarks/test_bench_core.py`` times both on ``gen_chain`` and
  gates the wake-up queue's speed-up over this loop.

No production path uses it.
"""

from __future__ import annotations

from repro.core.constraints import Constraint
from repro.core.solver import Solver
from repro.core.types import UVar


class RescanSolver(Solver):
    """:class:`~repro.core.solver.Solver` with the re-scan scheduler."""

    def _schedule(self) -> None:
        # Bindings wake nothing here: progress is detected by comparing
        # the unifier's binding count around a full re-scan.
        self.unifier.on_bind = None
        while True:
            self._drain()
            if not self.deferred:
                break
            mark = self.unifier.bindings
            self._requeue_deferred()
            self._drain()
            if self.unifier.bindings != mark:
                continue
            if self.defaulting and self._default_one():
                continue
            break

    def _requeue_deferred(self) -> None:
        pending = [entry for entry in self.deferred if not entry.woken]
        self.deferred = []
        self.queue.extend((entry.constraint, entry.scope) for entry in pending)

    def _default_one(self) -> bool:
        if not super()._default_one():
            return False
        self._requeue_deferred()
        return True

    def _watch_vars(self, constraint: Constraint) -> list[UVar]:
        return []
