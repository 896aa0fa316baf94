"""Property tests for the union-find substitution core and the wake-up
scheduler, over the conformance fuzzer's strategies.

Three invariants of the rework:

* ``zonk`` is idempotent after any sequence of binds — a zonked type is
  a fixpoint (no half-resolved chains can leak out);
* path compression is an *implementation* detail: forcing extra ``find``
  traffic between queries never changes any observable zonk result;
* scheduling is an implementation detail too: the wake-up queue, the
  re-scan reference scheduler (``tests/reference_solver.py``), and any
  ``--jobs`` setting of the batch driver all produce the same types and
  the same per-item solver-step counts.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.strategies import hm_terms, monotypes
from repro.core.errors import GIError, UnificationError
from repro.core.evidence import EvidenceStore
from repro.core.generate import GenOptions, Generator
from repro.core.names import NameSupply
from repro.core.solver import InstanceEnv, Solver
from repro.core.sorts import Sort
from repro.core.types import Forall, TCon, TVar, UVar, fuv
from repro.core.unify import Unifier
from repro.evalsuite.figure2 import figure2_env
from repro.robustness.batch import check_batch
from tests.reference_solver import RescanSolver

ENV = figure2_env()


@st.composite
def unification_problems(draw):
    """A list of (variable, monotype) bind attempts over a shared pool."""
    pairs = draw(
        st.lists(
            st.tuples(st.sampled_from(("u1", "u2", "u3")), monotypes()),
            min_size=1,
            max_size=6,
        )
    )
    return [(UVar(name, Sort.M), type_) for name, type_ in pairs]


def _apply(unifier, problem):
    for variable, type_ in problem:
        try:
            unifier.unify(variable, type_)
        except GIError:
            pass  # occurs/clash failures are fine — state stays usable


class TestZonkIdempotence:
    @given(unification_problems(), monotypes())
    def test_zonk_after_bind_is_idempotent(self, problem, probe):
        unifier = Unifier()
        _apply(unifier, problem)
        once = unifier.zonk(probe)
        assert unifier.zonk(once) == once

    @given(unification_problems())
    def test_zonked_variables_are_fixpoints(self, problem):
        unifier = Unifier()
        _apply(unifier, problem)
        for variable, _ in problem:
            image = unifier.zonk(variable)
            assert unifier.zonk(image) == image


class TestCompressionInvariance:
    @given(unification_problems(), st.integers(min_value=0, max_value=3))
    def test_extra_find_traffic_changes_nothing(self, problem, rounds):
        reference = Unifier()
        compressed = Unifier()
        _apply(reference, problem)
        _apply(compressed, problem)
        variables = [variable for variable, _ in problem]
        # Hammer the compressed store with redundant queries (each one
        # may shorten parent chains) before comparing observables.
        for _ in range(rounds):
            for variable in variables:
                compressed.zonk(variable)
                compressed.zonk_head(variable)
        for variable in variables:
            assert compressed.zonk(variable) == reference.zonk(variable)

    @given(unification_problems())
    def test_chain_order_does_not_change_results(self, problem):
        # Zonking in reverse order exercises different compression paths.
        forward = Unifier()
        backward = Unifier()
        _apply(forward, problem)
        _apply(backward, problem)
        variables = [variable for variable, _ in problem]
        forward_images = [forward.zonk(v) for v in variables]
        backward_images = [backward.zonk(v) for v in reversed(variables)]
        assert forward_images == list(reversed(backward_images))


def _canon_uvars(type_):
    """Replace unification variables by position-canonical rigid names
    (first occurrence order), keeping each variable's sort visible."""
    mapping = {}

    def go(node):
        if isinstance(node, UVar):
            if node not in mapping:
                mapping[node] = TVar(f"?{len(mapping)}{node.sort.symbol}")
            return mapping[node]
        if isinstance(node, TCon):
            return TCon(node.name, tuple(go(argument) for argument in node.args))
        if isinstance(node, Forall):
            return Forall(node.binders, go(node.body), node.context)
        return node

    return go(type_)


class TestSchedulingEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(hm_terms())
    def test_wake_queue_matches_legacy_rescan(self, term):
        outcomes = []
        for wake in (True, False):
            supply = NameSupply("u")
            evidence = EvidenceStore()
            generator = Generator(supply, evidence, GenOptions())
            try:
                result_type, constraints = generator.gen(ENV, term)
            except GIError as error:
                outcomes.append(("gen-error", type(error).__name__))
                continue
            solver_class = Solver if wake else RescanSolver
            solver = solver_class(supply, evidence, InstanceEnv())
            try:
                solver.solve(list(constraints))
            except GIError as error:
                outcomes.append(("solve-error", type(error).__name__))
                continue
            zonked = solver.unifier.zonk(result_type)
            # The two schedulers may default/freshen variables in a
            # different order, so residual variables can carry different
            # *names*; compare up to a canonical renaming of them.
            outcomes.append(("ok", str(_canon_uvars(zonked)), len(fuv(zonked))))
        assert outcomes[0] == outcomes[1], outcomes


def test_batch_jobs_do_not_change_types_or_steps():
    sources = [
        "inc 0",
        "single id",
        "head ids",
        "poly (\\x -> x)",
        "\\f -> f 1 1 1 1 1 1",
        "length (tail ids)",
        "runST argST",
        "pair (inc 0) (single id)",
        "not-a-name",
        "(single id :: [forall a. a -> a])",
    ]
    serial = check_batch(sources, ENV, jobs=1)
    threaded = check_batch(sources, ENV, jobs=2)
    assert [item.type_ for item in serial.items] == [
        item.type_ for item in threaded.items
    ]
    assert [item.solver_steps for item in serial.items] == [
        item.solver_steps for item in threaded.items
    ]
    # The suite exercises both outcomes, and successful items carry the
    # step counter the benchmarks compare.
    assert any(item.ok and item.solver_steps for item in serial.items)
    assert any(not item.ok for item in serial.items)
