"""Unit and property tests for the type AST (Figures 3 and 6)."""

import pytest
from hypothesis import given

from repro.core.env import Environment
from repro.core.errors import GIError
from repro.core.infer import Inferencer, InferOptions
from repro.core.policy import EAGER_DEEP, deep_prenex
from repro.core.sorts import Sort
from repro.core.types import (
    BOOL,
    INT,
    Forall,
    InternTable,
    Pred,
    TCon,
    TVar,
    Type,
    UVar,
    alpha_equal,
    arrow_parts,
    contains_uvar,
    forall,
    ftv,
    fun,
    fuv,
    is_arrow,
    is_fully_monomorphic,
    is_rank1,
    list_of,
    rename_canonical,
    respects,
    sort_of,
    split_arrows,
    strip_forall,
    subst_tvars,
    subst_uvars,
    tuple_of,
    type_size,
)
from repro.syntax.parser import parse_term

from tests.strategies import monotypes, polytypes

A, B, C = TVar("a"), TVar("b"), TVar("c")
ID = forall(["a"], fun(A, A))


class TestConstruction:
    def test_fun_right_nests(self):
        assert fun(A, B, C) == TCon("->", (A, TCon("->", (B, C))))

    def test_fun_needs_a_type(self):
        with pytest.raises(ValueError):
            fun()

    def test_list_of(self):
        assert list_of(INT) == TCon("[]", (INT,))

    def test_tuple_of(self):
        assert tuple_of(INT, BOOL) == TCon("(,)", (INT, BOOL))
        with pytest.raises(ValueError):
            tuple_of(INT)

    def test_forall_collapses_nested(self):
        inner = Forall(("b",), fun(A, B))
        assert forall(["a"], inner) == Forall(("a", "b"), fun(A, B))

    def test_forall_drops_unused_binders(self):
        assert forall(["a", "z"], fun(A, A)) == Forall(("a",), fun(A, A))

    def test_forall_empty_is_identity(self):
        assert forall([], INT) == INT

    def test_forall_keeps_context_binders(self):
        qualified = forall(["a"], BOOL, [Pred("Eq", (A,))])
        assert isinstance(qualified, Forall)
        assert qualified.binders == ("a",)

    def test_forall_context_only(self):
        qualified = forall([], BOOL, [Pred("C", (INT,))])
        assert isinstance(qualified, Forall)
        assert qualified.binders == ()

    def test_arrow_helpers(self):
        arrow = fun(INT, BOOL)
        assert is_arrow(arrow)
        assert arrow_parts(arrow) == (INT, BOOL)
        assert not is_arrow(INT)
        with pytest.raises(ValueError):
            arrow_parts(INT)

    def test_split_arrows(self):
        arguments, result = split_arrows(fun(A, B, C))
        assert arguments == [A, B] and result == C
        arguments, result = split_arrows(fun(A, B, C), limit=1)
        assert arguments == [A] and result == fun(B, C)

    def test_strip_forall(self):
        assert strip_forall(ID) == (("a",), fun(A, A))
        assert strip_forall(INT) == ((), INT)


class TestFreeVariables:
    def test_ftv_simple(self):
        assert ftv(fun(A, B)) == {"a", "b"}

    def test_ftv_bound_removed(self):
        assert ftv(ID) == set()

    def test_ftv_shadowing(self):
        type_ = fun(A, forall(["a"], fun(A, B)))
        assert ftv(type_) == {"a", "b"}

    def test_ftv_context(self):
        qualified = Forall(("a",), A, (Pred("Eq", (B,)),))
        assert ftv(qualified) == {"b"}

    def test_fuv(self):
        alpha = UVar("x", Sort.U)
        assert fuv(fun(alpha, list_of(alpha))) == {alpha}
        assert fuv(ID) == set()


class TestSubstitution:
    def test_subst_tvar(self):
        assert subst_tvars({"a": INT}, fun(A, B)) == fun(INT, B)

    def test_subst_respects_binding(self):
        assert subst_tvars({"a": INT}, ID) == ID

    def test_subst_capture_avoiding(self):
        # [b ↦ a] (∀a. a → b) must rename the binder, not capture.
        target = forall(["a"], fun(A, B))
        result = subst_tvars({"b": A}, target)
        assert isinstance(result, Forall)
        binder = result.binders[0]
        assert binder != "a"
        assert result.body == fun(TVar(binder), A)

    def test_subst_empty_mapping_is_identity(self):
        assert subst_tvars({}, ID) is ID

    def test_subst_uvars(self):
        alpha = UVar("x", Sort.U)
        assert subst_uvars({alpha: INT}, fun(alpha, A)) == fun(INT, A)

    @given(polytypes())
    def test_subst_identity_mapping(self, type_):
        mapping = {name: TVar(name) for name in ftv(type_)}
        assert subst_tvars(mapping, type_) == type_


class TestSorts:
    def test_respects_u_always(self):
        assert respects(ID, Sort.U)
        assert respects(INT, Sort.U)

    def test_respects_t(self):
        assert respects(list_of(ID), Sort.T)  # poly under constructor
        assert not respects(ID, Sort.T)  # top-level quantifier
        assert not respects(UVar("x", Sort.U), Sort.T)
        assert respects(UVar("x", Sort.T), Sort.T)

    def test_respects_m(self):
        assert respects(fun(INT, A), Sort.M)
        assert not respects(list_of(ID), Sort.M)
        assert not respects(UVar("x", Sort.T), Sort.M)
        assert respects(UVar("x", Sort.M), Sort.M)

    def test_sort_of(self):
        assert sort_of(INT) is Sort.M
        assert sort_of(list_of(ID)) is Sort.T
        assert sort_of(ID) is Sort.U

    @given(monotypes())
    def test_monotypes_are_m(self, type_):
        assert is_fully_monomorphic(type_)

    @given(polytypes())
    def test_sort_of_is_minimal(self, type_):
        sort = sort_of(type_)
        assert respects(type_, sort)
        for smaller in Sort:
            if smaller < sort:
                assert not respects(type_, smaller)

    def test_is_rank1(self):
        assert is_rank1(ID)
        assert is_rank1(INT)
        assert not is_rank1(forall(["a"], fun(ID, A)))
        assert not is_rank1(list_of(ID))


class TestAlphaEquality:
    def test_binder_names_irrelevant(self):
        left = forall(["a"], fun(A, A))
        right = forall(["b"], fun(B, B))
        assert alpha_equal(left, right)

    def test_quantifier_order_matters(self):
        # Section 2.4: ∀a b. a → b → b is NOT equal to ∀b a. a → b → b.
        left = Forall(("a", "b"), fun(A, B, B))
        right = Forall(("b", "a"), fun(A, B, B))
        assert not alpha_equal(left, right)

    def test_free_variables_by_name(self):
        assert alpha_equal(fun(A, B), fun(A, B))
        assert not alpha_equal(fun(A, B), fun(B, A))

    def test_nested(self):
        left = list_of(forall(["a"], fun(A, A)))
        right = list_of(forall(["c"], fun(C, C)))
        assert alpha_equal(left, right)

    def test_free_vs_bound(self):
        assert not alpha_equal(forall(["a"], fun(A, B)), forall(["a"], fun(A, A)))

    @given(polytypes())
    def test_reflexive(self, type_):
        assert alpha_equal(type_, type_)

    @given(polytypes())
    def test_canonical_rename_preserves_alpha(self, type_):
        assert alpha_equal(type_, rename_canonical(type_))

    @given(polytypes(), polytypes())
    def test_symmetric(self, left, right):
        assert alpha_equal(left, right) == alpha_equal(right, left)


class TestMisc:
    def test_type_size(self):
        assert type_size(INT) == 1
        assert type_size(fun(A, B)) == 3
        assert type_size(ID) == 4

    def test_contains_uvar(self):
        alpha = UVar("x", Sort.M)
        assert contains_uvar(list_of(alpha), alpha)
        assert not contains_uvar(list_of(A), alpha)

    def test_render(self):
        assert str(fun(INT, BOOL)) == "Int -> Bool"
        assert str(ID) == "forall a. a -> a"
        assert str(list_of(ID)) == "[forall a. a -> a]"
        assert str(fun(fun(A, B), C)) == "(a -> b) -> c"
        assert str(tuple_of(INT, BOOL)) == "(Int, Bool)"
        assert str(TCon("ST", (A, B))) == "ST a b"

    def test_render_qualified(self):
        qualified = forall(["a"], fun(A, BOOL), [Pred("Eq", (A,))])
        assert str(qualified) == "forall a. Eq a => a -> Bool"


class TestInternCounters:
    """Capacity-full interning is observable, never silent."""

    def test_counts_hits_misses_and_full(self):
        table = InternTable(capacity=2)
        first = table.intern(TCon("Int"))
        table.intern(TCon("Bool"))
        assert table.misses == 2
        assert table.intern(TCon("Int")) is first
        assert table.hits == 1
        overflow = fun(TCon("Int"), TCon("Bool"))
        result = table.intern(overflow)
        assert result is overflow, "full table returns its argument"
        assert table.full_events == 1
        assert table.stats() == {
            "size": 2,
            "hits": 1,
            "misses": 2,
            "full_events": 1,
        }

    def test_full_event_reaches_the_tracer(self):
        from repro.observability import Tracer

        tracer = Tracer()
        table = InternTable(capacity=1)
        table.attach_tracer(tracer)
        table.intern(TCon("Int"))
        table.intern(TCon("Bool"))
        assert table.full_events == 1
        assert tracer.metrics.counters.get("types.intern.full") == 1

    def test_lost_race_returns_the_winner(self):
        # Another thread interns a structurally equal node between this
        # call's lookup and its store.  The loser must get the winner's
        # node back; overwriting it would hand two threads two distinct
        # "canonical" objects and break every ``is``-keyed cache.
        class RacingTable(dict):
            def __init__(self, rival):
                super().__init__()
                self.rival = rival

            def get(self, key, default=None):
                found = super().get(key, default)
                if found is None and self.rival is not None:
                    rival, self.rival = self.rival, None
                    self[rival] = rival
                return found

        rival = fun(TCon("Int"), TCon("Bool"))
        mine = fun(TCon("Int"), TCon("Bool"))
        assert rival is not mine
        table = InternTable()
        table._table = RacingTable(rival)
        assert table.intern(mine) is rival
        assert table.intern(mine) is rival
        assert len(table) == 1

    def test_inference_stays_correct_after_capacity_reached(self):
        # The regression the counter exists for: a tiny shared table fills
        # immediately, interning degrades to pass-through, and inference
        # must still produce the same types as with an unbounded table —
        # with the degradation observable on the counters.
        env = Environment({"id": ID, "one": INT})

        def outcome(inferencer, source):
            try:
                return str(inferencer.infer(parse_term(source)).type_)
            except GIError as error:
                return type(error).__name__

        sources = ["id one", "id id", r"\x -> id x", "let f = id in f one"]
        expected = [outcome(Inferencer(env), s) for s in sources]
        tables = []
        for capacity in (0, 1, 4):
            table = InternTable(capacity=capacity)
            tables.append(table)
            inferencer = Inferencer(env, intern=table)
            got = [outcome(inferencer, s) for s in sources]
            assert got == expected, f"capacity={capacity} changed inference"
        assert tables[0].full_events > 0, "a full table must report degradation"
        assert all(len(t) <= t.capacity for t in tables), "bound must hold"
        assert any(t.hits > 0 for t in tables), "interning must stay observable"


class TestDeepPrenexInterning:
    """``deep_prenex`` rebuilds are re-interned so its ``is``-based fixed
    point survives shared tables."""

    NESTED = fun(INT, ID)

    def test_rebuild_is_interned(self):
        table = InternTable()
        first = deep_prenex(self.NESTED, intern=table)
        second = deep_prenex(self.NESTED, intern=table)
        assert first is second, "same table must yield the identical object"
        assert deep_prenex(first, intern=table) is first, "fixed point by is"

    def test_roundtrip_through_second_shared_table(self):
        # The serve multi-session case: a type prenexed against one
        # session's view of the shared table, then re-interned through a
        # second fresh-but-shared table, must still satisfy object
        # identity = structural identity inside each table.
        nested = Forall(("b",), fun(B, forall(["a"], fun(A, B))), (Pred("Eq", (B,)),))
        first_table = InternTable()
        hoisted = deep_prenex(nested, intern=first_table)
        assert first_table.intern(hoisted) is hoisted
        second_table = InternTable()
        via_second = second_table.intern(hoisted)
        assert via_second == hoisted
        assert deep_prenex(via_second, intern=second_table) is via_second
        # And hoisting the original against the second table canonicalises
        # to the same node the round-tripped object occupies.
        assert deep_prenex(nested, intern=second_table) is via_second

    def test_solver_threads_its_table_through_deep_policies(self):
        env = Environment({"mk": fun(INT, fun(INT, ID)), "one": INT})
        options = InferOptions(policy=EAGER_DEEP)
        shared = InternTable()
        for intern in (None, shared, shared):
            inferencer = Inferencer(env, options=options, intern=intern)
            result = inferencer.infer(parse_term("mk one"))
            assert str(result.type_) == "forall a. Int -> a -> a"
        assert shared.hits > 0
