"""Predicative arbitrary-rank bidirectional inference.

The system of *Practical type inference for arbitrary-rank types*
(Peyton Jones, Vytiniotis, Weirich, Shields — JFP 2007), cited as [13] in
the paper and the basis of GHC's pre-Quick-Look higher-rank inference.
It is the natural "lower bound" baseline for GI: it handles higher-rank
*annotations* (``poly (λx. x)`` checks) but forbids all impredicative
instantiation — every example of Figure 2 that needs a type variable to
become a polytype is rejected.

Architecture, following the JFP paper:

* bidirectional: ``infer`` synthesises a ρ-type, ``check`` pushes an
  expected ρ-type into the term;
* ``σ``-generalisation at inference points, deep skolemisation in the
  subsumption check ``σ1 ⊑ σ2``;
* unification variables range over *monotypes only* (predicativity): the
  occurs-checked binder refuses any type containing a quantifier.
"""

from __future__ import annotations

from repro.baselines.base import BaselineInferencer
from repro.core.env import Environment
from repro.core.errors import (
    OccursCheckError,
    SkolemEscapeError,
    TypeError_,
    UnificationError,
)
from repro.core.terms import (
    Ann,
    AnnLam,
    App,
    Case,
    Lam,
    Let,
    Lit,
    Term,
    Var,
)
from repro.core.types import (
    Forall,
    TCon,
    TVar,
    Type,
    UVar,
    contains_uvar,
    ftv,
    fun,
    fuv,
    mentions_forall,
    strip_forall,
    subst_tvars,
)


class RankNError(TypeError_):
    """A predicative higher-rank type error."""


class RankNInferencer(BaselineInferencer):
    """Bidirectional predicative arbitrary-rank inference.

    ``policy`` (an :class:`~repro.core.policy.InstantiationPolicy`, or
    ``None`` for the system's reference configuration) selects the
    instantiation discipline.  The JFP 2007 system is *eager-deep*:
    variables instantiate on mention and subsumption deep-skolemises.
    ``depth="shallow"`` stops skolemisation at the top-level binders
    (GHC 9's simplified subsumption); ``speed="lazy"`` keeps a
    variable's polytype at its occurrence until an elimination context
    forces instantiation (GHC 9's lazy instantiation).
    """

    error = RankNError
    supply_prefix = "r"

    def __init__(self, env: Environment, budget=None, policy=None) -> None:
        super().__init__(env, budget)
        self.policy = policy
        self._lazy = policy is not None and policy.lazy
        self._deep = policy is None or policy.deep

    # -- unification ------------------------------------------------------

    def _unify_forall(self, left: Forall, right: Forall, depth: int) -> None:
        # Predicative: quantified types are never equated.
        raise UnificationError(left, right)

    def _bind(self, variable: UVar, type_: Type) -> None:
        if contains_uvar(type_, variable):
            raise OccursCheckError(variable, type_)
        if mentions_forall(type_):
            raise self.error(
                f"predicativity violation: `{variable}` cannot stand for the "
                f"polymorphic type `{type_}`"
            )
        self.subst[variable] = type_

    # -- skolemisation / subsumption ---------------------------------------

    def deep_skolemise(self, scheme: Type) -> tuple[list[str], Type]:
        """Peel quantifiers at the top — and, under a deep policy, to the
        right of arrows too."""
        scheme = self.zonk(scheme)
        binders, body = strip_forall(scheme)
        mapping = {name: TVar(self._fresh_skolem(name)) for name in binders}
        skolems = [variable.name for variable in mapping.values()]
        body = subst_tvars(mapping, body)
        if (
            self._deep
            and isinstance(body, TCon)
            and body.name == "->"
            and len(body.args) == 2
        ):
            argument, result = body.args
            inner_skolems, inner_body = self.deep_skolemise(result)
            return skolems + inner_skolems, fun(argument, inner_body)
        return skolems, body

    def subsume(
        self, offered: Type, expected: Type, local: dict[str, Type] | None = None
    ) -> None:
        """``offered ⊑ expected`` (dsk: deep-skolemise the expected side)."""
        outer = self._reachable_vars(local, offered)
        skolems, expected_rho = self.deep_skolemise(expected)
        self._subsume_rho(offered, expected_rho)
        self._check_escape(skolems, outer)

    def _subsume_rho(self, offered: Type, expected_rho: Type) -> None:
        offered = self.zonk(offered)
        expected_rho = self.zonk(expected_rho)
        if isinstance(offered, Forall):
            self._subsume_rho(self.instantiate(offered), expected_rho)
            return
        if (
            isinstance(offered, TCon)
            and offered.name == "->"
            and isinstance(expected_rho, TCon)
            and expected_rho.name == "->"
        ):
            # Contravariant in the argument, covariant in the result.
            self.subsume(expected_rho.args[0], offered.args[0])
            self._subsume_rho(offered.args[1], expected_rho.args[1])
            return
        self.unify(offered, expected_rho)

    def _reachable_vars(
        self, local: dict[str, Type] | None, *types: Type
    ) -> set[UVar]:
        """Unification variables visible outside a skolemisation scope."""
        reachable: set[UVar] = set()
        for type_ in (local or {}).values():
            reachable.update(fuv(self.zonk(type_)))
        for type_ in types:
            reachable.update(fuv(self.zonk(type_)))
        return reachable

    def _check_escape(self, skolems: list[str], outer: set[UVar]) -> None:
        """No skolem may leak into a variable visible outside its scope."""
        if not skolems:
            return
        for variable in outer:
            leaked = set(skolems) & ftv(self.zonk(variable))
            if leaked:
                raise SkolemEscapeError(sorted(leaked)[0], self.zonk(variable))

    # -- inference ----------------------------------------------------------

    def _infer(self, term: Term, local: dict[str, Type]) -> Type:
        if isinstance(term, Var):
            if self._lazy:
                # Lazy instantiation: keep the polytype; elimination
                # contexts (application heads, case scrutinees) force it.
                return self.zonk(self._lookup(term.name, local))
            return self.instantiate(self._lookup(term.name, local))
        if isinstance(term, Lit):
            return term.type_
        if isinstance(term, App):
            fn_rho = self._infer(term.head, local)
            for argument in term.args:
                fn_rho = self.zonk(fn_rho)
                if isinstance(fn_rho, Forall):
                    fn_rho = self.instantiate(fn_rho)
                if isinstance(fn_rho, UVar):
                    parameter, result = self.fresh(), self.fresh()
                    self.unify(fn_rho, fun(parameter, result))
                elif isinstance(fn_rho, TCon) and fn_rho.name == "->":
                    parameter, result = fn_rho.args
                else:
                    raise self.error(f"too many arguments for `{fn_rho}`")
                self._check_arg(argument, parameter, local)
                fn_rho = result
            return self.zonk(fn_rho)
        if isinstance(term, Lam):
            binder = self.fresh()
            inner = dict(local)
            inner[term.var] = binder
            body = self._infer(term.body, inner)
            return fun(binder, body)
        if isinstance(term, AnnLam):
            inner = dict(local)
            inner[term.var] = term.annotation
            body = self._infer(term.body, inner)
            return fun(term.annotation, body)
        if isinstance(term, Ann):
            # Annotations switch to checking mode (the whole point of the
            # bidirectional system).
            self._check_sigma(term.expr, term.annotation, local)
            if self._lazy:
                return self.zonk(term.annotation)
            return self.instantiate(term.annotation)
        if isinstance(term, Let):
            bound = self._infer_sigma(term.bound, local)
            inner = dict(local)
            inner[term.var] = bound
            return self._infer(term.body, inner)
        if isinstance(term, Case):
            return self._infer_case(term, local)
        raise TypeError(f"unknown term node: {term!r}")

    def _infer_sigma(self, term: Term, local: dict[str, Type]) -> Type:
        rho = self._infer(term, local)
        return self.generalize(local.values(), rho)

    def _check_arg(self, argument: Term, parameter: Type, local: dict[str, Type]) -> None:
        parameter = self.zonk(parameter)
        if isinstance(parameter, Forall):
            # Checking mode: push the polymorphic expected type inwards.
            self._check_sigma(argument, parameter, local)
            return
        if isinstance(argument, Lam) and isinstance(parameter, TCon) and parameter.name == "->":
            inner = dict(local)
            inner[argument.var] = parameter.args[0]
            self._check_arg(argument.body, parameter.args[1], inner)
            return
        offered = self._infer_sigma(argument, local)
        self.subsume(offered, parameter, local)

    def _check_sigma(self, term: Term, expected: Type, local: dict[str, Type]) -> None:
        outer = self._reachable_vars(local)
        skolems, rho = self.deep_skolemise(expected)
        self._check_rho(term, rho, local)
        self._check_escape(skolems, outer)
        # A skolem appearing rigidly in the environment types themselves
        # (not through a unification variable) also escapes.
        env_free: set[str] = set()
        for type_ in local.values():
            env_free.update(ftv(self.zonk(type_)))
        leaked = set(skolems) & env_free
        if leaked:
            raise SkolemEscapeError(sorted(leaked)[0])

    def _check_rho(self, term: Term, expected_rho: Type, local: dict[str, Type]) -> None:
        expected_rho = self.zonk(expected_rho)
        if isinstance(term, Lam) and isinstance(expected_rho, TCon) and expected_rho.name == "->":
            inner = dict(local)
            inner[term.var] = expected_rho.args[0]
            self._check_rho(term.body, expected_rho.args[1], inner)
            return
        if isinstance(term, AnnLam) and isinstance(expected_rho, TCon) and expected_rho.name == "->":
            self.subsume(expected_rho.args[0], term.annotation, local)
            inner = dict(local)
            inner[term.var] = term.annotation
            self._check_rho(term.body, expected_rho.args[1], inner)
            return
        offered = self._infer(term, local)
        self._subsume_rho(self.generalize(local.values(), offered), expected_rho)

    def _infer_case(self, term: Case, local: dict[str, Type]) -> Type:
        scrutinee = self._infer(term.scrutinee, local)
        if isinstance(self.zonk(scrutinee), Forall):
            # Reachable only under a lazy policy: matching forces
            # instantiation.
            scrutinee = self.instantiate(scrutinee)
        first = self.env.lookup_datacon(term.alts[0].constructor)
        alphas = {name: self.fresh() for name in first.universals}
        self.unify(
            scrutinee, TCon(first.result_con, tuple(alphas[n] for n in first.universals))
        )
        result = self.fresh()
        for alt in term.alts:
            datacon = self.env.lookup_datacon(alt.constructor)
            mapping: dict[str, Type] = dict(alphas)
            mapping.update(
                {name: TVar(self._fresh_skolem(name)) for name in datacon.existentials}
            )
            fields = [subst_tvars(mapping, field) for field in datacon.fields]
            inner = dict(local)
            inner.update(dict(zip(alt.binders, fields)))
            rhs = self._infer(alt.rhs, inner)
            if isinstance(self.zonk(rhs), Forall):
                rhs = self.instantiate(rhs)
            self.unify(result, rhs)
        return self.zonk(result)


def rankn_infer(term: Term, env: Environment) -> Type:
    """Convenience wrapper."""
    return RankNInferencer(env).infer(term)
