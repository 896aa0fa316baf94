"""Plumbing shared by the baseline inferencers.

Every baseline keeps its substitution as a plain ``UVar → Type`` dict
(``self.subst``) that is reset at the start of each ``infer`` call; the
backends differ only in *which* bindings they admit and in how two
polytypes meet.  :class:`BaselineInferencer` owns the store and the
machinery around it — fresh variables and skolems, an iterative
``zonk``, structural unification, generalisation, instantiation,
``accepts`` and environment lookup — and exposes two hooks:

* :meth:`~BaselineInferencer._bind` admits (or refuses) ``α := τ``;
  the default is the occurs-checked binding of Algorithm W.
* :meth:`~BaselineInferencer._unify_forall` equates two quantified
  types: equal up to α-renaming, with unification variables inside the
  bodies still solvable under shared skolems.  Predicative backends
  override it to refuse.

Each subclass names its error class (``error``), its fresh-name prefix
(``supply_prefix``) and the sort of a plain fresh variable
(``fresh_sort``).  Walkers here never recurse on the Python stack, so a
deep application spine is decided rather than reported unavailable.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.env import Environment
from repro.core.errors import (
    GIError,
    OccursCheckError,
    SkolemEscapeError,
    TypeError_,
    UnificationError,
)
from repro.core.names import NameSupply, letters
from repro.core.sorts import Sort
from repro.core.terms import Term
from repro.core.types import (
    Forall,
    TCon,
    TVar,
    Type,
    UVar,
    alpha_equal,
    contains_uvar,
    forall,
    ftv,
    fuv,
    rename_canonical,
    strip_forall,
    subst_tvars,
)


class BaselineInferencer:
    """The substitution store and unifier every baseline builds on."""

    error: type[TypeError_] = TypeError_
    """The backend's own error class, raised for its rule violations."""

    supply_prefix = "t"
    fresh_sort = Sort.M

    def __init__(self, env: Environment, budget=None) -> None:
        self.env = env
        self.budget = budget
        self.supply = NameSupply(self.supply_prefix)
        self.subst: dict[UVar, Type] = {}
        self.skolems: set[str] = set()

    # -- plumbing ---------------------------------------------------------

    def fresh(self, sort: Sort | None = None) -> UVar:
        return UVar(self.supply.fresh(), self.fresh_sort if sort is None else sort)

    def _fresh_skolem(self, hint: str) -> str:
        name = self.supply.fresh(hint + "_sk")
        self.skolems.add(name)
        return name

    def zonk(self, type_: Type) -> Type:
        """Apply the substitution everywhere (explicit stack; a subtree
        the substitution does not touch is returned as is)."""
        subst = self.subst
        results: list[Type] = []
        stack: list[tuple[Type, bool]] = [(type_, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                if isinstance(node, TCon):
                    count = len(node.args)
                    args = tuple(results[-count:])
                    del results[-count:]
                    if any(new is not old for new, old in zip(args, node.args)):
                        node = TCon(node.name, args)
                else:
                    body = results.pop()
                    if body is not node.body:
                        node = Forall(node.binders, body, node.context)
                results.append(node)
            elif isinstance(node, UVar):
                bound = subst.get(node)
                if bound is None:
                    results.append(node)
                else:
                    stack.append((bound, False))
            elif isinstance(node, TCon) and node.args:
                stack.append((node, True))
                stack.extend((argument, False) for argument in reversed(node.args))
            elif isinstance(node, Forall):
                stack.append((node, True))
                stack.append((node.body, False))
            else:
                results.append(node)
        return results[0]

    def _lookup(self, name: str, local: dict[str, Type]) -> Type:
        if name in local:
            return local[name]
        return self.env.lookup(name)

    # -- unification --------------------------------------------------------

    def unify(self, left: Type, right: Type, depth: int = 0) -> None:
        if self.budget is not None:
            self.budget.check_unify_depth(depth, left, right)
        left, right = self.zonk(left), self.zonk(right)
        if left == right:
            return
        if isinstance(left, UVar):
            self._bind(left, right)
            return
        if isinstance(right, UVar):
            self._bind(right, left)
            return
        if (
            isinstance(left, TCon)
            and isinstance(right, TCon)
            and left.name == right.name
            and len(left.args) == len(right.args)
        ):
            for left_argument, right_argument in zip(left.args, right.args):
                self.unify(left_argument, right_argument, depth + 1)
            return
        if isinstance(left, Forall) and isinstance(right, Forall):
            self._unify_forall(left, right, depth)
            return
        raise UnificationError(left, right)

    def _bind(self, variable: UVar, type_: Type) -> None:
        if contains_uvar(type_, variable):
            raise OccursCheckError(variable, type_)
        self.subst[variable] = type_

    def _unify_forall(self, left: Forall, right: Forall, depth: int) -> None:
        """Quantified types meet invariantly: equal up to α-renaming,
        checked by unifying the bodies under shared skolems."""
        if alpha_equal(left, right):
            return
        if len(left.binders) != len(right.binders):
            raise UnificationError(left, right, "different numbers of quantifiers")
        shared = [self._fresh_skolem(name) for name in left.binders]
        left_map = {n: TVar(s) for n, s in zip(left.binders, shared)}
        right_map = {n: TVar(s) for n, s in zip(right.binders, shared)}
        self.unify(
            subst_tvars(left_map, left.body),
            subst_tvars(right_map, right.body),
            depth + 1,
        )
        # The shared skolems must not leak into the substitution images of
        # any outer variable.
        for skolem in shared:
            for variable, image in list(self.subst.items()):
                if skolem in ftv(self.zonk(image)) and variable not in fuv(
                    self.zonk(left)
                ):
                    raise SkolemEscapeError(skolem, self.zonk(image))

    # -- instantiation / generalisation -----------------------------------

    def instantiate(self, scheme: Type) -> Type:
        """Strip the top quantifiers with fresh (``fresh_sort``) variables."""
        scheme = self.zonk(scheme)
        binders, body = strip_forall(scheme)
        if not binders:
            return scheme
        mapping = {name: self.fresh() for name in binders}
        return subst_tvars(mapping, body)

    def _quantifier_name(self, candidate: str) -> str:
        """The binder name generalisation gives a candidate letter."""
        return candidate

    def generalize(self, env_types: Iterable[Type], type_: Type) -> Type:
        """Quantify the variables of ``type_`` not free in ``env_types``,
        in first-occurrence order, binding each to its new binder."""
        type_ = self.zonk(type_)
        env_vars: set[UVar] = set()
        for env_type in env_types:
            env_vars.update(fuv(self.zonk(env_type)))
        free = [v for v in _ordered_vars(type_) if v not in env_vars]
        names: list[str] = []
        used = set(ftv(type_))
        supply = letters()
        for variable in free:
            for candidate in supply:
                name = self._quantifier_name(candidate)
                if name not in used:
                    used.add(name)
                    names.append(name)
                    self.subst[variable] = TVar(name)
                    break
        return forall(names, self.zonk(type_))

    # -- inference ----------------------------------------------------------

    def infer(self, term: Term) -> Type:
        """The generalised, canonically renamed type of a term."""
        if self.budget is not None:
            self.budget.start()
        self.subst = {}
        local: dict[str, Type] = {}
        type_ = self._infer(term, local)
        return rename_canonical(self.generalize(local.values(), type_))

    def _infer(self, term: Term, local: dict[str, Type]) -> Type:
        raise NotImplementedError

    def accepts(self, term: Term) -> bool:
        try:
            self.infer(term)
            return True
        except GIError:
            return False


def _ordered_vars(type_: Type) -> list[UVar]:
    """Unification variables in first-occurrence pre-order (class
    contexts are not searched)."""
    seen: dict[UVar, None] = {}
    stack: list[Type] = [type_]
    while stack:
        node = stack.pop()
        if isinstance(node, UVar):
            seen.setdefault(node)
        elif isinstance(node, TCon):
            stack.extend(reversed(node.args))
        elif isinstance(node, Forall):
            stack.append(node.body)
    return list(seen)
