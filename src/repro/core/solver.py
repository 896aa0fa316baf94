"""The constraint solver (Figures 8, 10 and 14 of the paper).

The solver is a deterministic worklist engine over the constraint language
of :mod:`repro.core.constraints`:

* **equalities** go straight to the unifier (:mod:`repro.core.unify`);
* **instantiation constraints** ``σ ⩽s_ω σ̄;µ`` follow rules instϵ /
  inst→ / inst∀l, classifying quantified variables with ``▷`` and
  freshening them at the sorts the classification allows;
* **generalisation constraints** ``g ⪯ σ`` follow rules inst⨅l (release
  the captured constraints when the right-hand side has no top-level
  quantifier) and inst∀r (skolemise when it does);
* **quantification / implication constraints** open a nested scope one
  level deeper; floating with promotion and skolem-escape checking are
  performed eagerly by the level-aware unifier, which is equivalent to
  rule float of Figure 10;
* **class constraints** are discharged against the local givens and the
  instance environment (Appendix B).

Exactly as Section 4.3.2 prescribes, a constraint *waits* when progress
would require guessing: an instantiation whose left-hand side, or a
generalisation whose right-hand side, is an unbound unrestricted variable
is deferred and woken when that variable is substituted.  When the whole
constraint set reaches a fixpoint with deferred constraints remaining, the
blocking variables are *defaulted* to fully monomorphic fresh variables,
one at a time — impredicativity is never guessed (Theorem 3.2).

Deferred constraints are scheduled through a *variable-indexed wake-up
queue*: each parked constraint registers watches on the unification
variables that block it, and the unifier's ``on_bind`` hook re-queues it
the moment one of them is solved, so a drained queue is the fixpoint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.core.classify import Bit, classified_binders
from repro.core.constraints import ClassC, Constraint, Eq, Gen, Inst, Quant, Scheme
from repro.core.errors import (
    GIError,
    MissingInstanceError,
    StuckConstraintError,
)
from repro.core.evidence import EvidenceStore, TakeArg, TypeArgs
from repro.core.names import NameSupply
from repro.core.policy import DEFAULT_POLICY, InstantiationPolicy, deep_prenex
from repro.core.sorts import Sort
from repro.core.types import (
    Forall,
    Pred,
    TCon,
    TVar,
    Type,
    UVar,
    alpha_equal,
    fun,
    fuv,
    subst_tvars,
)
from repro.core.unify import Unifier

if TYPE_CHECKING:  # pragma: no cover — avoids a runtime import cycle
    from repro.observability.tracer import TracerLike
    from repro.robustness.budget import Budget
    from repro.robustness.faultinject import FaultPlan


@dataclass
class Scope:
    """One quantification level: skolems, local class givens, parent."""

    level: int
    parent: "Scope | None" = None
    class_givens: list[ClassC] = field(default_factory=list)
    eq_givens: dict[str, Type] = field(default_factory=dict)

    def child(self) -> "Scope":
        return Scope(self.level + 1, parent=self)

    def resolver(self, name: str) -> Type | None:
        """Rewrite a rigid variable using local given equalities."""
        scope: Scope | None = self
        while scope is not None:
            if name in scope.eq_givens:
                return scope.eq_givens[name]
            scope = scope.parent
        return None

    def all_class_givens(self) -> list[ClassC]:
        result: list[ClassC] = []
        scope: Scope | None = self
        while scope is not None:
            result.extend(scope.class_givens)
            scope = scope.parent
        return result


@dataclass
class _Deferred:
    """A parked constraint plus its scope and wake-up state.

    ``woken`` flips once when the entry is re-queued (a constraint may
    watch several variables; only the first binding re-queues it) and
    marks the entry dead in ``Solver.deferred``.
    """

    constraint: Constraint
    scope: Scope
    woken: bool = False


class Solver:
    """One solving run over a generated constraint set.

    ``budget`` bounds the worklist (one budget tick per processed
    constraint) and is shared with the unifier, which bounds its own
    recursion against it; ``faults`` is the deterministic fault-injection
    hook.  ``defaulting=False`` disables the Section 4.3.2 defaulting of
    blocked unrestricted variables, so an underdetermined program fails
    deterministically with :class:`StuckConstraintError` instead of being
    completed with guessed monomorphic types.
    """

    def __init__(
        self,
        supply: NameSupply,
        evidence: EvidenceStore | None = None,
        instances: "InstanceEnv | None" = None,
        budget: "Budget | None" = None,
        faults: "FaultPlan | None" = None,
        defaulting: bool = True,
        tracer: "TracerLike | None" = None,
        intern=None,
        policy: InstantiationPolicy = DEFAULT_POLICY,
    ) -> None:
        self.unifier = Unifier(
            supply, budget=budget, faults=faults, tracer=tracer, intern=intern
        )
        self.evidence = evidence or EvidenceStore()
        self.instances = instances or InstanceEnv()
        self.queue: deque[tuple[Constraint, Scope]] = deque()
        self.deferred: list[_Deferred] = []
        self.root = Scope(0)
        self.budget = budget
        self.faults = faults
        self.tracer = tracer
        self.defaulting = defaulting
        self.policy = policy
        self._watches: dict[UVar, list[_Deferred]] = {}
        self.steps = 0
        """Constraints processed so far (the budget's fuel gauge)."""

        self.wakeups = 0
        """Deferred constraints re-queued by the variable wake-up hook."""

        self.current_level = 0
        """Scope depth of the constraint being processed (for snapshots)."""

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------

    def solve(self, constraints: Iterable[Constraint]) -> list[tuple[ClassC, Scope]]:
        """Solve to fixpoint; returns residual class constraints (for the
        top level to quantify over).  Raises on any type error."""
        for constraint in constraints:
            self.queue.append((constraint, self.root))
        self.unifier.on_bind = self._wake
        try:
            self._schedule()
        finally:
            self.unifier.on_bind = None
        live = [entry for entry in self.deferred if not entry.woken]
        residual_classes = [
            (entry.constraint, entry.scope)
            for entry in live
            if isinstance(entry.constraint, ClassC)
        ]
        if self.tracer is not None and self.tracer.enabled:
            for constraint, _ in residual_classes:
                self.tracer.event("solver.residual", constraint=str(constraint))
        hard = [
            entry.constraint
            for entry in live
            if not isinstance(entry.constraint, ClassC)
        ]
        if hard:
            rendered = [self._zonk_constraint_for_report(c) for c in hard]
            raise StuckConstraintError(rendered)
        return residual_classes

    def _schedule(self) -> None:
        """Run the queue to fixpoint, defaulting one blocker at a time.

        Bindings re-queue their watchers inside ``_drain`` itself, so a
        drained queue with live deferred entries *is* the fixpoint — no
        progress mark, no re-scan."""
        while True:
            self._drain()
            self._compact_deferred()
            if not self.deferred:
                break
            if self.defaulting and self._default_one():
                continue
            break

    def _drain(self) -> None:
        while self.queue:
            constraint, scope = self.queue.popleft()
            self.steps += 1
            self.current_level = scope.level
            if self.budget is not None:
                self.budget.check_solver_step(
                    self.steps, constraint, wakeups=self.wakeups
                )
            if self.faults is not None:
                self.faults.solver_step(self.steps, constraint)
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.inc("solver.steps")
                self.tracer.event(
                    "solver.step",
                    step=self.steps,
                    level=scope.level,
                    kind=type(constraint).__name__,
                    constraint=str(constraint),
                )
            self._step(constraint, scope)

    def _compact_deferred(self) -> None:
        """Drop woken (dead) entries so the deferred list stays small."""
        if any(entry.woken for entry in self.deferred):
            self.deferred = [entry for entry in self.deferred if not entry.woken]

    def _wake(self, variable: UVar) -> None:
        """Unifier ``on_bind`` hook: re-queue the watchers of a variable
        that just got solved (bound or united into another variable)."""
        entries = self._watches.pop(variable, None)
        if entries is None:
            return
        tracing = self.tracer is not None and self.tracer.enabled
        for entry in entries:
            if entry.woken:
                continue
            entry.woken = True
            self.wakeups += 1
            if tracing:
                self.tracer.inc("solver.wakes")
                self.tracer.event(
                    "solver.wake",
                    var=str(variable),
                    constraint=str(entry.constraint),
                )
            self.queue.append((entry.constraint, entry.scope))

    def _watch_vars(self, constraint: Constraint) -> list[UVar]:
        """The unbound representatives whose solving could unblock the
        constraint (the variables named in its deferral reason)."""
        if isinstance(constraint, Inst):
            head = self.unifier.zonk_head(constraint.lhs)
            return [head] if isinstance(head, UVar) else []
        if isinstance(constraint, Gen):
            head = self.unifier.zonk_head(constraint.rhs)
            return [head] if isinstance(head, UVar) else []
        if isinstance(constraint, ClassC):
            watched: list[UVar] = []
            for argument in constraint.args:
                for variable in self.unifier.fuv_of(argument):
                    root = self.unifier.zonk_head(variable)
                    if isinstance(root, UVar) and root not in watched:
                        watched.append(root)
            return watched
        return []

    def _default_one(self) -> bool:
        """Default the blocker of the oldest deferred constraint.

        An unrestricted variable that nothing will ever constrain further
        is demoted to a *top-level monomorphic* variable: it will never be
        a quantified type (impredicativity is never guessed, Theorem 3.2)
        but may still carry annotated polymorphism under a constructor.
        One variable at a time, since releasing a generalisation scheme
        can unblock — or polymorphically determine — other blockers."""
        for entry in self.deferred:
            if entry.woken:
                continue
            blocker = self._blocking_var(entry.constraint)
            if blocker is None:
                continue
            demoted = self.unifier.fresh(Sort.T, blocker.level)
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.inc("solver.defaults")
                self.tracer.event(
                    "solver.default", var=str(blocker), demoted_to=str(demoted)
                )
            # The assignment fires the watch hook, which re-queues
            # exactly the constraints blocked on the variable.
            self.unifier.assign(blocker, demoted)
            return True
        return False

    def _blocking_var(self, constraint: Constraint) -> UVar | None:
        if isinstance(constraint, Inst):
            head = self.unifier.zonk_head(constraint.lhs)
            if isinstance(head, UVar) and head.sort is Sort.U:
                return head
        if isinstance(constraint, Gen):
            head = self.unifier.zonk_head(constraint.rhs)
            if isinstance(head, UVar) and head.sort is Sort.U:
                return head
        return None

    def _zonk_constraint_for_report(self, constraint: Constraint) -> Constraint:
        from repro.core.constraints import subst_constraint  # local to avoid cycle

        # Reporting only: zonk the visible types for a readable error.
        if isinstance(constraint, Eq):
            return Eq(self.unifier.zonk(constraint.left), self.unifier.zonk(constraint.right))
        if isinstance(constraint, Inst):
            return Inst(
                self.unifier.zonk(constraint.lhs),
                constraint.sort,
                constraint.bits,
                tuple(self.unifier.zonk(argument) for argument in constraint.args),
                self.unifier.zonk(constraint.result),
            )
        if isinstance(constraint, Gen):
            return Gen(
                Scheme(
                    constraint.scheme.captured,
                    constraint.scheme.constraints,
                    self.unifier.zonk(constraint.scheme.type_),
                ),
                self.unifier.zonk(constraint.rhs),
                constraint.star,
            )
        return constraint

    # ------------------------------------------------------------------
    # One solving step
    # ------------------------------------------------------------------

    def _step(self, constraint: Constraint, scope: Scope) -> None:
        if isinstance(constraint, Eq):
            self.unifier.unify(
                constraint.left, constraint.right, scope.level, scope.resolver
            )
        elif isinstance(constraint, Inst):
            self._step_inst(constraint, scope)
        elif isinstance(constraint, Gen):
            self._step_gen(constraint, scope)
        elif isinstance(constraint, Quant):
            self._step_quant(constraint, scope)
        elif isinstance(constraint, ClassC):
            self._step_class(constraint, scope)
        else:
            raise TypeError(f"unknown constraint: {constraint!r}")

    # -- instantiation constraints (instϵ, inst→, inst∀l) ---------------

    def _step_inst(self, constraint: Inst, scope: Scope) -> None:
        tracing = self.tracer is not None and self.tracer.enabled
        lhs = self.unifier.zonk(constraint.lhs)
        if self.policy.deep and not isinstance(lhs, UVar):
            # Deep instantiation: hoist quantifiers buried to the right
            # of arrows before deciding which rule fires, so e.g.
            # ``Int -> ∀a. a -> a`` instantiates like ``∀a. Int -> a -> a``
            # (GHC ≤ 8.10's ``deeplyInstantiate``).
            lhs = deep_prenex(lhs, intern=self.unifier._intern)
        if isinstance(lhs, Forall):
            self._inst_forall_left(lhs, constraint, scope)
            return
        if not constraint.bits:
            # Rule instϵ: with no arguments left the types must be equal —
            # unless the left-hand side is an unbound unrestricted
            # variable, which might still be unified with a polytype
            # needing instantiation (Section 4.3.2, case 1).
            if isinstance(lhs, UVar) and lhs.sort is Sort.U:
                self._defer(
                    constraint,
                    scope,
                    "instantiation head is an unbound unrestricted variable — "
                    "it may still be unified with a polytype",
                )
                return
            if tracing:
                self.tracer.event("solver.rule", rule="instϵ", constraint=str(constraint))
            self.unifier.unify(lhs, constraint.result, scope.level, scope.resolver)
            return
        # Rule inst→: the head must be a function type taking the first
        # expected argument.  An unbound unrestricted head might become a
        # quantified type later, so it waits.
        if isinstance(lhs, UVar) and lhs.sort is Sort.U:
            self._defer(
                constraint,
                scope,
                "instantiation head is an unbound unrestricted variable — "
                "it may still become a quantified type",
            )
            return
        if tracing:
            self.tracer.event("solver.rule", rule="inst→", constraint=str(constraint))
        rest = self.unifier.fresh(Sort.U, scope.level)
        self.unifier.unify(
            lhs, fun(constraint.args[0], rest), scope.level, scope.resolver
        )
        self._record_inst_event(constraint, TakeArg())
        self.queue.append(
            (
                Inst(
                    rest,
                    constraint.sort,
                    constraint.bits[1:],
                    constraint.args[1:],
                    constraint.result,
                    constraint.evidence,
                ),
                scope,
            )
        )

    def _inst_forall_left(self, lhs: Forall, constraint: Inst, scope: Scope) -> None:
        """Rule inst∀l: freshen the binders at the sorts the guardedness
        classification ``▷s_ω`` permits (function freshen of Figure 8)."""
        assignment = classified_binders(
            lhs, constraint.sort, constraint.bits, tracer=self.tracer
        )
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "solver.rule",
                rule="inst∀l",
                constraint=str(constraint),
                sorts={
                    binder: assignment.get(binder, Sort.M).symbol
                    for binder in lhs.binders
                },
                bits="".join(str(bit) for bit in constraint.bits),
            )
        mapping: dict[str, Type] = {}
        fresh_vars: list[Type] = []
        for binder in lhs.binders:
            variable = self.unifier.fresh(assignment.get(binder, Sort.M), scope.level)
            mapping[binder] = variable
            fresh_vars.append(variable)
        self._record_inst_event(constraint, TypeArgs(fresh_vars))
        for predicate in lhs.context:
            self.queue.append(
                (
                    ClassC(
                        predicate.class_name,
                        tuple(subst_tvars(mapping, a) for a in predicate.args),
                    ),
                    scope,
                )
            )
        body = subst_tvars(mapping, lhs.body)
        self.queue.append(
            (
                Inst(
                    body,
                    constraint.sort,
                    constraint.bits,
                    constraint.args,
                    constraint.result,
                    constraint.evidence,
                ),
                scope,
            )
        )

    def _record_inst_event(self, constraint: Inst, event) -> None:
        evidence = constraint.evidence
        if evidence is None:
            return
        if isinstance(evidence, tuple) and evidence and evidence[0] == "release":
            if isinstance(event, TypeArgs):
                info = self.evidence.gen_info(evidence[1:])
                info.release_type_args.extend(event.types)
            return
        self.evidence.inst_trace(evidence).append(event)

    # -- generalisation constraints (inst⨅l, inst∀r) ---------------------

    def _step_gen(self, constraint: Gen, scope: Scope) -> None:
        rhs = self.unifier.zonk(constraint.rhs)
        if self.policy.deep and not isinstance(rhs, UVar):
            # Deep skolemisation: prenex the target before the Forall
            # check so nested quantifiers are skolemised too (GHC ≤
            # 8.10's ``deeplySkolemise``).
            rhs = deep_prenex(rhs, intern=self.unifier._intern)
        if isinstance(rhs, UVar) and rhs.sort is Sort.U:
            # The right-hand side might yet become polymorphic, in which
            # case we must skolemise (Section 4.3.2, case 2) — wait.
            self._defer(
                constraint,
                scope,
                "generalisation target is an unbound unrestricted variable — "
                "it may still become polymorphic, requiring skolemisation",
            )
            return
        if isinstance(rhs, Forall):
            # Rule inst∀r: skolemise and push the scheme under the binder.
            inner = scope.child()
            skolems = [
                self.unifier.fresh_skolem(binder, inner.level)
                for binder in rhs.binders
            ]
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.event(
                    "solver.rule",
                    rule="inst∀r",
                    constraint=str(constraint),
                    skolems=list(skolems),
                    level=inner.level,
                )
            renaming = {
                binder: TVar(skolem)
                for binder, skolem in zip(rhs.binders, skolems)
            }
            for predicate in rhs.context:
                inner.class_givens.append(
                    ClassC(
                        predicate.class_name,
                        tuple(subst_tvars(renaming, a) for a in predicate.args),
                    )
                )
            if constraint.evidence is not None:
                self.evidence.gen_info(constraint.evidence).skolems.extend(skolems)
            body = subst_tvars(renaming, rhs.body)
            self.queue.append(
                (
                    Gen(constraint.scheme, body, constraint.star, constraint.evidence),
                    inner,
                )
            )
            return
        # Rule inst⨅l: release.  Refresh the captured variables into the
        # current scope, queue the captured constraints, and require the
        # scheme type to instantiate (fully monomorphically) to the rhs.
        scheme = constraint.scheme
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "solver.rule",
                rule="inst⨅l",
                constraint=str(constraint),
                captured=len(scheme.captured),
            )
        for captured in scheme.captured:
            current = self.unifier.zonk_head(captured)
            if isinstance(current, UVar):
                refreshed = self.unifier.fresh(current.sort, scope.level)
                self.unifier.assign(current, refreshed)
        for inner_constraint in scheme.constraints:
            self.queue.append((inner_constraint, scope))
        evidence = None
        if constraint.evidence is not None:
            evidence = ("release",) + tuple(constraint.evidence)
        self.queue.append(
            (
                Inst(scheme.type_, Sort.M, (), (), rhs, evidence),
                scope,
            )
        )

    # -- quantification / implication constraints ------------------------

    def _step_quant(self, constraint: Quant, scope: Scope) -> None:
        inner = scope.child()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "solver.rule",
                rule="quant",
                level=inner.level,
                skolems=list(constraint.skolems),
                wanteds=len(constraint.wanteds),
            )
        for skolem in constraint.skolems:
            # Names were freshened at generation time; register depth.
            self.unifier.skolem_levels[skolem] = inner.level
        for existential in constraint.existentials:
            current = self.unifier.zonk_head(existential)
            if isinstance(current, UVar) and current.level < inner.level:
                refreshed = self.unifier.fresh(current.sort, inner.level)
                self.unifier.assign(current, refreshed)
        for given in constraint.givens:
            if isinstance(given, ClassC):
                inner.class_givens.append(given)
            elif isinstance(given, Eq):
                self._add_eq_given(inner, given)
            else:
                raise GIError(f"unsupported given constraint: {given}")
        for wanted in constraint.wanteds:
            self.queue.append((wanted, inner))

    def _add_eq_given(self, scope: Scope, given: Eq) -> None:
        """Record a local equality assumption (GADT branch refinement)."""
        left, right = given.left, given.right
        if isinstance(left, TVar):
            scope.eq_givens[left.name] = right
        elif isinstance(right, TVar):
            scope.eq_givens[right.name] = left
        else:
            # Decompose structural givens as far as possible.
            if (
                isinstance(left, TCon)
                and isinstance(right, TCon)
                and left.name == right.name
                and len(left.args) == len(right.args)
            ):
                for left_argument, right_argument in zip(left.args, right.args):
                    self._add_eq_given(scope, Eq(left_argument, right_argument))

    # -- class constraints (Appendix B) -----------------------------------

    def _step_class(self, constraint: ClassC, scope: Scope) -> None:
        tracing = self.tracer is not None and self.tracer.enabled
        arguments = tuple(self.unifier.zonk(argument) for argument in constraint.args)
        current = ClassC(constraint.class_name, arguments)
        # Rule dupl: discharge against an identical given.
        for given in scope.all_class_givens():
            given_args = tuple(self.unifier.zonk(argument) for argument in given.args)
            if given.class_name == current.class_name and all(
                alpha_equal(a, b) for a, b in zip(given_args, arguments)
            ):
                if tracing:
                    self.tracer.event(
                        "solver.rule", rule="dupl", class_constraint=str(current)
                    )
                return
        matched = self.instances.match(current)
        if matched is not None:
            if tracing:
                self.tracer.event(
                    "solver.rule",
                    rule="instance",
                    class_constraint=str(current),
                    subgoals=len(matched),
                )
            for subgoal in matched:
                self.queue.append((subgoal, scope))
            return
        if any(fuv(argument) for argument in arguments):
            # Not yet determined; try again later (or report as residual).
            self._defer(
                current,
                scope,
                "class constraint mentions undetermined unification variables",
            )
            return
        raise MissingInstanceError(current)

    # ------------------------------------------------------------------

    def _defer(self, constraint: Constraint, scope: Scope, reason: str) -> None:
        """Park a constraint that would require guessing (Section 4.3.2)."""
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.inc("solver.deferrals")
            self.tracer.event("solver.defer", constraint=str(constraint), reason=reason)
        entry = _Deferred(constraint, scope)
        self.deferred.append(entry)
        for variable in self._watch_vars(constraint):
            self._watches.setdefault(variable, []).append(entry)


class InstanceEnv:
    """A table of class instances ``∀ā. Q ⇒ D (T ā)`` (Appendix B).

    Instance heads are matched one-way (the wanted constraint must be an
    instance of the head); on success the instantiated context is returned
    as new wanted constraints.
    """

    def __init__(self) -> None:
        self._instances: list[tuple[ClassC, tuple[ClassC, ...], tuple[str, ...]]] = []
        self._classes: dict[str, int] = {}

    def declare_class(self, name: str, arity: int = 1) -> None:
        self._classes[name] = arity

    def add_instance(
        self,
        head: ClassC,
        context: tuple[ClassC, ...] = (),
        variables: tuple[str, ...] = (),
    ) -> None:
        """Register ``instance context => head`` with quantified variables."""
        self._instances.append((head, context, variables))

    def match(self, wanted: ClassC) -> list[ClassC] | None:
        for head, context, variables in self._instances:
            if head.class_name != wanted.class_name:
                continue
            if len(head.args) != len(wanted.args):
                continue
            mapping: dict[str, Type] = {}
            if all(
                _match_type(pattern, target, set(variables), mapping)
                for pattern, target in zip(head.args, wanted.args)
            ):
                return [
                    ClassC(
                        subgoal.class_name,
                        tuple(subst_tvars(mapping, a) for a in subgoal.args),
                    )
                    for subgoal in context
                ]
        return None


def _match_type(pattern: Type, target: Type, variables: set[str], mapping: dict[str, Type]) -> bool:
    """One-way matching of an instance-head pattern against a type."""
    if isinstance(pattern, TVar) and pattern.name in variables:
        bound = mapping.get(pattern.name)
        if bound is None:
            mapping[pattern.name] = target
            return True
        return alpha_equal(bound, target)
    if isinstance(pattern, TVar) and isinstance(target, TVar):
        return pattern.name == target.name
    if isinstance(pattern, TCon) and isinstance(target, TCon):
        if pattern.name != target.name or len(pattern.args) != len(target.args):
            return False
        return all(
            _match_type(p, t, variables, mapping)
            for p, t in zip(pattern.args, target.args)
        )
    if isinstance(pattern, Forall) and isinstance(target, Forall):
        return alpha_equal(pattern, target)
    return False
