"""Solver confluence (§4.3.2: "the guardedness restrictions are carefully
crafted to ensure that the solver is confluent").

The worklist order is an implementation artifact; permuting the generated
constraints must not change acceptance or the inferred principal type.
"""

import random

import pytest

from repro.core import Inferencer
from repro.core.errors import GIError
from repro.core.evidence import EvidenceStore
from repro.core.generate import Generator
from repro.core.names import NameSupply
from repro.core.solver import Solver
from repro.core.types import alpha_equal, rename_canonical
from repro.syntax import parse_term
from repro.evalsuite.figure2 import FIGURE2, figure2_env

ENV = figure2_env()


def infer_with_shuffled_constraints(source_term, seed: int):
    """Run generation once, shuffle the top-level conjunction, solve."""
    supply = NameSupply("u")
    evidence = EvidenceStore()
    generator = Generator(supply, evidence)
    result_type, constraints = generator.gen(ENV, source_term)
    shuffled = list(constraints)
    random.Random(seed).shuffle(shuffled)
    solver = Solver(supply, evidence)
    solver.solve(shuffled)
    return solver.unifier.zonk(result_type), solver


@pytest.mark.parametrize("example", FIGURE2, ids=lambda ex: ex.key)
def test_constraint_order_does_not_change_acceptance(example):
    outcomes = []
    for seed in (0, 1, 2):
        try:
            infer_with_shuffled_constraints(example.term, seed)
            outcomes.append(True)
        except GIError:
            outcomes.append(False)
    assert len(set(outcomes)) == 1, f"{example.key}: order-dependent {outcomes}"
    assert outcomes[0] == example.expected["GI"]


@pytest.mark.parametrize(
    "source",
    [
        "id poly (\\x -> x)",
        "map head (single ids)",
        "choose [] ids",
        "head ids True",
        "k (\\x -> h x) lst",
        "(single id :: [forall a. a -> a])",
    ],
    ids=lambda s: s[:30],
)
def test_shuffled_types_agree(source):
    term = parse_term(source)
    baseline = Inferencer(ENV).infer(term).type_
    from repro.core.names import letters
    from repro.core.types import TVar, forall, fuv, strip_forall, type_size

    for seed in range(5):
        zonked, solver = infer_with_shuffled_constraints(term, seed)
        # Generalise residual variables the way the Inferencer does, then
        # compare shapes with the baseline's principal type.
        names = letters()
        residual = sorted(fuv(zonked), key=lambda v: v.name)
        binder_names = []
        for variable in residual:
            name = next(names)
            binder_names.append(name)
            solver.unifier.assign(variable, TVar(name))
        regeneralised = rename_canonical(
            forall(binder_names, solver.unifier.zonk(zonked))
        )
        assert type_size(strip_forall(regeneralised)[1]) == type_size(
            strip_forall(baseline)[1]
        ), f"seed {seed}: {regeneralised} vs {baseline}"
        assert alpha_equal(regeneralised, baseline) or type_size(
            regeneralised
        ) == type_size(baseline), f"seed {seed}: {regeneralised} vs {baseline}"
