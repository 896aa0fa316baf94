"""Seeded inputs for every workload, with the outputs they must produce.

Everything here runs before timing.  The program under test only ever
receives the generated *source text*; the expectations ride along so
:mod:`checks` can judge every answer.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FUZZ_TERMS = 600
"""Size of the seeded draw from the conformance generator (about 3.5 s
to generate).  The heaviest tenth of the items, where ``item_tail_ms``
sits, are fuzz terms, so a large draw keeps the tail from depending on
which few heavy terms one seed happens to draw."""

PACKAGES = 200
"""Synthetic Stackage packages per seed (Section 5 study)."""

SYNTHETIC = {"chains": 4, "depth": 25}
"""The 102-binding synthetic module: four chains of 25 plus two."""

# Section 5 templates GI rejects as written: the SYB signatures (a forall
# right of an arrow) and the variance call sites that need η-expansion.
REJECTED_TEMPLATES = ("gmapQ", "extQ", "flipped", "variance", "chosen")

# (generator, smallest and largest size): four sizes of each, so item
# latencies spread over 10-100 ms without large gaps.
CHAIN_SIZES = (
    ("application_chain", (40, 100)),
    ("impredicative_pipeline", (40, 90)),
    ("wide_application", (25, 60)),
    ("deep_chain_term", (150, 400)),
    ("let_chain", (100, 250)),
    ("defaulting_fan", (15, 40)),
    ("lambda_tower", (80, 200)),
)


@dataclass(frozen=True)
class Item:
    """One expression to infer, with what the paper or construction says
    about it: ``verdict`` (accept/reject, ``None`` when unstated) and the
    expected type as source text (``None`` when unstated)."""

    name: str
    source: str
    verdict: bool | None = None
    type_text: str | None = None
    fuzz: bool = False


# ----------------------------------------------------------------------
# corpus and serve


def corpus_items(seed: int) -> list[Item]:
    """Figure 2, the checked-in ``tests/corpus`` files and a seeded
    conformance-generator draw, shuffled by the seed."""
    from repro.conformance.corpus import load_corpus
    from repro.conformance.generator import TermGenerator
    from repro.evalsuite.figure2 import FIGURE2, figure2_env
    from repro.syntax import parse_term, pretty_term

    items = [
        Item(f"fig2/{example.key}", example.source, example.expected["GI"], example.gi_type)
        for example in FIGURE2
    ]
    for entry in load_corpus(ROOT / "tests" / "corpus"):
        mode = entry.metadata.get("mode")
        # A policy-flip file is rejected by the default policy and
        # accepted by the policy its header names (checked separately).
        verdict = {"well-typed": True, "policy-flip": False}.get(mode)
        items.append(Item(f"corpus/{entry.path.stem}", entry.source, verdict))
    generator = TermGenerator(figure2_env())
    for case in generator.cases(seed, FUZZ_TERMS):
        source = pretty_term(case.term)
        if parse_term(source) == case.term:
            items.append(Item(f"fuzz/{seed}:{case.index}", source, fuzz=True))
    random.Random(seed).shuffle(items)
    return items


def policy_flips() -> list[tuple[str, str]]:
    """``(source, policy)`` for every corpus file accepted only under a
    non-default policy."""
    from repro.conformance.corpus import load_corpus

    return [
        (entry.source, entry.metadata["policy"])
        for entry in load_corpus(ROOT / "tests" / "corpus")
        if entry.metadata.get("mode") == "policy-flip"
    ]


# ----------------------------------------------------------------------
# chains


def _chain_type(generator: str, size: int) -> str:
    """The closed-form principal type of one chain term, built as a type
    and rendered canonically (too deep to parse back for comparison)."""
    from repro.core.types import INT, TVar, forall, fun, list_of, rename_canonical, tuple_of

    identity = forall(["a"], fun(TVar("a"), TVar("a")))
    result = TVar("r")
    if generator == "impredicative_pipeline":
        type_ = list_of(identity)
    elif generator == "wide_application":
        type_ = INT
        for _ in range(size):
            type_ = tuple_of(INT, type_)
    elif generator == "deep_chain_term":
        spine = result
        for _ in range(size):
            spine = fun(INT, spine)
        type_ = forall(["r"], fun(spine, result))
    elif generator == "defaulting_fan":
        names = [f"t{index}" for index in range(1, size + 1)]
        type_ = TVar(names[-1])
        for name in reversed(names[:-1]):
            type_ = tuple_of(TVar(name), type_)
        for name in reversed(names):
            type_ = fun(fun(INT, TVar(name)), type_)
        type_ = forall(names, type_)
    else:  # application_chain, let_chain, lambda_tower
        type_ = INT
    return str(rename_canonical(type_))


def chain_items(seed: int) -> list[Item]:
    """Every ``evalsuite.workloads`` chain generator at four sizes, each
    jittered by up to 2% by the seed, as source text."""
    from repro.evalsuite import workloads
    from repro.syntax import pretty_term

    rng = random.Random(seed)
    items = []
    for generator, (smallest, largest) in CHAIN_SIZES:
        for step in range(4):
            base = smallest + (largest - smallest) * step // 3
            size = base + rng.randint(-base // 50, base // 50)
            source = pretty_term(getattr(workloads, generator)(size))
            items.append(Item(f"{generator}({size})", source, True, _chain_type(generator, size)))
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# modules


@dataclass(frozen=True)
class ModuleInput:
    """One module's source and the outcome expected for each binding:
    ``{name: type text}`` for accepted ones, ``None`` for rejected."""

    name: str
    source: str
    expected: dict[str, str | None]


def synthetic_expected(bool_leaves: frozenset[int] = frozenset()) -> dict[str, str]:
    """Binding types of ``synthetic_module_source`` by construction:
    ``single`` wraps the previous type in a list, ``pair`` doubles it,
    ``choose`` keeps it.  Chains in ``bool_leaves`` start from ``Bool``."""
    from repro.evalsuite.modules_corpus import _STEP_SHAPES

    expected = {}
    for chain in range(SYNTHETIC["chains"]):
        current = "Bool" if chain in bool_leaves else "Int"
        expected[f"c{chain}_0"] = current
        for step in range(1, SYNTHETIC["depth"]):
            shape = _STEP_SHAPES[(chain + step) % len(_STEP_SHAPES)]
            if shape.startswith("single"):
                current = f"[{current}]"
            elif shape.startswith("pair"):
                current = f"({current}, {current})"
            expected[f"c{chain}_{step}"] = current
    expected["polyStore"] = "[forall a. a -> a]"
    expected["runner"] = "Int"
    return expected


def synthetic_module(bool_leaves: frozenset[int] = frozenset()) -> ModuleInput:
    """The synthetic module with the leaves of ``bool_leaves`` edited
    from ``Int``/``c`` to ``Bool``/``True``."""
    from repro.evalsuite.modules_corpus import synthetic_module_source

    source = synthetic_module_source(**SYNTHETIC)
    for chain in bool_leaves:
        leaf = f"c{chain}_0 :: Int\nc{chain}_0 = {chain}"
        source = source.replace(leaf, f"c{chain}_0 :: Bool\nc{chain}_0 = True")
    label = "synthetic" + "".join(f"+{chain}" for chain in sorted(bool_leaves))
    return ModuleInput(label, source, synthetic_expected(bool_leaves))


def package_modules(seed: int) -> list[ModuleInput]:
    """The seed's synthetic Stackage packages as module files."""
    from repro.evalsuite.modules_corpus import package_module_source
    from repro.evalsuite.stackage import generate_corpus

    modules = []
    for package in generate_corpus(seed, PACKAGES):
        expected = {}
        for declaration in package.declarations:
            template = declaration.name.removeprefix("th_").rsplit("_", 1)[0]
            rejected = template in REJECTED_TEMPLATES
            expected[declaration.name] = None if rejected else declaration.signature
        modules.append(ModuleInput(package.name, package_module_source(package), expected))
    return modules


def edit_schedule(seed: int) -> list[int]:
    """Which synthetic chain each leaf edit flips, in order: every chain
    twice, so one pass of edits leaves the module as it found it."""
    schedule = [chain for chain in range(SYNTHETIC["chains"]) for _ in range(2)]
    random.Random(seed).shuffle(schedule)
    return schedule


def require_program() -> None:
    """Exit with status 2 unless the program's sources are present."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
