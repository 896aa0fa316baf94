"""Golden file for the six baseline backends' outcomes.

``results/backend_outcomes.txt`` holds one line per (system, term) over
the Figure 2 rows, every ``tests/corpus`` entry and a 300-term seeded
fuzz draw: the status, the error class, the error detail and the
canonically renamed type.  Any change to a baseline's verdict, type or
error text shows up as a byte-level diff.

Regenerate (only when a change to the output is intended):

    PYTHONPATH=src python tests/test_backend_outcomes.py
"""

from __future__ import annotations

from pathlib import Path

from repro.baselines import SYSTEMS
from repro.conformance import load_corpus
from repro.core.types import rename_canonical
from repro.evalsuite.figure2 import FIGURE2, figure2_env
from repro.evalsuite.workloads import fuzz_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "results" / "backend_outcomes.txt"
CORPUS_DIR = Path(__file__).resolve().parent / "corpus"

BASELINES = ("HM", "HMF", "HMF-N", "RankN", "FreezeML", "QuickLook")
FUZZ_COUNT = 300
FUZZ_SEED = 0


def _terms():
    for example in FIGURE2:
        yield f"figure2:{example.key}", example.term
    for entry in load_corpus(CORPUS_DIR):
        yield f"corpus:{entry.path.stem}", entry.term
    for index, term in enumerate(fuzz_corpus(FUZZ_COUNT, seed=FUZZ_SEED)):
        yield f"fuzz:{index:03d}", term


def _field(value) -> str:
    if value is None:
        return "-"
    return str(value).replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def render_outcomes() -> str:
    env = figure2_env()
    terms = list(_terms())
    lines = []
    for name in BASELINES:
        system = SYSTEMS[name]
        for label, term in terms:
            outcome = system.run(term, env)
            type_ = None if outcome.type_ is None else rename_canonical(outcome.type_)
            lines.append(
                "\t".join(
                    (
                        name,
                        label,
                        outcome.status.value,
                        _field(outcome.error),
                        _field(outcome.detail),
                        _field(type_),
                    )
                )
            )
    return "\n".join(lines) + "\n"


def test_backend_outcomes_match_golden():
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = render_outcomes()
    if actual != expected:
        import difflib

        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                "golden",
                "now",
                n=0,
            )
        )
        raise AssertionError(f"{GOLDEN.name} differs:\n{diff[:4000]}")


if __name__ == "__main__":
    GOLDEN.write_text(render_outcomes(), encoding="utf-8")
