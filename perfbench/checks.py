"""Output checks: every answer the program gives is judged here.

A failed operation is a wrong verdict, a wrong type, an
``InternalError``, budget exhaustion or a serve reply that is neither a
correct answer nor a well-delimited rejection.  Judging happens after
each timed call returns, outside the timed interval.
"""

from __future__ import annotations

FATAL = ("InternalError", "BudgetExceededError")


class Judge:
    """Accumulates failures over one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self._fuzz: dict[str, tuple] = {}
        self._types: dict[tuple[str, str], bool] = {}

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def same_type(self, expected: str, actual: str) -> bool:
        """α-equivalence of two types given as source text (memoised:
        the same pairs recur on every pass)."""
        key = (expected, actual)
        if key not in self._types:
            if expected == actual:
                self._types[key] = True
            else:
                from repro.core.types import alpha_equal, rename_canonical
                from repro.syntax import parse_type

                try:
                    self._types[key] = alpha_equal(
                        rename_canonical(parse_type(expected)),
                        rename_canonical(parse_type(actual)),
                    )
                except RecursionError:  # too deep to parse: text must match
                    self._types[key] = False
        return self._types[key]

    def expression(self, item, outcome: tuple[str, str]) -> None:
        """Judge one inference: ``outcome`` is ``("ok", type text)`` or
        ``("error", error class)``."""
        self.attempted += 1
        status, detail = outcome
        if status == "error" and detail in FATAL:
            self.fail(f"{item.name}: {detail}")
        elif item.fuzz:
            # No stated verdict: the answer must at least be stable, and
            # accepted terms are re-checked in System F after timing.
            first = self._fuzz.setdefault(item.name, outcome)
            if first != outcome:
                self.fail(f"{item.name}: {outcome} after {first}")
        elif item.verdict is not None and (status == "ok") != item.verdict:
            self.fail(f"{item.name}: verdict {outcome}, paper says {item.verdict}")
        elif item.type_text is not None and not self.same_type(item.type_text, detail):
            self.fail(f"{item.name}: type {detail}, expected {item.type_text}")

    def module(self, module, result, hits: int | None = None) -> None:
        """Judge one module check against the per-binding expectations;
        ``hits`` is the cache-hit count the check must report."""
        self.attempted += len(result.reports)
        for report in result.reports:
            if report.name not in module.expected:
                self.fail(f"{module.name}/{report.name}: unexpected binding")
                continue
            expected = module.expected[report.name]
            if report.ok != (expected is not None):
                self.fail(f"{module.name}/{report.name}: ok={report.ok}")
            elif not report.ok and report.diagnostic.error_class in FATAL:
                self.fail(f"{module.name}/{report.name}: {report.diagnostic.error_class}")
            elif report.ok and not self.same_type(expected, report.type_text):
                self.fail(f"{module.name}/{report.name}: {report.type_text} != {expected}")
        if len(result.reports) != len(module.expected):
            self.fail(f"{module.name}: {len(result.reports)} bindings")
        if hits is not None and result.stats.cache_hits != hits:
            self.fail(f"{module.name}: {result.stats.cache_hits} cache hits, expected {hits}")

    def accepted_fuzz_sources(self, items) -> list[str]:
        return [
            item.source for item in items
            if item.fuzz and self._fuzz.get(item.name, ("",))[0] == "ok"
        ]

    def systemf(self, sources: list[str], env) -> None:
        """Theorem C.1 on accepted fuzz terms: the elaboration type-checks
        in the independent System F checker at the inferred type."""
        from repro.core.errors import GIError
        from repro.core.infer import Inferencer
        from repro.core.types import alpha_equal, rename_canonical
        from repro.syntax import parse_term
        from repro.systemf import elaborate_result, typecheck

        inferencer = Inferencer(env)
        for source in sources:
            try:
                result = inferencer.infer(parse_term(source))
                ftype = typecheck(elaborate_result(result), env)
            except GIError as error:
                self.fail(f"systemf: {source}: {type(error).__name__}: {error}")
                continue
            if not alpha_equal(rename_canonical(ftype), result.type_):
                self.fail(f"systemf: {source}: {ftype} vs {result.type_}")

    def policy_flips(self, flips: list[tuple[str, str]], env) -> None:
        """Each policy-flip corpus file is accepted by the policy its
        header names (the default-policy rejection is judged in timing)."""
        from repro.core.errors import GIError
        from repro.core.infer import Inferencer, InferOptions
        from repro.core.policy import parse_policy
        from repro.syntax import parse_term

        for source, policy in flips:
            options = InferOptions(policy=parse_policy(policy))
            try:
                Inferencer(env, options=options).infer(parse_term(source))
            except GIError as error:
                self.fail(f"policy {policy}: {source}: {type(error).__name__}")
