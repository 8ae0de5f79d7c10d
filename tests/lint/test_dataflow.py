"""Mutation tests for the flow-aware lint layer (REPRO007, REPRO008).

Same discipline as ``tests/lint/test_rules.py``: every rule gets a
fixture violating exactly it (asserted at the expected line/column) and
a clean twin on which nothing fires.
"""

import ast
import textwrap

from repro.lint.dataflow import (
    single_assignments,
    tainted_seed_expr,
    worker_entry_points,
    worker_state_writes,
)
from repro.lint.rules import RULES_BY_CODE, ModuleSource


def module(path, source):
    source = textwrap.dedent(source)
    return ModuleSource(path, source, ast.parse(source))


def run_file(code, source, path="fixture.py"):
    rule = RULES_BY_CODE[code]
    return sorted(rule.check(module(path, source)))


# ---------------------------------------------------------------------------
# REPRO007 — cross-process worker race hazards
# ---------------------------------------------------------------------------


class TestWorkerRaceRule:
    def test_mutate_call_from_worker_flagged(self):
        findings = run_file(
            "REPRO007",
            """
            RESULTS = []

            def worker(x):
                RESULTS.append(x)
                return x

            def run(xs):
                return parallel_map(worker, xs)
            """,
        )
        assert [f.code for f in findings] == ["REPRO007"]
        assert [(f.line, f.col) for f in findings] == [(5, 5)]
        assert "worker" in findings[0].message

    def test_global_rebind_flagged(self):
        findings = run_file(
            "REPRO007",
            """
            COUNT = 0

            def worker(x):
                global COUNT
                COUNT = COUNT + 1
                return x

            def run(xs):
                return parallel_map(worker, xs)
            """,
        )
        assert [f.code for f in findings] == ["REPRO007"]
        assert [(f.line, f.col) for f in findings] == [(6, 5)]

    def test_subscript_write_flagged(self):
        findings = run_file(
            "REPRO007",
            """
            CACHE = {}

            def worker(x):
                CACHE[x] = 1
                return x

            def run(pool, xs):
                return pool.imap(worker, xs)
            """,
        )
        assert [f.code for f in findings] == ["REPRO007"]
        assert [(f.line, f.col) for f in findings] == [(5, 5)]

    def test_transitive_write_through_helper_flagged(self):
        findings = run_file(
            "REPRO007",
            """
            SEEN = set()

            def note(x):
                SEEN.add(x)

            def worker(x):
                note(x)
                return x

            def run(xs):
                return parallel_map(worker, xs)
            """,
        )
        assert [f.code for f in findings] == ["REPRO007"]
        assert [(f.line, f.col) for f in findings] == [(5, 5)]

    def test_nonlocal_closure_write_flagged(self):
        findings = run_file(
            "REPRO007",
            """
            def worker(total):
                def bump():
                    nonlocal total
                    total = total + 1
                bump()
                return total

            def run(xs):
                return parallel_map(worker, xs)
            """,
        )
        assert [f.code for f in findings] == ["REPRO007"]
        assert [(f.line, f.col) for f in findings] == [(5, 9)]

    def test_partial_wrapped_worker_flagged(self):
        findings = run_file(
            "REPRO007",
            """
            import functools

            TALLY = {}

            def worker(opts, x):
                TALLY[x] = opts
                return x

            def run(xs, opts):
                return parallel_map(functools.partial(worker, opts), xs)
            """,
        )
        assert [f.code for f in findings] == ["REPRO007"]

    def test_clean_twin_local_state_only(self):
        assert run_file(
            "REPRO007",
            """
            def worker(x):
                results = []
                results.append(x)
                return results

            def run(xs):
                return parallel_map(worker, xs)
            """,
        ) == []

    def test_clean_cache_counter_seam(self):
        assert run_file(
            "REPRO007",
            """
            _COUNTS = cache_counter("sweep")

            def worker(x):
                _COUNTS.update(hits=1)
                return x

            def run(xs):
                return parallel_map(worker, xs)
            """,
        ) == []

    def test_builtin_map_is_not_a_fan_out(self):
        # Bare map() runs in-process; module state is shared for real.
        assert run_file(
            "REPRO007",
            """
            RESULTS = []

            def worker(x):
                RESULTS.append(x)
                return x

            def run(xs):
                return list(map(worker, xs))
            """,
        ) == []

    def test_writes_outside_worker_closure_not_flagged(self):
        assert run_file(
            "REPRO007",
            """
            RESULTS = []

            def worker(x):
                return x

            def collect(batch):
                RESULTS.extend(batch)

            def run(xs):
                out = parallel_map(worker, xs)
                collect(out)
                return out
            """,
        ) == []

    def test_entry_point_helpers(self):
        tree = ast.parse(
            textwrap.dedent(
                """
                def worker(x):
                    return x

                def run(pool, xs):
                    pool.imap_unordered(worker, xs)
                """
            )
        )
        assert sorted(worker_entry_points(tree)) == ["worker"]
        assert worker_state_writes(tree) == []


# ---------------------------------------------------------------------------
# REPRO008 — seed-derivation discipline
# ---------------------------------------------------------------------------


class TestSeedDisciplineRule:
    def test_arithmetic_seed_into_random_flagged(self):
        findings = run_file(
            "REPRO008",
            """
            import random

            def draw(seed, i):
                return random.Random(seed + i).random()
            """,
        )
        assert [f.code for f in findings] == ["REPRO008"]
        assert [(f.line, f.col) for f in findings] == [(5, 26)]
        assert "derive_seed" in findings[0].message

    def test_seed_kwarg_mixing_flagged(self):
        findings = run_file(
            "REPRO008",
            """
            def shard(spec, k):
                return run_spec(spec, seed=spec.seed * 31 + k)
            """,
        )
        assert [f.code for f in findings] == ["REPRO008"]
        assert [(f.line, f.col) for f in findings] == [(3, 32)]

    def test_hash_seed_flagged(self):
        findings = run_file(
            "REPRO008",
            """
            import random

            def rng_for(name):
                return random.Random(hash(name))
            """,
        )
        assert [f.code for f in findings] == ["REPRO008"]
        assert "hash()" in findings[0].message

    def test_one_level_taint_through_local_flagged(self):
        findings = run_file(
            "REPRO008",
            """
            import random

            def draw(seed, i):
                mixed = seed + i
                return random.Random(mixed).random()
            """,
        )
        assert [f.code for f in findings] == ["REPRO008"]
        assert [(f.line, f.col) for f in findings] == [(6, 26)]

    def test_clean_twin_derive_seed(self):
        assert run_file(
            "REPRO008",
            """
            import random

            def draw(seed, i):
                rng = random.Random(derive_seed(seed, i))
                other = random.Random(seed)
                return run_spec(None, seed=derive_seed(seed, "shard", i))
            """,
        ) == []

    def test_reassigned_local_is_not_chased(self):
        # Two assignments make the name's meaning flow-dependent; the
        # one-level chase stays honest and silent.
        assert run_file(
            "REPRO008",
            """
            import random

            def draw(seed, i, flip):
                s = derive_seed(seed, i)
                if flip:
                    s = derive_seed(seed, i, "flip")
                return random.Random(s).random()
            """,
        ) == []

    def test_pragma_suppression_via_engine(self):
        source = textwrap.dedent(
            """
            import random

            def draw(seed, i):
                return random.Random(seed + i).random()  # repro-lint: disable=REPRO008
            """
        )
        import os
        import tempfile

        from repro.lint.engine import lint_paths

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fixture.py")
            with open(path, "w", encoding="utf-8") as fp:
                fp.write(source)
            result = lint_paths([tmp])
        assert result.findings == []
        assert result.suppressed == 1

    def test_taint_helpers(self):
        expr = ast.parse("seed + 1", mode="eval").body
        assert tainted_seed_expr(expr, {}) == "mixing"
        call = ast.parse("hash(x)", mode="eval").body
        assert tainted_seed_expr(call, {}) == "hash"
        ok = ast.parse("derive_seed(seed, 1)", mode="eval").body
        assert tainted_seed_expr(ok, {}) is None
        scope = ast.parse("a = 1\nb = 2\nb = 3\n")
        assert set(single_assignments(scope)) == {"a"}
