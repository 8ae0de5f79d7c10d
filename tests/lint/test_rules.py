"""Mutation tests for the AST rules (REPRO001-REPRO003, REPRO005).

Same discipline as ``tests/faults/test_oracles_catch_violations.py``:
for every rule there is a fixture violating *exactly* that rule — the
test asserts the code fires at the expected line/column and that every
other rule stays silent — and a clean twin on which nothing fires.
"""

import ast
import textwrap

from repro.lint.rules import (
    ALL_RULES,
    RULES_BY_CODE,
    WALL_CLOCK_ALLOWLIST,
    ModuleSource,
    rule_codes,
)


def run_rules(source):
    source = textwrap.dedent(source)
    module = ModuleSource("fixture.py", source, ast.parse(source))
    findings = []
    for rule in ALL_RULES:
        findings.extend(rule.check(module))
    return sorted(findings)


def assert_only(findings, code, positions):
    """Exactly ``positions`` findings, all carrying ``code``."""
    assert [f.code for f in findings] == [code] * len(positions), findings
    assert [(f.line, f.col) for f in findings] == positions, findings


class TestCatalog:
    def test_six_rules_with_stable_codes(self):
        assert rule_codes() == [
            "REPRO001",
            "REPRO002",
            "REPRO003",
            "REPRO005",
            "REPRO007",
            "REPRO008",
        ]
        assert set(RULES_BY_CODE) == set(rule_codes())


class TestWallClock:
    def test_call_flagged(self):
        findings = run_rules(
            """
            import time
            t = time.time()
            """
        )
        assert_only(findings, "REPRO001", [(3, 5)])

    def test_aliased_reference_flagged(self):
        findings = run_rules(
            """
            from time import time as now
            t = now
            """
        )
        assert_only(findings, "REPRO001", [(3, 5)])

    def test_datetime_now_flagged(self):
        findings = run_rules(
            """
            import datetime
            stamp = datetime.datetime.now()
            """
        )
        assert_only(findings, "REPRO001", [(3, 9)])

    def test_clean_twin_perf_counter(self):
        # perf_counter is timing-only; its output never reaches a
        # canonical trace, so it is deliberately not wall-clock.
        assert run_rules(
            """
            import time
            t0 = time.perf_counter()
            elapsed = time.perf_counter() - t0
            """
        ) == []

    def test_allowlisted_path_is_silent(self):
        source = "import time\n\n\ndef make(now_fn=time.time):\n    return now_fn\n"
        module = ModuleSource(
            "src/repro/obs/schema.py", source, ast.parse(source)
        )
        rule = RULES_BY_CODE["REPRO001"]
        assert list(rule.check(module)) == []
        # The identical source outside the allowlisted file is flagged.
        other = ModuleSource("src/repro/obs/other.py", source, ast.parse(source))
        assert [f.code for f in rule.check(other)] == ["REPRO001"]

    def test_both_stamp_modules_allowlisted(self):
        # The two persisted-document stamps (bench artifact, profile
        # summary) share the injectable now_fn seam, and nothing else is
        # sanctioned.
        assert sorted(WALL_CLOCK_ALLOWLIST) == [
            "repro/obs/prof.py",
            "repro/obs/schema.py",
        ]
        source = "import time\n\n\ndef make(now_fn=time.time):\n    return now_fn\n"
        rule = RULES_BY_CODE["REPRO001"]
        for path in ("src/repro/obs/schema.py", "src/repro/obs/prof.py"):
            module = ModuleSource(path, source, ast.parse(source))
            assert list(rule.check(module)) == [], path

    def test_allowlist_does_not_cover_other_clock_names(self):
        # Only time.time is sanctioned in the stamp modules; datetime
        # reads there are still findings.
        source = "import datetime\n\nstamp = datetime.datetime.now()\n"
        module = ModuleSource(
            "src/repro/obs/prof.py", source, ast.parse(source)
        )
        rule = RULES_BY_CODE["REPRO001"]
        assert [f.code for f in rule.check(module)] == ["REPRO001"]


class TestUnseededRandom:
    def test_global_rng_call_flagged(self):
        findings = run_rules(
            """
            import random
            pick = random.choice([1, 2])
            """
        )
        assert_only(findings, "REPRO002", [(3, 8)])

    def test_unseeded_random_instance_flagged(self):
        findings = run_rules(
            """
            import random
            rng = random.Random()
            """
        )
        assert_only(findings, "REPRO002", [(3, 7)])

    def test_system_random_flagged(self):
        findings = run_rules(
            """
            import random
            rng = random.SystemRandom(1)
            """
        )
        assert_only(findings, "REPRO002", [(3, 7)])

    def test_clean_twin_seeded(self):
        assert run_rules(
            """
            import random
            rng = random.Random(42)
            rng2 = random.Random(derive_seed(7, "policy"))
            pick = rng.choice([1, 2])
            """
        ) == []

    def test_randbytes_flagged(self):
        findings = run_rules(
            """
            import random
            salt = random.randbytes(8)
            """
        )
        assert_only(findings, "REPRO002", [(3, 8)])

    def test_os_urandom_flagged(self):
        findings = run_rules(
            """
            import os
            salt = os.urandom(16)
            """
        )
        assert_only(findings, "REPRO002", [(3, 8)])

    def test_secrets_flagged(self):
        findings = run_rules(
            """
            import secrets
            token = secrets.token_hex(8)
            """
        )
        assert_only(findings, "REPRO002", [(3, 9)])

    def test_numpy_global_rng_flagged(self):
        findings = run_rules(
            """
            import numpy
            draw = numpy.random.uniform(0, 1)
            """
        )
        assert_only(findings, "REPRO002", [(3, 8)])

    def test_numpy_aliased_global_seed_flagged(self):
        # np.random.seed mutates hidden module-global state; even the
        # "seeding" spelling is a finding — use default_rng(seed).
        findings = run_rules(
            """
            import numpy as np
            np.random.seed(42)
            """
        )
        assert_only(findings, "REPRO002", [(3, 1)])

    def test_seedless_default_rng_flagged(self):
        findings = run_rules(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        assert_only(findings, "REPRO002", [(3, 7)])

    def test_clean_twin_seeded_numpy(self):
        assert run_rules(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            rng2 = np.random.default_rng(seed=derive_seed(7, "noise"))
            legacy = np.random.RandomState(7)
            """
        ) == []


class TestUnorderedIteration:
    def test_set_into_json_flagged(self):
        findings = run_rules(
            """
            import json
            def f(x):
                return json.dumps(set(x))
            """
        )
        assert_only(findings, "REPRO003", [(4, 23)])

    def test_keys_loop_into_sink_flagged(self):
        findings = run_rules(
            """
            import json
            def g(d, fp):
                for k in d.keys():
                    json.dump(k, fp)
            """
        )
        assert_only(findings, "REPRO003", [(4, 14)])

    def test_clean_twin_sorted(self):
        assert run_rules(
            """
            import json
            def f(x, d, fp):
                out = json.dumps(sorted(set(x)))
                for k in sorted(d.keys()):
                    json.dump(k, fp)
                return out
            """
        ) == []

    def test_unordered_away_from_sinks_is_fine(self):
        assert run_rules(
            """
            def f(xs):
                seen = set(xs)
                return {x for x in xs if x in seen}
            """
        ) == []


class TestMutableDefault:
    def test_automaton_init_list_default_flagged(self):
        findings = run_rules(
            """
            class MyAutomaton(Automaton):
                def __init__(self, peers=[]):
                    self.peers = peers
            """
        )
        assert_only(findings, "REPRO005", [(3, 30)])

    def test_kwonly_dict_default_flagged(self):
        findings = run_rules(
            """
            class MyAFD(AFD):
                def __init__(self, *, table={}):
                    self.table = table
            """
        )
        assert_only(findings, "REPRO005", [(3, 33)])

    def test_clean_twin_immutable_defaults(self):
        assert run_rules(
            """
            class MyAutomaton(Automaton):
                def __init__(self, peers=(), table=None):
                    self.peers = peers
                    self.table = dict(table or {})
            """
        ) == []

    def test_non_automaton_class_not_flagged(self):
        # The rule is scoped to automaton constructors, where factory
        # reuse across workers makes sharing lethal.
        assert run_rules(
            """
            class Helper:
                def __init__(self, xs=[]):
                    self.xs = xs
            """
        ) == []
