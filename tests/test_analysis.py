"""Tests for the static contract checker (``repro.analysis``).

Three layers of coverage:

- per-rule fixture projects (a tiny synthetic tree in ``tmp_path`` with
  one good and one bad file per rule) prove each rule fires on the
  violation and stays quiet on the idiomatic form;
- the repo self-check runs the full rule set over this repository and
  asserts it comes back clean modulo the committed baseline — the same
  gate ``make lint-static`` and CI enforce;
- baseline and CLI round trips (add -> suppress -> expire/prune).
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    Finding,
    available_rules,
    run_analysis,
)
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Minimal stand-ins for the two declared catalogs, so fixture projects
#: can exercise fault-site / env-discipline without the real modules.
FAULTS_STUB = """
KNOWN_SITES = (
    "good.site",
)
"""

ENV_STUB = """
ENV_CATALOG = {
    "REPRO_DECLARED": None,
}
"""


def write_tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def findings_of(tmp_path, files, rules, paths=("src", "tests")):
    write_tree(tmp_path, files)
    report = run_analysis(tmp_path, paths=paths, rules=rules)
    return report.new


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------
class TestDeterminismRule:
    def test_flags_unseeded_and_wall_clock(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/bad.py": """
                import time
                import numpy as np

                def f():
                    a = np.random.rand(3)
                    g = np.random.default_rng()
                    t = time.time()
                    return a, g, t
                """
            },
            ["determinism"],
        )
        messages = "\n".join(f.message for f in new)
        assert len(new) == 3
        assert "np.random.rand" in messages
        assert "argless np.random.default_rng" in messages
        assert "wall-clock read time.time" in messages

    def test_seeded_and_monotonic_are_fine(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/good.py": """
                import time
                import numpy as np

                def f(seed):
                    g = np.random.default_rng(seed)
                    start = time.monotonic()
                    wall = time.perf_counter()
                    return g, start, wall
                """
            },
            ["determinism"],
        )
        assert new == []

    def test_stdlib_random_needs_the_import(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/uses_random.py": """
                import random

                def f():
                    return random.random()
                """,
                # `random` here is a local object, not the stdlib module.
                "src/repro/runtime/no_import.py": """
                def f(random):
                    return random.random()
                """,
            },
            ["determinism"],
        )
        assert len(new) == 1
        assert new[0].path.endswith("uses_random.py")

    def test_out_of_scope_module_ignored(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/experiments/free.py": """
                import numpy as np

                def f():
                    return np.random.rand(3)
                """
            },
            ["determinism"],
        )
        assert new == []

    def test_sc_kernel_package_is_in_scope(self, tmp_path):
        # The vendored sampling kernels (repro.sc.binomial) sit squarely
        # in the bit-identity contract: a sneaky unseeded draw there
        # must be a finding, not a blind spot.
        new = findings_of(
            tmp_path,
            {
                "src/repro/sc/kernel.py": """
                import numpy as np

                def draw():
                    return np.random.default_rng().random(4)
                """
            },
            ["determinism"],
        )
        assert len(new) == 1
        assert "argless np.random.default_rng" in new[0].message

    def test_real_kernel_module_is_scanned(self):
        # Guard against a future SCOPE edit silently dropping the
        # kernel package from the determinism sweep.
        from repro.analysis.core import Project
        from repro.analysis.rules.determinism import SCOPE

        project = Project.load(REPO_ROOT, ["src"])
        modules = {f.module for f in project.repro_files(*SCOPE)}
        assert "repro.sc.binomial" in modules


class TestLayeringRule:
    def test_upward_import_is_error(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/sc/bad.py": """
                from repro.runtime.scheduler import resolve_scheduler
                """
            },
            ["layering"],
        )
        assert len(new) == 1
        assert "upward import" in new[0].message
        assert new[0].severity == "error"

    def test_lazy_import_is_the_escape_hatch(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/sc/lazy.py": """
                def shim():
                    from repro.runtime.scheduler import resolve_scheduler

                    return resolve_scheduler
                """
            },
            ["layering"],
        )
        assert new == []

    def test_module_cycle_is_error(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/mapping/a.py": "from repro.mapping import b\n",
                "src/repro/mapping/b.py": "from repro.mapping import a\n",
            },
            ["layering"],
        )
        assert any("import cycle" in f.message for f in new)

    def test_package_reexport_is_not_a_cycle(self, tmp_path):
        # pkg/__init__ imports its submodule, the submodule imports a
        # sibling through the package name: Python executes this fine,
        # the checker must too.
        new = findings_of(
            tmp_path,
            {
                "src/repro/mapping/__init__.py": "from repro.mapping import a\n",
                "src/repro/mapping/a.py": "from repro.mapping import b\n",
                "src/repro/mapping/b.py": "X = 1\n",
            },
            ["layering"],
        )
        assert new == []


class TestFaultSiteRule:
    def test_undeclared_site_is_error(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/faults.py": FAULTS_STUB,
                "src/repro/runtime/user.py": """
                from repro.runtime.faults import fault_point

                def f():
                    fault_point("bad.site", rows=1)
                    fault_point("good.site")
                """,
            },
            ["fault-site"],
        )
        assert len(new) == 1
        assert "undeclared fault site 'bad.site'" in new[0].message

    def test_faultspec_and_dict_payloads_checked(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/faults.py": FAULTS_STUB,
                "tests/test_chaos.py": """
                from repro.runtime.faults import FaultSpec

                SPEC = FaultSpec(site="typo.site")
                WIRE = {"specs": [{"site": "another.typo"}]}
                """,
            },
            ["fault-site"],
        )
        assert len(new) == 2

    def test_non_literal_site_is_warning(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/faults.py": FAULTS_STUB,
                "src/repro/runtime/dynamic.py": """
                from repro.runtime.faults import fault_point

                def f(site):
                    fault_point(site)
                """,
            },
            ["fault-site"],
        )
        assert len(new) == 1
        assert new[0].severity == "warning"

    def test_inline_waiver_suppresses(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/faults.py": FAULTS_STUB,
                "tests/test_toys.py": """
                from repro.runtime.faults import fault_point

                def test_machinery():
                    fault_point("toy")  # lint-static: allow[fault-site]
                """,
            },
            ["fault-site"],
        )
        assert new == []


class TestEnvDisciplineRule:
    def test_raw_read_in_src_is_error(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/env.py": ENV_STUB,
                "src/repro/runtime/sneaky.py": """
                import os

                def f():
                    return os.environ.get("ANY_VAR")
                """,
            },
            ["env-discipline"],
        )
        assert len(new) == 1
        assert "raw environment read" in new[0].message

    def test_tests_may_read_non_repro_vars(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/env.py": ENV_STUB,
                "tests/test_misc.py": """
                import os

                HOME = os.environ.get("HOME")
                BAD = os.environ["REPRO_SOMETHING"]
                """,
            },
            ["env-discipline"],
        )
        assert len(new) == 1
        assert "REPRO_SOMETHING" in new[0].message

    def test_env_writes_are_fine(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/env.py": ENV_STUB,
                "tests/test_setup.py": """
                import os

                os.environ["REPRO_DECLARED"] = "1"
                del os.environ["REPRO_DECLARED"]
                """,
            },
            ["env-discipline"],
        )
        assert new == []

    def test_undeclared_accessor_name_is_error(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/env.py": ENV_STUB,
                "src/repro/runtime/knobs.py": """
                from repro.runtime.env import env_int

                def f():
                    ok = env_int("REPRO_DECLARED")
                    bad = env_int("REPRO_NOT_DECLARED")
                    return ok, bad
                """,
            },
            ["env-discipline"],
        )
        assert len(new) == 1
        assert "REPRO_NOT_DECLARED" in new[0].message


class TestAsyncHygieneRule:
    def test_blocking_calls_in_coroutine(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/net/bad.py": """
                import time

                async def handler(request_queue, future):
                    time.sleep(0.1)
                    value = future.result()
                    item = request_queue.get()
                    return value, item
                """
            },
            ["async-hygiene"],
        )
        messages = "\n".join(f.message for f in new)
        assert len(new) == 3
        assert "time.sleep" in messages
        assert "Future.result()" in messages
        assert "request_queue.get()" in messages

    def test_awaited_nowait_and_nested_sync_are_fine(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/net/good.py": """
                import time

                async def handler(queue):
                    item = await queue.get()
                    queue.put_nowait(item)

                    def off_loop():
                        time.sleep(0.1)  # runs in an executor

                    return off_loop
                """
            },
            ["async-hygiene"],
        )
        assert new == []

    def test_sync_functions_ignored(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/net/sync.py": """
                import time

                def worker(queue):
                    time.sleep(0.1)
                    return queue.get()
                """
            },
            ["async-hygiene"],
        )
        assert new == []


class TestRegistryContractRule:
    def test_missing_protocol_method(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/plugins.py": """
                from repro.runtime.scheduler import register_scheduler

                @register_scheduler("hollow")
                class Hollow:
                    pass
                """
            },
            ["registry-contract"],
        )
        assert len(new) == 1
        assert "implements none of the protocol methods" in new[0].message

    def test_inherited_method_satisfies(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/plugins.py": """
                from repro.runtime.scheduler import register_scheduler

                class Base:
                    def run_shards(self, *a, **k):
                        raise NotImplementedError

                @register_scheduler("derived")
                class Derived(Base):
                    pass
                """
            },
            ["registry-contract"],
        )
        assert new == []

    def test_non_literal_key_and_non_bool_flag(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/plugins.py": """
                from repro.runtime.scheduler import register_scheduler

                NAME = "dynamic"

                @register_scheduler(NAME)
                class Dyn:
                    stateless = "yes"

                    def run_shards(self, *a, **k):
                        return []
                """
            },
            ["registry-contract"],
        )
        messages = "\n".join(f.message for f in new)
        assert len(new) == 2
        assert "non-literal name" in messages
        assert "literal True/False" in messages


    def test_backend_must_be_run_layer_only(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/api/plugins.py": """
                from repro.api.backends import register_backend

                @register_backend("fine")
                class Fine:
                    def run_layer(self, layer, flat, *, rng, validate=None):
                        return flat

                @register_backend("pooled")
                class Pooled:
                    def run_layer(self, layer, flat, *, rng, validate=None):
                        return flat

                    def run_shards(self, *a, **k):
                        return []

                @register_backend("plan-only")
                class PlanOnly:
                    def run_plan(self, *a, **k):
                        return None
                """
            },
            ["registry-contract"],
        )
        messages = sorted(f.message for f in new)
        assert len(new) == 3, messages
        assert any("Pooled defines run_shards" in m for m in messages)
        assert any("PlanOnly defines run_plan" in m for m in messages)
        assert any(
            "PlanOnly implements none of the protocol methods (run_layer)" in m
            for m in messages
        )


class TestExceptionTaxonomyRule:
    def test_unclassifiable_raise(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/oops.py": """
                class Weird(Exception):
                    pass

                def f():
                    raise Weird("boom")
                """
            },
            ["exception-taxonomy"],
        )
        assert len(new) == 1
        assert "outside the recovery.classify taxonomy" in new[0].message

    def test_derived_from_classifiable_is_fine(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/fine.py": """
                class Typed(ValueError):
                    pass

                def f():
                    raise Typed("boom")

                def g():
                    raise TimeoutError("slow")
                """
            },
            ["exception-taxonomy"],
        )
        assert new == []

    def test_broad_handler_must_classify_or_annotate(self, tmp_path):
        new = findings_of(
            tmp_path,
            {
                "src/repro/runtime/handlers.py": """
                from repro.runtime.recovery import classified

                def bad():
                    try:
                        work()
                    except Exception:
                        pass

                def classifies():
                    try:
                        work()
                    except Exception as exc:
                        raise classified(exc)

                def annotated():
                    try:
                        work()
                    # taxonomy: supervisor loop, deliberately broad
                    except Exception:
                        pass
                """
            },
            ["exception-taxonomy"],
        )
        assert len(new) == 1
        assert new[0].line == 7  # only bad()'s handler


# ----------------------------------------------------------------------
# Baseline round trip
# ----------------------------------------------------------------------
BAD_DETERMINISM = {
    "src/repro/runtime/drifty.py": """
    import numpy as np

    def f():
        return np.random.default_rng()
    """
}


class TestBaseline:
    def test_add_then_suppress_then_expire(self, tmp_path):
        write_tree(tmp_path, BAD_DETERMINISM)
        baseline_path = tmp_path / "lint-static.baseline.json"

        # 1. virgin run: one new finding, nothing baselined.
        report = run_analysis(
            tmp_path, paths=("src",), rules=["determinism"],
            baseline_path=baseline_path,
        )
        assert not report.clean and len(report.new) == 1

        # 2. grandfather it (the --update-baseline path).
        Baseline.from_findings(report.new).save(baseline_path)
        report = run_analysis(
            tmp_path, paths=("src",), rules=["determinism"],
            baseline_path=baseline_path,
        )
        assert report.clean
        assert len(report.baselined) == 1 and not report.stale_baseline

        # 3. fix the violation: entry goes stale but never fails the run.
        (tmp_path / "src/repro/runtime/drifty.py").write_text(
            "def f():\n    return None\n", encoding="utf-8"
        )
        report = run_analysis(
            tmp_path, paths=("src",), rules=["determinism"],
            baseline_path=baseline_path,
        )
        assert report.clean and not report.baselined
        assert len(report.stale_baseline) == 1

        # 4. --update-baseline prunes the stale entry.
        Baseline.from_findings(report.new + report.baselined).save(baseline_path)
        assert len(Baseline.load(baseline_path)) == 0

    def test_key_survives_line_shifts(self):
        a = Finding("r", "error", "p.py", 10, "same message")
        b = Finding("r", "error", "p.py", 99, "same message")
        assert a.key == b.key
        assert a.key.startswith("r:p.py:")


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_codes_and_json(self, tmp_path, capsys):
        write_tree(tmp_path, BAD_DETERMINISM)
        json_path = tmp_path / "findings.json"
        code = cli_main(
            [
                "lint-static",
                "--root", str(tmp_path),
                "--paths", "src",
                "--rules", "determinism",
                "--json", str(json_path),
            ]
        )
        assert code == 1
        payload = json.loads(json_path.read_text())
        assert payload["clean"] is False and len(payload["findings"]) == 1
        assert "FAILED" in capsys.readouterr().out

        # --update-baseline grandfathers, after which the run is green.
        assert cli_main(
            [
                "lint-static",
                "--root", str(tmp_path),
                "--paths", "src",
                "--rules", "determinism",
                "--update-baseline",
            ]
        ) == 0
        assert cli_main(
            [
                "lint-static",
                "--root", str(tmp_path),
                "--paths", "src",
                "--rules", "determinism",
            ]
        ) == 0

    def test_list_rules(self, capsys):
        assert cli_main(["lint-static", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in available_rules():
            assert rule in out


# ----------------------------------------------------------------------
# Repo self-check: the gate CI enforces.
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_repository_is_finding_free_modulo_baseline(self):
        report = run_analysis(REPO_ROOT)
        assert report.clean, "\n" + report.render()

    def test_all_rules_ship(self):
        assert set(available_rules()) >= {
            "determinism",
            "layering",
            "fault-site",
            "env-discipline",
            "async-hygiene",
            "registry-contract",
            "exception-taxonomy",
        }

    def test_env_docs_in_sync(self):
        from repro.runtime.env import catalog_markdown

        generated = catalog_markdown()
        on_disk = (REPO_ROOT / "docs" / "ENVIRONMENT.md").read_text(
            encoding="utf-8"
        )
        assert on_disk == generated, (
            "docs/ENVIRONMENT.md is stale; regenerate with "
            "`python -m repro.cli lint-static --write-env-docs`"
        )
