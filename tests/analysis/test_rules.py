"""Per-rule contract tests: each rule fires on its fixture's positive cases,
honours inline suppression, stays quiet on the clean cases, and respects its
module-name scope."""

from repro.analysis import all_rules

from .conftest import lint_fixture


def rules_of(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


class TestDET001:
    def test_positive_hits(self):
        result = lint_fixture("det001_cases.py", "repro.core.fixture_det001")
        hits = rules_of(result, "DET001")
        assert len(hits) == 7
        messages = " ".join(f.message for f in hits)
        assert "time.time" in messages
        assert "datetime.datetime.now" in messages
        assert "time.perf_counter" in messages  # aliased from-import resolved
        assert "numpy.random.default_rng" in messages
        assert "numpy.random.seed" in messages
        assert "loop.time" in messages
        assert "_event_loop.time" in messages

    def test_suppressed_hit_does_not_gate(self):
        result = lint_fixture("det001_cases.py", "repro.core.fixture_det001")
        suppressed = [f for f in result.suppressed if f.rule == "DET001"]
        assert len(suppressed) == 1
        assert suppressed[0].symbol == "suppressed_hit"

    def test_clean_function_not_flagged(self):
        result = lint_fixture("det001_cases.py", "repro.core.fixture_det001")
        assert not any(f.symbol == "clean" for f in result.findings)

    def test_wall_clock_allowed_in_service_and_experiments(self):
        # The wall-clock checks (including loop.time()) skip the layers
        # whose job is wall time; the RNG checks still fire there.
        for name in ("repro.service.fixture", "repro.experiments.fixture"):
            result = lint_fixture("det001_cases.py", name)
            hits = rules_of(result, "DET001")
            assert len(hits) == 2, name
            messages = " ".join(f.message for f in hits)
            assert "numpy.random.default_rng" in messages
            assert "numpy.random.seed" in messages
            assert ".time" not in messages

    def test_whole_tree_in_scope(self):
        # Pre-service, DET001 covered only sim/core/platform; now any repro
        # package outside the carve-out is held to the same clock discipline.
        result = lint_fixture("det001_cases.py", "repro.workload.fixture")
        assert len(rules_of(result, "DET001")) == 7


class TestDET002:
    def test_positive_hits(self):
        result = lint_fixture("det002_cases.py", "repro.platform.fixture_det002")
        hits = rules_of(result, "DET002")
        assert len(hits) == 4
        kinds = [f.message for f in hits]
        assert sum("module scope" in m for m in kinds) == 1
        assert sum("class scope" in m for m in kinds) == 1
        assert sum("legacy global-state" in m for m in kinds) == 2

    def test_suppression_and_clean(self):
        result = lint_fixture("det002_cases.py", "repro.platform.fixture_det002")
        assert any(f.rule == "DET002" for f in result.suppressed)
        assert not any(f.symbol == "clean" for f in result.findings)

    def test_rng_factory_module_exempt(self):
        result = lint_fixture("det002_cases.py", "repro.sim.rng")
        assert rules_of(result, "DET002") == []


class TestDET003:
    def test_positive_hits(self):
        result = lint_fixture("det003_cases.py", "repro.dist.fixture_det003")
        hits = rules_of(result, "DET003")
        assert len(hits) == 5
        assert all(f.symbol == "positive_hit" for f in hits)
        messages = " ".join(f.message for f in hits)
        assert "numpy.random.default_rng" in messages
        assert "numpy.random.SeedSequence" in messages
        assert "RngRegistry" in messages
        assert "random.Random" in messages

    def test_suppressed_and_clean(self):
        result = lint_fixture("det003_cases.py", "repro.dist.fixture_det003")
        assert len([f for f in result.suppressed if f.rule == "DET003"]) == 1
        # Spawn-key construction and arithmetic behind a call boundary
        # (a generator draw used as a seed) are both allowed.
        assert not any(f.symbol == "clean" for f in result.findings)

    def test_sim_scope_also_covered(self):
        result = lint_fixture("det003_cases.py", "repro.sim.fixture_det003")
        assert len(rules_of(result, "DET003")) == 5

    def test_out_of_scope(self):
        # experiments/ and analysis/ never hand seeds to sim code directly.
        result = lint_fixture("det003_cases.py", "repro.experiments.fixture")
        assert rules_of(result, "DET003") == []


class TestNUM001:
    def test_positive_hits(self):
        result = lint_fixture("num001_cases.py", "repro.stats.fixture_num001")
        hits = rules_of(result, "NUM001")
        assert len(hits) == 3
        assert all(f.symbol == "positive_hit" for f in hits)

    def test_suppressed_and_clean(self):
        result = lint_fixture("num001_cases.py", "repro.stats.fixture_num001")
        assert len([f for f in result.suppressed if f.rule == "NUM001"]) == 1
        assert not any(f.symbol == "clean" for f in result.findings)

    def test_out_of_scope(self):
        result = lint_fixture("num001_cases.py", "repro.platform.fixture")
        assert rules_of(result, "NUM001") == []


class TestOBS001:
    def test_positive_hits(self):
        result = lint_fixture("obs001_cases.py", "repro.platform.fixture_obs001")
        hits = rules_of(result, "OBS001")
        assert len(hits) == 2
        assert any("None-check" in f.message for f in hits)
        assert any("truthiness guard" in f.message for f in hits)

    def test_suppressed_and_clean(self):
        result = lint_fixture("obs001_cases.py", "repro.platform.fixture_obs001")
        assert len([f for f in result.suppressed if f.rule == "OBS001"]) == 1
        assert not any(f.symbol == "Instrumented.clean" for f in result.findings)

    def test_obs_package_itself_out_of_scope(self):
        # resolve() in repro.obs is the one place allowed to look at None.
        result = lint_fixture("obs001_cases.py", "repro.obs.runtime")
        assert rules_of(result, "OBS001") == []


class TestKER001:
    def test_positive_hit(self):
        result = lint_fixture("ker001_cases.py", "repro.core.kernels.fixture_ker001")
        hits = rules_of(result, "KER001")
        assert len(hits) == 1
        assert "repro.platform" in hits[0].message

    def test_suppressed_hit(self):
        result = lint_fixture("ker001_cases.py", "repro.core.kernels.fixture_ker001")
        assert len([f for f in result.suppressed if f.rule == "KER001"]) == 1

    def test_type_checking_imports_allowed(self):
        result = lint_fixture("ker001_cases.py", "repro.core.kernels.fixture_ker001")
        assert not any("repro.obs" in f.message for f in result.findings)

    def test_unconstrained_module_ignored(self):
        result = lint_fixture("ker001_cases.py", "repro.experiments.fixture")
        assert rules_of(result, "KER001") == []

    def test_service_must_not_import_experiments(self):
        result = lint_fixture(
            "ker001_service_cases.py", "repro.service.fixture_ker001"
        )
        hits = rules_of(result, "KER001")
        assert len(hits) == 1
        assert "repro.experiments" in hits[0].message
        # Importing the platform from the service layer is the design.
        assert not any("repro.platform" in f.message for f in hits)

    def test_platform_must_not_import_service(self):
        result = lint_fixture(
            "ker001_service_cases.py", "repro.platform.fixture_ker001"
        )
        hits = rules_of(result, "KER001")
        assert len(hits) == 2
        messages = " ".join(f.message for f in hits)
        assert "repro.service" in messages
        assert "repro.experiments" in messages

    def test_shipped_service_package_lints_clean(self):
        from pathlib import Path

        from repro.analysis import lint_source

        pkg = Path(__file__).parents[2] / "src" / "repro" / "service"
        for path in sorted(pkg.glob("*.py")):
            module = f"repro.service.{path.stem}"
            result = lint_source(
                path.read_text(encoding="utf-8"), module=module, path=str(path)
            )
            assert rules_of(result, "KER001") == [], module
            assert rules_of(result, "DET001") == [], module

    def test_wbgm_kernel_module_is_constrained(self):
        """The new WBGM kernel module falls under the kernels leaf contract."""
        from repro.analysis.rules.layering import _layer_for

        layer, forbidden = _layer_for("repro.core.kernels.wbgm")
        assert layer == "repro.core.kernels"
        assert "repro.sim" in forbidden and "repro.platform" in forbidden

    def test_shipped_wbgm_kernel_lints_clean(self):
        """The shipped wbgm kernel module honours the numpy-only leaf contract."""
        from pathlib import Path

        from repro.analysis import lint_source

        path = Path(__file__).parents[2] / "src" / "repro" / "core" / "kernels" / "wbgm.py"
        result = lint_source(
            path.read_text(encoding="utf-8"),
            module="repro.core.kernels.wbgm",
            path=str(path),
        )
        assert rules_of(result, "KER001") == []


class TestAPI001:
    def test_positive_hits(self):
        result = lint_fixture("api001_cases.py", "repro.core.fixture_api001")
        hits = rules_of(result, "API001")
        assert {f.symbol for f in hits} == {
            "positive_hit",
            "PublicEstimator.fit",
            "PublicEstimator.evaluate",
        }
        by_symbol = {f.symbol: f.message for f in hits}
        assert "samples" in by_symbol["positive_hit"]
        assert "return" in by_symbol["positive_hit"]
        assert "*args" in by_symbol["PublicEstimator.evaluate"]
        assert "**kwargs" in by_symbol["PublicEstimator.evaluate"]

    def test_private_nested_overload_clean(self):
        result = lint_fixture("api001_cases.py", "repro.core.fixture_api001")
        symbols = {f.symbol for f in result.findings}
        assert "_private_helper" not in symbols
        assert "_PrivateClass.method" not in symbols
        assert "sig" not in symbols
        assert "clean" not in symbols
        assert "clean.inner" not in symbols

    def test_suppressed(self):
        result = lint_fixture("api001_cases.py", "repro.core.fixture_api001")
        assert len([f for f in result.suppressed if f.rule == "API001"]) == 1


class TestRuleRegistry:
    def test_twelve_rules_registered_with_docs(self):
        rules = all_rules()
        ids = [r.id for r in rules]
        assert ids == [
            "DET001",
            "DET002",
            "DET003",
            "NUM001",
            "OBS001",
            "KER001",
            "API001",
            "ASYNC001",
            "ASYNC002",
            "ASYNC003",
            "TIME001",
            "EXC001",
        ]
        for rule in rules:
            assert rule.title, rule.id
            assert rule.rationale, rule.id

    def test_every_rule_has_failing_fixture(self):
        """Acceptance criterion: each rule demonstrably fires."""
        cases = {
            "DET001": ("det001_cases.py", "repro.core.fixture_det001"),
            "DET002": ("det002_cases.py", "repro.platform.fixture_det002"),
            "DET003": ("det003_cases.py", "repro.dist.fixture_det003"),
            "NUM001": ("num001_cases.py", "repro.stats.fixture_num001"),
            "OBS001": ("obs001_cases.py", "repro.platform.fixture_obs001"),
            "KER001": ("ker001_cases.py", "repro.core.kernels.fixture_ker001"),
            "API001": ("api001_cases.py", "repro.core.fixture_api001"),
            "ASYNC001": ("async001_cases.py", "repro.service.fixture_async001"),
            "ASYNC002": ("async002_cases.py", "repro.service.fixture_async002"),
            "ASYNC003": ("async003_cases.py", "repro.service.fixture_async003"),
            "TIME001": ("time001_cases.py", "repro.service.fixture_time001"),
            "EXC001": ("exc001_cases.py", "repro.service.fixture_exc001"),
        }
        for rule_id, (filename, module) in cases.items():
            result = lint_fixture(filename, module, rule_ids=[rule_id])
            assert any(f.rule == rule_id for f in result.findings), rule_id


class TestASYNC001:
    def test_positive_hits(self):
        result = lint_fixture("async001_cases.py", "repro.service.fixture_async001")
        hits = rules_of(result, "ASYNC001")
        assert len(hits) == 4
        messages = " ".join(f.message for f in hits)
        assert "time.sleep" in messages
        assert "subprocess.run" in messages
        assert "open" in messages
        assert "sync_chain -> sync_leaf -> time.sleep" in messages

    def test_suppressed(self):
        result = lint_fixture("async001_cases.py", "repro.service.fixture_async001")
        suppressed = [f for f in result.suppressed if f.rule == "ASYNC001"]
        assert len(suppressed) == 1
        assert suppressed[0].symbol == "suppressed_hit"

    def test_clean_unfiltered(self):
        # The clean coroutine (to_thread / run_in_executor shapes) must not
        # trip ASYNC001 — nor any other rule.
        result = lint_fixture("async001_cases.py", "repro.service.fixture_async001")
        assert not any(f.symbol == "clean" for f in result.findings)
        # Blocking calls in *sync* defs are never ASYNC001 findings.
        assert not any(f.symbol.startswith("sync_") for f in result.findings)

    def test_scope_excluded(self):
        result = lint_fixture(
            "async001_cases.py", "repro.sim.fixture_async001", rule_ids=["ASYNC001"]
        )
        assert not rules_of(result, "ASYNC001")


class TestASYNC002:
    def test_positive_hits(self):
        result = lint_fixture("async002_cases.py", "repro.service.fixture_async002")
        hits = rules_of(result, "ASYNC002")
        assert len(hits) == 3
        messages = " ".join(f.message for f in hits)
        assert "notify" in messages  # local coroutine resolved
        assert "asyncio.sleep" in messages  # known awaitable factory
        assert "Server.beat" in messages  # self.method resolved via the class

    def test_suppressed(self):
        result = lint_fixture("async002_cases.py", "repro.service.fixture_async002")
        suppressed = [f for f in result.suppressed if f.rule == "ASYNC002"]
        assert len(suppressed) == 1
        assert suppressed[0].symbol == "suppressed_hit"

    def test_clean_unfiltered(self):
        result = lint_fixture("async002_cases.py", "repro.service.fixture_async002")
        assert not any(f.symbol == "clean" for f in result.findings)

    def test_scope_is_all_of_repro(self):
        result = lint_fixture(
            "async002_cases.py", "repro.sim.fixture_async002", rule_ids=["ASYNC002"]
        )
        assert len(rules_of(result, "ASYNC002")) == 3

    def test_scope_excluded_outside_repro(self):
        result = lint_fixture(
            "async002_cases.py", "scripts.fixture_async002", rule_ids=["ASYNC002"]
        )
        assert not rules_of(result, "ASYNC002")


class TestASYNC003:
    def test_positive_hits(self):
        result = lint_fixture("async003_cases.py", "repro.service.fixture_async003")
        hits = rules_of(result, "ASYNC003")
        assert len(hits) == 3
        symbols = {f.symbol for f in hits}
        assert symbols == {
            "RegionState.positive_pop",
            "RegionState.positive_phase",
            "RegionState.positive_while",
        }
        messages = " ".join(f.message for f in hits)
        assert "self._inbox" in messages
        assert "task.phase" in messages
        assert "self._running" in messages

    def test_suppressed(self):
        result = lint_fixture("async003_cases.py", "repro.service.fixture_async003")
        suppressed = [f for f in result.suppressed if f.rule == "ASYNC003"]
        assert len(suppressed) == 1
        assert suppressed[0].symbol == "RegionState.suppressed_hit"

    def test_sanctioned_shapes_unfiltered(self):
        # Re-testing on the resume edge and mutating before the await are
        # the two fixes the rule message recommends; neither may fire.
        result = lint_fixture("async003_cases.py", "repro.service.fixture_async003")
        assert not any(f.symbol == "RegionState.revalidated" for f in result.findings)
        assert not any(
            f.symbol == "RegionState.mutate_before_await" for f in result.findings
        )
        assert not any(f.symbol == "RegionState.clean" for f in result.findings)

    def test_scope_excluded(self):
        result = lint_fixture(
            "async003_cases.py", "repro.sim.fixture_async003", rule_ids=["ASYNC003"]
        )
        assert not rules_of(result, "ASYNC003")


class TestTIME001:
    def test_positive_hits(self):
        result = lint_fixture("time001_cases.py", "repro.service.fixture_time001")
        hits = rules_of(result, "TIME001")
        assert len(hits) == 4
        symbols = {f.symbol for f in hits}
        assert symbols == {
            "positive_direct",
            "positive_compare",
            "positive_through_locals",
            "positive_branch_join",
        }
        kinds = " ".join(f.message for f in hits)
        assert "arithmetic" in kinds
        assert "comparison" in kinds

    def test_suppressed(self):
        result = lint_fixture("time001_cases.py", "repro.service.fixture_time001")
        suppressed = [f for f in result.suppressed if f.rule == "TIME001"]
        assert len(suppressed) == 1
        assert suppressed[0].symbol == "suppressed_hit"

    def test_clean_unfiltered(self):
        # Single-domain arithmetic and call-boundary conversion stay quiet.
        result = lint_fixture("time001_cases.py", "repro.service.fixture_time001")
        for symbol in ("clean_sim_only", "clean_wall_only", "clean_boundary", "to_sim"):
            assert not any(f.symbol == symbol for f in result.findings), symbol

    def test_scope_excluded_outside_repro(self):
        result = lint_fixture(
            "time001_cases.py", "scripts.fixture_time001", rule_ids=["TIME001"]
        )
        assert not rules_of(result, "TIME001")


class TestEXC001:
    def test_positive_hits(self):
        result = lint_fixture("exc001_cases.py", "repro.service.fixture_exc001")
        hits = rules_of(result, "EXC001")
        assert len(hits) == 3
        symbols = {f.symbol for f in hits}
        assert symbols == {"positive_swallow", "positive_bare", "positive_tuple"}
        messages = " ".join(f.message for f in hits)
        assert "broad `except Exception`" in messages
        assert "bare `except:`" in messages

    def test_suppressed(self):
        result = lint_fixture("exc001_cases.py", "repro.service.fixture_exc001")
        suppressed = [f for f in result.suppressed if f.rule == "EXC001"]
        assert len(suppressed) == 1
        assert suppressed[0].symbol == "suppressed_hit"

    def test_clean_unfiltered(self):
        result = lint_fixture("exc001_cases.py", "repro.service.fixture_exc001")
        for symbol in ("clean_reraise", "clean_counted", "clean_specific"):
            assert not any(f.symbol == symbol for f in result.findings), symbol

    def test_scope_excluded(self):
        result = lint_fixture(
            "exc001_cases.py", "repro.core.fixture_exc001", rule_ids=["EXC001"]
        )
        assert not rules_of(result, "EXC001")
