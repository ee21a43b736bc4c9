"""Self-check: the repo's own source must lint clean, baseline-modulo.

This is the acceptance criterion for the PR: `python -m repro.analysis
src/repro` exits 0.  Running it as a test keeps the invariant enforced by
the ordinary test suite, not just the CI lint job.
"""

from pathlib import Path

from repro.analysis import lint_paths, load_baseline
from repro.analysis.baseline import DEFAULT_BASELINE_NAME, Baseline

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src" / "repro"


def test_src_repro_lints_clean_baseline_modulo():
    result = lint_paths([SRC], repo_root=REPO_ROOT)
    assert result.errors == [], [f.render() for f in result.errors]

    baseline_path = REPO_ROOT / DEFAULT_BASELINE_NAME
    baseline = load_baseline(baseline_path) if baseline_path.exists() else Baseline()
    new, _baselined = baseline.partition(result.findings)
    assert new == [], "new reprolint findings:\n" + "\n".join(f.render() for f in new)


def test_src_repro_has_no_inline_suppressions():
    result = lint_paths([SRC], repo_root=REPO_ROOT)
    assert result.suppressed == [], [f.render() for f in result.suppressed]


def test_committed_baseline_has_no_stale_entries():
    baseline_path = REPO_ROOT / DEFAULT_BASELINE_NAME
    assert baseline_path.exists(), "reprolint-baseline.json must be committed"
    baseline = load_baseline(baseline_path)
    result = lint_paths([SRC], repo_root=REPO_ROOT)
    stale = baseline.stale_fingerprints(result.findings)
    assert stale == set(), f"stale baseline entries (fixed findings): {sorted(stale)}"


def test_analysis_package_itself_in_scope():
    # The linter lints itself: repro.analysis is scanned like everything else.
    result = lint_paths([SRC / "analysis"], repo_root=REPO_ROOT)
    assert result.files_scanned > 10
    assert result.findings == []
