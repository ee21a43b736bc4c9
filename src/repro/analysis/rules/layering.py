"""KER001 — architectural layering via import-graph analysis.

The package DAG the reproduction relies on (DESIGN.md):

    model, graph, stats  →  core  →  platform  →  retainer  →  experiments → dist
                 core/kernels (leaf: numpy-only numeric kernels)
                 platform  →  service  →  experiments (wall-clock gateway)

``repro.service`` is the wall-clock deployment layer: it drives the same
platform components as the DES harness, so the platform (and everything
below it) must never import it — the Coordinator's ``server_factory``
callback exists precisely to keep that edge inverted.

``core/kernels`` must stay importable without the event engine or the
platform so the equivalence suite and the perf harness can load the kernels
and their reference oracle in isolation, and so kernel bit-equivalence tests
pin *numeric* behaviour, not platform behaviour.  More generally, lower
layers importing upward create cycles that break the "refactor freely"
north star.

The rule resolves relative imports to absolute dotted names (purely
syntactically) and flags any import from a forbidden layer.  The layering
table below is the machine-readable architecture; extend it when adding a
package.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from ..findings import Finding
from ..modinfo import ModuleInfo
from .base import Rule

#: package prefix → layers it must never import.  The most specific matching
#: prefix wins, so ``core.kernels`` gets the stricter leaf contract.
LAYERING: Dict[str, Tuple[str, ...]] = {
    "repro.core.kernels": (
        "repro.platform",
        "repro.sim",
        "repro.service",
        "repro.experiments",
        "repro.dist",
        "repro.obs",
        "repro.chaos",
        "repro.graph",
        "repro.model",
        "repro.workload",
    ),
    "repro.core": (
        "repro.platform",
        "repro.service",
        "repro.experiments",
        "repro.dist",
        "repro.chaos",
        "repro.workload",
    ),
    "repro.stats": (
        "repro.platform",
        "repro.service",
        "repro.experiments",
        "repro.dist",
        "repro.chaos",
    ),
    "repro.graph": (
        "repro.platform",
        "repro.service",
        "repro.experiments",
        "repro.dist",
        "repro.chaos",
    ),
    "repro.model": (
        "repro.platform",
        "repro.service",
        "repro.experiments",
        "repro.dist",
        "repro.core",
        "repro.sim",
    ),
    "repro.sim": (
        "repro.platform",
        "repro.service",
        "repro.experiments",
        "repro.dist",
        "repro.core",
    ),
    "repro.platform": ("repro.service", "repro.experiments", "repro.dist"),
    "repro.scenarios": ("repro.service", "repro.experiments", "repro.dist"),
    "repro.retainer": (
        "repro.service",
        "repro.experiments",
        "repro.dist",
        "repro.chaos",
    ),
    "repro.service": ("repro.experiments", "repro.dist"),
}


def _layer_for(module: str) -> Tuple[str, Tuple[str, ...]]:
    """Most specific layering entry for ``module`` ('' if unconstrained)."""
    best = ""
    for prefix in LAYERING:
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > len(best):
                best = prefix
    return best, LAYERING.get(best, ())


class LayeringRule(Rule):
    """KER001: kernels (and other low layers) must not import upward."""

    id = "KER001"
    title = "layering: core/kernels and low layers must not import upward"
    rationale = (
        "Kernels are numpy-only leaves so the bit-equivalence suite and the "
        "perf harness can load them without the platform; upward "
        "imports create cycles that make aggressive refactors unsafe."
    )
    scope = ()  # scoping handled by the layering table

    def applies_to(self, module: str) -> bool:
        return _layer_for(module)[0] != ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        layer, forbidden = _layer_for(module.module)
        if not layer:  # pragma: no cover - applies_to filters this
            return
        for imp in module.imported_names:
            if imp.type_only:
                # ``if TYPE_CHECKING:`` imports exist only for annotations
                # and cannot create runtime cycles.
                continue
            name = imp.name
            for bad in forbidden:
                if name == bad or name.startswith(bad + "."):
                    yield self.finding(
                        module,
                        imp.lineno,
                        0,
                        f"layer `{layer}` must not import `{bad}` "
                        f"(imports `{name}`); invert the dependency or move "
                        "the shared piece down a layer",
                    )
                    break
