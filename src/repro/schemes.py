"""Scheme metadata registry: one place that knows what each scheme *is*.

Before this module existed the pipeline, the protection linter, the
evaluator, the CLI and the figures each hard-coded their own copy of the
per-scheme facts (does it replicate?  where does each role go?  does the
inter-cluster delay matter?).  Adding a fifth scheme meant edits in seven
places.  This registry follows the :mod:`repro.faults.models` idiom — a
dict of declarative records plus a ``@register_scheme`` hook — so a new
scheme (CFCSS block signatures, replay detection, ...) lands by
registering one :class:`SchemeInfo` and providing an assignment pass.

The :class:`repro.pipeline.Scheme` enum remains the typed handle the rest
of the code passes around; its behaviour-determining properties now read
from this registry.  The static coverage prover
(:mod:`repro.analysis.coverage`) consumes the same records: a scheme
*declares* its detection semantics (``replicates`` + ``check_placement``)
as data rather than the prover special-casing scheme names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.passes.base import FunctionPass


#: How a scheme distributes code over the clusters.
#:
#: ``unified``    everything on one fixed cluster (``home_cluster``);
#: ``role-split`` original stream on cluster 0, redundant stream on 1;
#: ``adaptive``   per-block placement chosen by the assignment pass, only
#:                the single-home-cluster-per-register rule applies.
CLUSTER_POLICIES = ("unified", "role-split", "adaptive")


@dataclass(frozen=True)
class SchemeInfo:
    """Declarative metadata for one code-generation scheme."""

    name: str
    description: str
    #: Does the error-detection pass run (instruction duplication + shadow
    #: registers)?  ``False`` means an unprotected binary.
    replicates: bool
    #: Where checks go: ``"pre-consumer"`` (a compare+CHKBR pair guards every
    #: register before a store/branch/OUT consumes it, Algorithm 1 step iii)
    #: or ``"none"`` for unprotected binaries.
    check_placement: str
    #: One of :data:`CLUSTER_POLICIES`.
    cluster_policy: str
    #: The fixed cluster for ``unified`` placement (ignored otherwise).
    home_cluster: int = 0
    #: Minimum clusters the scheme needs to compile at all.
    min_clusters: int = 1
    #: Does the machine's inter-cluster delay affect this scheme's schedule?
    #: (Single-cluster schemes never pay it — the evaluator normalises the
    #: delay axis away for them so cache keys collapse.)
    uses_delay: bool = False
    #: Does the assignment pass read the issue width or the inter-cluster
    #: delay (the two axes of the paper's grid)?  When it does not, the
    #: program after assignment and register allocation is the same at
    #: every grid point, so the pipeline builds it once per source and
    #: only schedules it per point (:func:`repro.pipeline.compile_stage`).
    assignment_reads_grid: bool = True
    #: Builds the cluster-assignment pass.  Receives the ``compile_program``
    #: knobs relevant to assignment; simple schemes ignore them.
    make_assignment: Callable[..., "FunctionPass"] | None = None


#: Registry keyed by scheme name, in paper presentation order.
SCHEMES: dict[str, SchemeInfo] = {}


def register_scheme(info: SchemeInfo) -> SchemeInfo:
    """Add ``info`` to :data:`SCHEMES` (last registration wins)."""
    if info.cluster_policy not in CLUSTER_POLICIES:
        raise ValueError(
            f"unknown cluster policy {info.cluster_policy!r} "
            f"(expected one of {CLUSTER_POLICIES})"
        )
    SCHEMES[info.name] = info
    return info


def scheme_names() -> list[str]:
    """Registered scheme names in registration (presentation) order."""
    return list(SCHEMES)


def get_scheme_info(name: str) -> SchemeInfo:
    """Look up one scheme's metadata; raises ``ValueError`` when unknown."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r} (available: {', '.join(scheme_names())})"
        ) from None


# ---------------------------------------------------------------------------
# The paper's four schemes
# ---------------------------------------------------------------------------


def _sced_assignment(**_: Any) -> "FunctionPass":
    from repro.passes.assignment import ScedAssignmentPass

    return ScedAssignmentPass(cluster=0)


def _dced_assignment(**_: Any) -> "FunctionPass":
    from repro.passes.assignment import DcedAssignmentPass

    return DcedAssignmentPass()


def _casted_assignment(
    casted_candidates: tuple[str, ...] | None = None,
    casted_safety_net: bool = True,
    block_profile: dict[str, int] | None = None,
    **_: Any,
) -> "FunctionPass":
    from repro.passes.assignment import CastedAssignmentPass

    kwargs: dict[str, Any] = {
        "safety_net": casted_safety_net,
        "block_profile": block_profile,
    }
    if casted_candidates is not None:
        kwargs["candidates"] = casted_candidates
    return CastedAssignmentPass(**kwargs)


register_scheme(
    SchemeInfo(
        name="noed",
        description="no error detection, single cluster",
        replicates=False,
        check_placement="none",
        cluster_policy="unified",
        home_cluster=0,
        min_clusters=1,
        uses_delay=False,
        assignment_reads_grid=False,
        make_assignment=_sced_assignment,
    )
)

register_scheme(
    SchemeInfo(
        name="sced",
        description="error detection, everything on one cluster",
        replicates=True,
        check_placement="pre-consumer",
        cluster_policy="unified",
        home_cluster=0,
        min_clusters=1,
        uses_delay=False,
        assignment_reads_grid=False,
        make_assignment=_sced_assignment,
    )
)

register_scheme(
    SchemeInfo(
        name="dced",
        description="error detection, fixed original/checker cluster split",
        replicates=True,
        check_placement="pre-consumer",
        cluster_policy="role-split",
        min_clusters=2,
        uses_delay=True,
        assignment_reads_grid=False,
        make_assignment=_dced_assignment,
    )
)

register_scheme(
    SchemeInfo(
        name="casted",
        description="error detection, adaptive BUG placement",
        replicates=True,
        check_placement="pre-consumer",
        cluster_policy="adaptive",
        min_clusters=2,
        uses_delay=True,
        make_assignment=_casted_assignment,
    )
)
