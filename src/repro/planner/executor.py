"""From chosen plan to running operators.

:mod:`repro.planner.optimizer` prices candidate access paths with the
Section 4 cost model; this module closes the loop: it derives the
model's inputs (page counts, normalized selectivities) from actual
table instances, asks the optimizer for the cheapest plan and builds
the corresponding operator tree — the full
"restriction + sort" query service the paper envisions for a DBMS
kernel with multidimensional indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import takewhile
from operator import itemgetter
from typing import Any, Callable, Iterator, Sequence

from .. import telemetry
from ..core.query_space import ComparisonSpace, QuerySpace
from ..costmodel.model import CostParameters
from ..invariants import require_instance
from ..telemetry import TelemetryEvent, compat_aliases
from ..relational.operators import (
    ExternalMergeSort,
    FirstTupleTimer,
    FullTableScan,
    IOTScan,
    Operator,
    TetrisOperator,
    UBRangeScan,
)
from ..relational.schema import Encoder, Schema
from ..relational.table import HeapTable, IOTTable, UBTable
from ..storage.buffer import BufferPool
from ..storage.errors import StorageError
from .optimizer import CandidatePlan, RelationStats, choose_plan

ValueRange = tuple[Any, Any]
#: re-plans one query may go through before it gives up
MAX_DEGRADATIONS = 8
#: a plan plus the operator in it carrying method-specific statistics (the
#: external sort or the Tetris operator; ``None`` for a plain scan)
AccessPath = tuple[Operator, ExternalMergeSort | TetrisOperator | None]


@dataclass
class PhysicalDesign:
    """The physical instances available for one logical relation.

    All instances must share the same schema and contents.  ``attributes``
    lists the index-relevant attributes (the UB-Tree dimension order when
    a UB instance exists).
    """

    attributes: tuple[str, ...]
    heap: HeapTable | None = None
    iots: dict[str, IOTTable] = field(default_factory=dict)  #: leading attr -> table
    ub: UBTable | None = None

    def __post_init__(self) -> None:
        if self.heap is None and not self.iots and self.ub is None:
            raise ValueError("a physical design needs at least one instance")
        for leading, table in self.iots.items():
            if table.key_attrs[0] != leading:
                raise ValueError(
                    f"IOT registered under {leading!r} leads with "
                    f"{table.key_attrs[0]!r}"
                )
        if self.ub is not None and tuple(self.ub.dims) != self.attributes:
            raise ValueError("UB instance dimensions must match `attributes`")

    @property
    def schema(self) -> Schema:
        for table in self._instances():
            return table.schema
        raise AssertionError("unreachable: design has at least one instance")

    def _instances(self) -> Iterator[HeapTable | IOTTable | UBTable]:
        if self.heap is not None:
            yield self.heap
        yield from self.iots.values()
        if self.ub is not None:
            yield self.ub

    def shared_buffer(self) -> "BufferPool":
        """The buffer pool all instances run on (they share one database)."""
        for table in self._instances():
            return table.db.buffer
        raise AssertionError("unreachable: design has at least one instance")

    def relation_stats(self) -> RelationStats:
        """Model inputs derived from the actual instances."""
        if self.heap is not None:
            pages = self.heap.page_count
        else:
            pages = min(table.page_count for table in self._instances())
        ub_fill = self.ub.page_count / pages if self.ub is not None else 1.4
        return RelationStats(
            pages=pages,
            attributes=self.attributes,
            heap_instance=self.heap.name if self.heap is not None else None,
            iot_instances=tuple(
                (leading, table.name) for leading, table in self.iots.items()
            ),
            ub_instance=self.ub.name if self.ub is not None else None,
            ub_fill_factor=ub_fill,
        )

    def normalized_restrictions(
        self, restrictions: dict[str, ValueRange] | None
    ) -> dict[str, tuple[float, float]]:
        """Value-level ranges to the model's normalized ``(y, z)`` pairs.

        The mapping assumes a uniform domain (the paper's Section 4
        assumption).
        """
        result: dict[str, tuple[float, float]] = {}
        schema = self.schema
        for attr, (lo, hi) in (restrictions or {}).items():
            encoder = schema.attribute(attr).encoder
            domain = encoder.code_max + 1
            lo_code = encoder.encode(lo) if lo is not None else 0
            hi_code = encoder.encode(hi) if hi is not None else encoder.code_max
            result[attr] = (lo_code / domain, (hi_code + 1) / domain)
        return result


def _bound_check(position: int, lo: Any, hi: Any) -> "Callable[[tuple], bool]":
    """One attribute's range test, specialised to the bounds present."""
    if lo is None:
        return lambda row: row[position] <= hi
    if hi is None:
        return lambda row: row[position] >= lo
    if lo == hi:
        return lambda row: row[position] == lo
    return lambda row: lo <= row[position] <= hi


def compile_residual(
    schema: Schema, restrictions: dict[str, ValueRange]
) -> "Callable[[tuple], bool] | None":
    """The per-row predicate for ``restrictions``; ``None`` when empty.

    Which ends are open is decided here, once per plan: a row costs one
    comparison per bound present, a single restriction is one closure.
    """
    checks = [
        _bound_check(schema.position(attr), lo, hi)
        for attr, (lo, hi) in restrictions.items()
        if lo is not None or hi is not None
    ]
    if len(checks) <= 1:
        return checks[0] if checks else None

    def passes(row: tuple) -> bool:
        for check in checks:
            if not check(row):
                return False
        return True

    return passes


def _box_enforces(encoder: Encoder, bound: Any) -> bool:
    """Whether the encoded box test alone enforces ``bound`` (or it is open).

    The kernels test encoded points against the encoded box exactly, so
    the box *is* the predicate iff no two values share a code
    (``lossless``) and the bound is itself a code's value (round-trips).
    """
    return bound is None or (
        encoder.lossless and encoder.decode(encoder.encode(bound)) == bound
    )


def _comparison_enforces(left: Encoder, right: Encoder) -> bool:
    """Whether comparing two columns' codes alone enforces comparing
    their values: both go through one lossless map (the same encoder
    class with the same parameters), so codes order exactly as values."""
    return left.lossless and type(left) is type(right) and vars(left) == vars(right)


def comparison_residual(
    schema: Schema, left: str, op: str, right: str
) -> "Callable[[tuple], bool] | None":
    """The per-row check ``row[left] op row[right]`` that a
    :class:`~repro.core.query_space.ComparisonSpace` over the two
    columns' codes leaves to do; ``None`` when it leaves nothing
    (:func:`_comparison_enforces`), the drop rule for two-column
    comparisons."""
    encoders = (schema.attribute(left).encoder, schema.attribute(right).encoder)
    if _comparison_enforces(*encoders):
        return None
    # the same comparison, over row positions instead of point dimensions
    return ComparisonSpace(
        len(schema), schema.position(left), op, schema.position(right)
    ).contains_point


def build_access_path(
    table: HeapTable | IOTTable | UBTable,
    restrictions: dict[str, ValueRange] | None,
    sort_attrs: Sequence[str] = (),
    *,
    memory_pages: int,
    merge_degree: int = 2,
    pushdown: QuerySpace | None = None,
) -> AccessPath:
    """Restricted, optionally sorted access to one physical instance.

    The paper's ``τ_{σ,ω}``: restriction and sort order are arguments of
    the access, the method follows from the instance type, and only the
    bounds the path does not enforce exactly are re-checked per row
    (``docs/ALGORITHM.md`` §6):

    * ``HeapTable``: full scan re-checking every bound, + external merge
      sort (``memory_pages``, ``merge_degree``) when a sort is asked for;
    * ``IOTTable``: leading-key range scan (exact, so that attribute's
      bounds are dropped), + sort unless the key already leads with
      ``sort_attrs``;
    * ``UBTable``: the Tetris operator when sorted (only a sweep can use
      ``pushdown``), a UB range scan when not; a dimension's bound is
      dropped iff :func:`_box_enforces`.

    ``sort_attrs`` may end in tie-breakers a UB instance does not index
    (Q3's LINENUMBER): a sort keys on all of them, a sweep orders by the
    leading ones that are its dimensions.
    """
    wanted = restrictions or {}
    schema = table.schema
    if isinstance(table, UBTable):
        box = {attr: wanted[attr] for attr in wanted if attr in table.dims}
        unenforced = dict(wanted)
        for attr, (lo, hi) in box.items():
            encoder = schema.attribute(attr).encoder
            unenforced[attr] = (
                None if _box_enforces(encoder, lo) else lo,
                None if _box_enforces(encoder, hi) else hi,
            )
        residual = compile_residual(schema, unenforced)
        if not sort_attrs:
            return UBRangeScan(table, box or None, predicate=residual), None
        sweep = TetrisOperator(
            table,
            box or None,
            tuple(takewhile(table.dims.__contains__, sort_attrs)),
            predicate=residual,
            pushdown=pushdown,
        )
        return sweep, sweep
    scan: Operator
    if isinstance(table, IOTTable):
        leading = table.key_attrs[0]
        lo, hi = wanted.get(leading, (None, None))
        rest = {attr: wanted[attr] for attr in wanted if attr != leading}
        scan = IOTScan(table, lo, hi, predicate=compile_residual(schema, rest))
        presorted = table.key_attrs[: len(sort_attrs)] == tuple(sort_attrs)
    else:
        table = require_instance(table, HeapTable, "an access path")
        scan = FullTableScan(table, predicate=compile_residual(schema, wanted))
        presorted = False
    if not sort_attrs or presorted:
        return scan, None
    sort = ExternalMergeSort(
        scan,
        key=itemgetter(*(schema.position(attr) for attr in sort_attrs)),
        disk=table.db.disk,
        memory_pages=memory_pages,
        page_capacity=table.page_capacity,
        merge_degree=merge_degree,
        retry_policy=table.db.retry_policy,
    )
    return sort, sort


@dataclass
class ExecutablePlan:
    """The optimizer's pick, bound to a runnable operator tree."""

    choice: CandidatePlan
    operator: Operator


def plan_sorted_query(
    design: PhysicalDesign,
    restrictions: dict[str, ValueRange] | None,
    sort_attr: str,
    params: CostParameters,
    *,
    require_pipelined: bool = False,
) -> ExecutablePlan:
    """Choose and build the cheapest plan for a sort+restriction query.

    Returns the costed choice plus an operator tree that streams the
    restricted relation in ``sort_attr`` order.
    """
    choice = choose_plan(
        design.relation_stats(),
        design.normalized_restrictions(restrictions),
        sort_attr,
        params,
        require_pipelined=require_pipelined,
    )
    operator, _ = build_access_path(
        next(t for t in design._instances() if t.name == choice.instance),
        restrictions,
        (sort_attr,),
        memory_pages=params.memory_pages,
        merge_degree=params.merge_degree,
    )
    return ExecutablePlan(choice=choice, operator=operator)


# ----------------------------------------------------------------------
# graceful degradation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DegradationEvent(TelemetryEvent):
    """One plan abort-and-replan step, reported to the caller.

    ``fallback_method``/``fallback_instance`` name the plan the query
    continued with, or ``None`` when the failure exhausted the design.
    ``repaired_pages`` lists pages healed from replicas in response to
    this failure — when non-empty, the failed instance stayed in the
    design and the retry ran on the *same* (now repaired) instance.
    Each step is emitted on the :mod:`repro.telemetry` bus exactly
    once, in order, when the query settles (on success or on
    :class:`PlanExhaustedError`), so subscribers see it finalized.
    """

    method: str
    instance: str
    error_type: str
    error: str
    fallback_method: str | None = None
    fallback_instance: str | None = None
    repaired_pages: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.repaired_pages:
            healed = ", ".join(str(page) for page in self.repaired_pages)
            return (
                f"{self.method} on {self.instance} aborted with "
                f"{self.error_type} ({self.error}); repaired page(s) "
                f"{healed} from replicas and re-planned on the full design"
            )
        target = (
            f"fell back to {self.fallback_method} on {self.fallback_instance}"
            if self.fallback_method is not None
            else "no fallback remained"
        )
        return (
            f"{self.method} on {self.instance} aborted with "
            f"{self.error_type} ({self.error}); {target}"
        )


# Kept only for the frozen benchmark harness; deleted by the harness-v2 PR.
register_degradation_observer, unregister_degradation_observer = compat_aliases(
    DegradationEvent
)


class PlanExhaustedError(StorageError):
    """Every physical instance of the design failed for this query.

    Carries the full degradation trail so callers can report *why*
    the relation became unreadable.
    """

    def __init__(self, message: str, degradations: tuple[DegradationEvent, ...]):
        super().__init__(message)
        self.degradations = degradations


@dataclass
class QueryResult:
    """Materialized rows plus the (possibly degraded) plan that made them.

    ``time_to_first`` is the simulated seconds between starting the
    winning (final) plan and its first output tuple — the paper's
    time-to-first-result metric, ``None`` for an empty result.  Aborted
    plans earlier on the degradation ladder do not count against it.
    """

    rows: list[tuple]
    plan: ExecutablePlan
    degradations: tuple[DegradationEvent, ...] = ()
    time_to_first: float | None = None

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)


def _design_without(
    design: PhysicalDesign, choice: CandidatePlan
) -> PhysicalDesign | None:
    """The design minus the instance ``choice`` ran on, or ``None``.

    Removing the failed instance and re-running the optimizer *is* the
    degradation ladder: the cost model ranks whatever survives, with
    FTS + external sort the universal last resort because it needs no
    index structure at all.
    """
    failed = choice.instance
    heap = None if design.heap is None or design.heap.name == failed else design.heap
    ub = None if design.ub is None or design.ub.name == failed else design.ub
    iots = {
        leading: table
        for leading, table in design.iots.items()
        if table.name != failed
    }
    if heap is None and not iots and ub is None:
        return None
    return PhysicalDesign(
        attributes=design.attributes, heap=heap, iots=iots, ub=ub
    )


def execute_sorted_query(
    design: PhysicalDesign,
    restrictions: dict[str, ValueRange] | None,
    sort_attr: str,
    params: CostParameters,
    *,
    require_pipelined: bool = False,
) -> QueryResult:
    """Run a sort+restriction query, degrading across instances on failure.

    When the chosen operator hits a typed :class:`StorageError`
    (quarantined page, unhealable corruption, retry exhaustion), the
    partial output is discarded, the failed physical instance is removed
    from the design, and the optimizer re-plans against the survivors —
    down to FTS + external sort as the last resort.  The result carries
    a :class:`DegradationEvent` per abort, so the caller always gets
    either rows that are *correct for the full query* or a typed
    :class:`PlanExhaustedError` — never silently truncated output.

    ``require_pipelined`` is honoured only for the initial plan; a
    degraded query prefers a correct blocking plan over no plan.
    """
    events: list[DegradationEvent] = []
    pipelined = require_pipelined
    current: PhysicalDesign | None = design
    while True:
        if current is None:
            telemetry.emit(*events)
            raise PlanExhaustedError(
                f"no physical instance of the design can serve the query "
                f"after {len(events)} failure(s): "
                + "; ".join(event.describe() for event in events),
                tuple(events),
            )
        if len(events) > MAX_DEGRADATIONS:
            telemetry.emit(*events)
            raise PlanExhaustedError(
                f"gave up after {len(events)} degradations: "
                + "; ".join(event.describe() for event in events),
                tuple(events),
            )
        try:
            plan = plan_sorted_query(
                current,
                restrictions,
                sort_attr,
                params,
                require_pipelined=pipelined,
            )
        except ValueError as exc:
            # the optimizer found no candidate on the surviving instances
            # (e.g. only a pipelined plan was admissible and it is gone)
            if pipelined and not events:
                raise
            telemetry.emit(*events)
            raise PlanExhaustedError(
                f"re-planning failed after {len(events)} degradation(s): {exc}",
                tuple(events),
            ) from exc
        if events and events[-1].fallback_method is None:
            events[-1] = replace(
                events[-1],
                fallback_method=plan.choice.method,
                fallback_instance=plan.choice.instance,
            )
        timer = FirstTupleTimer(plan.operator, current.shared_buffer().disk)
        try:
            rows = list(timer)
        except StorageError as exc:
            # before dropping the instance, try replica-driven repair of
            # every quarantined page: a healed instance stays eligible
            # and the optimizer re-ranks the *full* surviving design
            repaired = current.shared_buffer().repair_quarantined()
            events.append(
                DegradationEvent(
                    method=plan.choice.method,
                    instance=plan.choice.instance,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    repaired_pages=tuple(repaired),
                )
            )
            if not repaired:
                current = _design_without(current, plan.choice)
            # degraded plans may block; correctness outranks pipelining
            pipelined = False
            continue
        telemetry.emit(*events)
        return QueryResult(
            rows=rows,
            plan=plan,
            degradations=tuple(events),
            time_to_first=timer.time_to_first,
        )
