"""The counting-delta algebra shared by both directions of maintenance.

Two compilers lower queries onto these operators: the write path
(:mod:`repro.ivm.writeplan`) pushes client deltas through the update
views, and the result tier (:mod:`repro.query.resultcache`) pushes store
DML through cached read plans.  They differ only in their leaf scans;
every operator above the leaves — and its delta rule — lives here once.

Each rule transforms a signed stream of changed input rows into a signed
stream of changed output rows, mirroring the bag semantics of
:func:`repro.algebra.evaluate._evaluate` exactly:

* scan      — the recorded net changes themselves (leaf-specific);
* select    — filter each signed row by the condition;
* project   — map each signed row through the projection items;
* union-all — concatenate branch deltas, NULL-padded to the union width;
* ⋈ on k    — ``ΔL ⋈ R_new + L_old ⋈ ΔR``;
* ⟕ on k    — the same two terms (``ΔL`` matched-or-padded) plus *pad
  transitions*: at a join key whose right match count crosses
  0 ↔ positive, the old left rows at that key lose or gain their
  NULL-padded row.

Join terms never scan: each node compiles *probes* — "the (old or new)
rows of this subtree matching these column values" — that leaves answer
from key indexes, so propagation is O(|Δ|).  Old-side probes rewind the
new state through the delta, so no snapshot of the old state is kept.

Every node carries the ``sources`` (client sets and associations, or
store tables) under it; a subtree whose sources are disjoint from the
runtime's ``touched`` set propagates nothing and is skipped.  Any shape
the rules cannot maintain raises :class:`~repro.errors.IvmError`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.algebra.conditions import evaluate_condition
from repro.algebra.evaluate import (
    TYPE_TAG,
    RowDict,
    _RowConditionContext,
    join_key,
    join_rows,
    join_spec,
    output_columns,
)
from repro.algebra.queries import (
    Const,
    Join,
    LeftOuterJoin,
    Project,
    Query,
    Select,
    UnionAll,
)
from repro.errors import EvaluationError, IvmError

Signed = Tuple[int, RowDict]
Probe = Callable[["Runtime", Tuple[object, ...], bool], List[RowDict]]


class Runtime:
    """Everything a lowered plan reads during one propagation.

    ``state`` is the *new* state (the delta has already been applied);
    ``touched`` names the sources with net activity in ``delta``.
    """

    __slots__ = ("delta", "state", "context", "touched")

    def __init__(self, delta, state, context, touched: FrozenSet[str]) -> None:
        self.delta = delta
        self.state = state
        self.context = context
        self.touched = touched


def matches(row: RowDict, columns: Tuple[str, ...], values: Tuple[object, ...]) -> bool:
    return all(row.get(c) == v for c, v in zip(columns, values))


def never_probe(rt: Runtime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
    return []


def fold_signed(counts: Dict[Hashable, int], key: Hashable, sign: int) -> Tuple[int, int]:
    """Add *sign* to ``counts[key]`` in place, dropping the key when it
    reaches zero; returns the (before, after) multiplicities."""
    before = counts.get(key, 0)
    after = before + sign
    if after:
        counts[key] = after
    else:
        counts.pop(key, None)
    return before, after


class Node:
    """One lowered operator: a delta rule plus keyed-probe compilation."""

    __slots__ = ("columns", "sources")

    def delta(self, rt: Runtime) -> List[Signed]:
        raise NotImplementedError

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        """A probe returning the node's (old or new) rows matching the
        given column constraints — the O(|delta|) replacement for
        re-evaluating the whole subtree."""
        raise NotImplementedError


class SelectNode(Node):
    __slots__ = ("source", "condition")

    def __init__(self, source: Node, condition) -> None:
        self.source = source
        self.condition = condition
        self.columns = source.columns
        self.sources = source.sources

    def _keep(self, rt: Runtime, row: RowDict) -> bool:
        return evaluate_condition(self.condition, _RowConditionContext(row, rt.context))

    def delta(self, rt: Runtime) -> List[Signed]:
        return [(s, r) for s, r in self.source.delta(rt) if self._keep(rt, r)]

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        source_probe = self.source.make_probe(columns)

        def probe(rt: Runtime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            return [r for r in source_probe(rt, values, old) if self._keep(rt, r)]

        return probe


class ProjectNode(Node):
    __slots__ = ("source", "items")

    def __init__(self, source: Node, items) -> None:
        self.source = source
        self.items = items
        self.columns = tuple(item.output for item in items)
        self.sources = source.sources

    def _project(self, row: RowDict) -> RowDict:
        out: RowDict = {}
        for item in self.items:
            if isinstance(item.expr, Const):
                out[item.output] = item.expr.value
            else:
                name = item.expr.name
                if name not in row:
                    raise EvaluationError(
                        f"projection references missing column {name!r} "
                        f"(row has {sorted(k for k in row if k != TYPE_TAG)})"
                    )
                out[item.output] = row[name]
        return out

    def delta(self, rt: Runtime) -> List[Signed]:
        return [(s, self._project(r)) for s, r in self.source.delta(rt)]

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        by_output = {item.output: item for item in self.items}
        pinned: List[Tuple[int, object]] = []  # probe slot must equal this Const
        source_columns: List[str] = []
        source_slots: List[int] = []
        for i, column in enumerate(columns):
            item = by_output.get(column)
            if item is None:
                return never_probe  # projected rows never carry the column
            if isinstance(item.expr, Const):
                pinned.append((i, item.expr.value))
            else:
                source_columns.append(item.expr.name)
                source_slots.append(i)
        source_probe = self.source.make_probe(tuple(source_columns))

        def probe(rt: Runtime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            for i, pin in pinned:
                if values[i] != pin:
                    return []
            sub_values = tuple(values[i] for i in source_slots)
            rows = (self._project(r) for r in source_probe(rt, sub_values, old))
            return [r for r in rows if matches(r, columns, values)]

        return probe


class UnionNode(Node):
    __slots__ = ("branches",)

    def __init__(self, branches: Tuple[Node, ...], all_columns: Tuple[str, ...]) -> None:
        self.branches = branches
        self.columns = all_columns
        self.sources = frozenset().union(*(b.sources for b in branches))

    def _pad(self, row: RowDict) -> RowDict:
        return {column: row.get(column) for column in self.columns}

    def delta(self, rt: Runtime) -> List[Signed]:
        out: List[Signed] = []
        for branch in self.branches:
            if branch.sources.isdisjoint(rt.touched):
                continue
            out.extend((s, self._pad(r)) for s, r in branch.delta(rt))
        return out

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        branch_probes = [b.make_probe(columns) for b in self.branches]

        def probe(rt: Runtime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            out: List[RowDict] = []
            for bp in branch_probes:
                padded = (self._pad(r) for r in bp(rt, values, old))
                out.extend(r for r in padded if matches(r, columns, values))
            return out

        return probe


class JoinNode(Node):
    """Inner join, or left outer join with pad transitions (``outer``)."""

    __slots__ = ("left", "right", "on", "outer", "spec", "left_probe", "right_probe")

    def __init__(
        self, left: Node, right: Node, on: Optional[Tuple[str, ...]], outer: bool
    ) -> None:
        self.left = left
        self.right = right
        self.outer = outer
        self.spec = join_spec(left.columns, right.columns, on)
        if not self.spec.join_columns:
            raise IvmError("cannot maintain a cross join incrementally")
        self.on = tuple(self.spec.join_columns)
        self.left_probe = left.make_probe(self.on)
        self.right_probe = right.make_probe(self.on)
        self.columns = left.columns + tuple(
            c for c in right.columns if c not in left.columns
        )
        self.sources = left.sources | right.sources

    def delta(self, rt: Runtime) -> List[Signed]:
        out: List[Signed] = []
        spec, outer = self.spec, self.outer
        if not self.left.sources.isdisjoint(rt.touched):
            # ΔL ⋈ R_new; under ⟕ an unmatched left row NULL-pads
            for sign, lrow in self.left.delta(rt):
                key = join_key(lrow, self.on)
                if key is None and not outer:
                    continue
                matched = self.right_probe(rt, key, False) if key is not None else []
                for row in join_rows([lrow], matched, spec, outer, False):
                    out.append((sign, row))
        if not self.right.sources.isdisjoint(rt.touched):
            by_key: Dict[Tuple[object, ...], List[Signed]] = {}
            for sign, rrow in self.right.delta(rt):
                key = join_key(rrow, self.on)
                if key is None:
                    continue  # NULL keys never join and ⟕ never right-pads
                by_key.setdefault(key, []).append((sign, rrow))
            for key, signed_rows in by_key.items():
                # L_old ⋈ ΔR (term one already covered ΔL against R_new)
                left_old = self.left_probe(rt, key, True)
                if not left_old:
                    continue
                for sign, rrow in signed_rows:
                    for row in join_rows(left_old, [rrow], spec, False, False):
                        out.append((sign, row))
                if outer:
                    out.extend(self._pad_transition(rt, key, signed_rows, left_old))
        return out

    def _pad_transition(
        self, rt: Runtime, key: Tuple[object, ...], signed_rows: List[Signed],
        left_old: List[RowDict],
    ) -> List[Signed]:
        """The old left rows at *key* lose their NULL-padded row when the
        right match count rises from 0, and regain it when it falls to 0."""
        m_new = len(self.right_probe(rt, key, False))
        m_old = m_new - sum(s for s, _ in signed_rows)
        if m_old < 0:
            raise IvmError(f"negative right-side multiplicity at join key {key!r}")
        if m_old == 0 and m_new > 0:
            pad_sign = -1
        elif m_old > 0 and m_new == 0:
            pad_sign = +1
        else:
            return []
        return [(pad_sign, row) for row in join_rows(left_old, [], self.spec, True, False)]

    def make_probe(self, columns: Tuple[str, ...]) -> Probe:
        if tuple(columns) != self.on:
            raise IvmError(
                f"join probe on {columns!r} does not match join key {self.on!r}"
            )

        def probe(rt: Runtime, values: Tuple[object, ...], old: bool) -> List[RowDict]:
            left_rows = self.left_probe(rt, values, old)
            if not left_rows:
                return []
            right_rows = self.right_probe(rt, values, old)
            return join_rows(left_rows, right_rows, self.spec, self.outer, False)

        return probe


def compile_delta(
    query: Query, context, leaf: Callable[[Query, object], Node]
) -> Node:
    """Lower *query* onto the algebra.  Scans — and any node the algebra
    does not own — go to ``leaf(query, context)``, which raises
    :class:`IvmError` for shapes it cannot maintain."""
    if isinstance(query, Select):
        return SelectNode(compile_delta(query.source, context, leaf), query.condition)
    if isinstance(query, Project):
        return ProjectNode(compile_delta(query.source, context, leaf), query.items)
    if isinstance(query, UnionAll):
        return UnionNode(
            tuple(compile_delta(b, context, leaf) for b in query.branches),
            output_columns(query, context),
        )
    if isinstance(query, (Join, LeftOuterJoin)):
        return JoinNode(
            compile_delta(query.left, context, leaf),
            compile_delta(query.right, context, leaf),
            query.on,
            outer=isinstance(query, LeftOuterJoin),
        )
    return leaf(query, context)
