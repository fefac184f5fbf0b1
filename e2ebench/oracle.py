"""Output oracles: the paper's fold over acknowledged writes.

The client records every acknowledged write in commit order and every
query answer with the number of writes acknowledged before it (one
request is outstanding at a time, so that number names the version the
query read).  :meth:`Oracle.check` replays the writes with
:func:`repro.parallel.apply.apply_parallel` and compares each answer
with :func:`repro.relational.evaluate.evaluate` on the fold's database.

The naive reference evaluator materializes every product, and the
manager three-way self-join would be a product of 8*10^9 tuples at
2,000 employees; that shape is checked against a hash join over the
same fold instead.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from ops import QUERIES


def wire_receivers(method: str, receivers: Sequence) -> List:
    """An op's receivers as :class:`~repro.core.receiver.Receiver`\\ s."""
    from repro.core.receiver import Receiver
    from repro.graph.instance import Obj

    if method == "raise_salary":
        return [
            Receiver([Obj("Employee", emp), Obj("Money", level)])
            for emp, level in receivers
        ]
    return [Receiver([Obj("Employee", emp)]) for emp in receivers]


def salary_rows(instance) -> frozenset:
    """``Employee.salary`` of ``instance`` as ``(employee, money)`` keys."""
    return frozenset(
        (edge.source.key, edge.target.key)
        for edge in instance.edges
        if edge.label == "salary"
    )


class Oracle:
    """The sequential fold of acknowledged writes, plus query checks."""

    def __init__(self, instance) -> None:
        from repro.server.testing import standard_methods

        self.initial = instance
        self.methods = standard_methods()

    def check(
        self,
        writes: Sequence[Tuple[str, Tuple]],
        queries: Sequence[Tuple[int, str, Dict[str, Any]]],
    ) -> Tuple[frozenset, List[int], List[str]]:
        """Replay ``writes``; check ``queries``.

        ``queries`` holds ``(writes_before, shape, result)``.  Returns
        the final ``Employee.salary`` rows, the rows each write changed
        (insertions plus deletions) and a list of failures.
        """
        from repro.parallel.apply import apply_parallel

        by_version: Dict[int, List[Tuple[str, Dict[str, Any]]]] = {}
        for before, shape, result in queries:
            by_version.setdefault(before, []).append((shape, result))
        failures: List[str] = []
        instance = self.initial
        rows = salary_rows(instance)
        changed: List[int] = []
        for index in range(len(writes) + 1):
            pending = by_version.get(index)
            if pending:
                failures.extend(_check_queries(instance, pending, index))
            if index == len(writes):
                break
            method, receivers = writes[index]
            instance = apply_parallel(
                self.methods[method],
                instance,
                wire_receivers(method, receivers),
            )
            after = salary_rows(instance)
            delta = len(rows ^ after)
            if delta != 2 * len(receivers):
                failures.append(
                    f"write {index} ({method}) changed {delta} salary rows,"
                    f" expected {2 * len(receivers)}"
                )
            changed.append(delta)
            rows = after
        return rows, changed, failures


def _check_queries(instance, pending, version: int) -> List[str]:
    from repro.objrel.mapping import instance_to_database
    from repro.relational.evaluate import evaluate
    from repro.relational.parser import parse_expression
    from repro.server import protocol

    database = instance_to_database(instance)
    expected: Dict[str, Tuple[List[str], List]] = {}
    failures = []
    for shape, result in pending:
        if shape not in expected:
            if shape == "mgr3":
                expected[shape] = (["Employee", "gsal"], _mgr3_rows(database))
            else:
                relation = evaluate(parse_expression(QUERIES[shape]), database)
                expected[shape] = (
                    list(relation.schema.names),
                    protocol.encode_rows(relation.tuples),
                )
        columns, rows = expected[shape]
        if result.get("columns") != columns or result.get("rows") != rows:
            failures.append(
                f"query {shape} after {version} writes: "
                f"{len(result.get('rows', []))} rows differ from the "
                f"reference's {len(rows)}"
            )
    return failures


def _mgr3_rows(database) -> List:
    from repro.server import protocol

    manager: Dict[Any, List[Any]] = {}
    for emp, boss in database.relation("Employee.manager").tuples:
        manager.setdefault(emp, []).append(boss)
    salary: Dict[Any, List[Any]] = {}
    for emp, money in database.relation("Employee.salary").tuples:
        salary.setdefault(emp, []).append(money)
    rows = set()
    for emp, bosses in manager.items():
        for boss in bosses:
            for grand in manager.get(boss, ()):
                for money in salary.get(grand, ()):
                    rows.add((emp, money))
    return protocol.encode_rows(rows)
