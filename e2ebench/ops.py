"""Seeded inputs for the three workloads: the company and the op sequence.

Everything the client sends is generated here from ``(workload, seed,
round)``.  Generation runs a small model of the ``Employee.salary``
relation alongside, so that every write is chosen to really change the
salaries it names, in the order the client will commit it.

The company is ``make_company`` (managers form a forest, eight salary
levels) with one change: ``NewSal`` maps each level to the *next* level,
cyclically.  With the stock table a raise leaves the level set
(``L -> L + 500``), so after enough writes no manager earns a level any
more and (C') writes stop changing anything; with the cycle every
salary stays a level and every later (B') or (C') write can change it
again.  The instance keeps the stock size: 2,000 employees give 2,024
objects and about 4,000 edges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

LEVELS: Tuple[int, ...] = tuple(1000 * (i + 1) for i in range(8))
NEXT_LEVEL: Dict[int, int] = {
    level: LEVELS[(i + 1) % len(LEVELS)] for i, level in enumerate(LEVELS)
}
BATCH = 8

#: Query shapes.  ``mgr3`` is a three-way self-join over the Employee
#: class (employee, manager, manager's manager's salary); ``newsal``
#: joins every salary to its raise target, with the small NewSal
#: product taken first so the reference evaluator stays fast.
QUERIES: Dict[str, str] = {
    "small": "pi[salary](Employee.salary)",
    "scan": "Employee.salary",
    "mgr3": (
        "pi[Employee, gsal]((Employee.manager"
        " * rho[Employee->M](rho[manager->G](Employee.manager))"
        " * rho[Employee->G2](rho[salary->gsal](Employee.salary)))"
        " : manager=M, G=G2)"
    ),
    "newsal": (
        "pi[Employee, new]((Employee.salary"
        " * pi[old, new]((NewSal.old * rho[NewSal->NS2](NewSal.new))"
        " : NewSal=NS2)) : salary=old)"
    ),
}
SHAPES: Tuple[str, ...] = ("small", "scan", "mgr3", "newsal")


@dataclass(frozen=True)
class Workload:
    """Company size, client connections and blocks per round (one
    untimed warm-up block comes first)."""

    employees: int
    connections: int
    blocks: int


WORKLOADS: Dict[str, Workload] = {
    "ingest": Workload(employees=2000, connections=1, blocks=8),
    "query_mix": Workload(employees=2000, connections=1, blocks=12),
    "txn_contend": Workload(employees=250, connections=2, blocks=20),
}


@dataclass(frozen=True)
class Op:
    """One client-level operation.

    ``kind`` is ``write`` (autocommit (B') ``apply_batch``), ``cross``
    (autocommit (C') ``apply_batch``, routed cross-shard), ``query`` or
    ``txn`` (``begin``/``apply``/``commit`` on one connection).  A
    ``txn`` may carry ``interleave``, an op the *other* connection runs
    between ``apply`` and ``commit``; ``conflicts`` says its first commit
    must come back ``CONFLICT`` and be retried at once.
    """

    kind: str
    conn: int = 0
    method: str = ""
    receivers: Tuple = ()
    shape: str = ""
    interleave: Optional["Op"] = None
    conflicts: bool = False
    measured: bool = True


def company_tables(n_employees: int, seed: int):
    """``(employees, newsal)`` tables of the benchmark company."""
    from repro.sqlsim.scenarios import make_company
    from repro.sqlsim.table import Table

    employees, _, _ = make_company(
        n_employees=n_employees, seed=seed, salary_levels=len(LEVELS)
    )
    newsal = Table("NewSal", ("Old", "New"), key="Old")
    for level in LEVELS:
        newsal.insert({"Old": level, "New": NEXT_LEVEL[level]})
    return employees, newsal


def company(n_employees: int, seed: int):
    """The benchmark company as an object-base instance."""
    from repro.sqlsim.scenarios import tables_to_instance

    employees, newsal = company_tables(n_employees, seed)
    return tables_to_instance(employees, newsal=newsal)


def company_seed(workload: str, seed: int, round_index: int) -> int:
    return random.Random(f"company:{workload}:{seed}:{round_index}").randrange(
        1 << 30
    )


class _Model:
    """Salaries and managers, advanced in commit order."""

    def __init__(self, n_employees: int, seed: int) -> None:
        employees, _ = company_tables(n_employees, seed)
        self.salary: Dict[int, int] = {}
        self.manager: Dict[int, int] = {}
        for row in employees.rows():
            self.salary[row["EmpId"]] = row["Salary"]
            if row["Manager"] is not None:
                self.manager[row["EmpId"]] = row["Manager"]
        self.ids = sorted(self.salary)

    def raise_batch(
        self, rng: random.Random, exclude: Sequence[int] = ()
    ) -> Tuple[Tuple[int, int], ...]:
        """(B') receivers ``(employee, level)``: the employee's salary
        becomes ``NEXT_LEVEL[level]``, which differs from its current
        one."""
        pool = sorted(set(self.ids) - set(exclude))
        picked = []
        for emp in rng.sample(pool, BATCH):
            levels = [
                level
                for level in LEVELS
                if NEXT_LEVEL[level] != self.salary[emp]
            ]
            picked.append((emp, rng.choice(levels)))
        return tuple(sorted(picked))

    def apply_raise(self, receivers) -> None:
        for emp, level in receivers:
            self.salary[emp] = NEXT_LEVEL[level]

    def cross_batch(self, rng: random.Random) -> Tuple[int, ...]:
        """(C') receivers: employees whose manager's raised salary
        differs from their own."""
        pool = [
            emp
            for emp, boss in sorted(self.manager.items())
            if NEXT_LEVEL[self.salary[boss]] != self.salary[emp]
        ]
        return tuple(sorted(rng.sample(pool, BATCH)))

    def apply_cross(self, receivers) -> None:
        new = {
            emp: NEXT_LEVEL[self.salary[self.manager[emp]]]
            for emp in receivers
        }
        self.salary.update(new)


class _Generator:
    def __init__(self, model: _Model, rng: random.Random) -> None:
        self.model = model
        self.rng = rng

    def write(self, conn: int, exclude=()) -> Op:
        receivers = self.model.raise_batch(self.rng, exclude)
        self.model.apply_raise(receivers)
        return Op("write", conn, "raise_salary", receivers)

    def cross(self, conn: int) -> Op:
        receivers = self.model.cross_batch(self.rng)
        self.model.apply_cross(receivers)
        return Op("cross", conn, "manager_salary", receivers)

    def query(self, conn: int, shape: str) -> Op:
        return Op("query", conn, shape=shape)

    def replayed_raise(self, conn: int, other: Optional[int]) -> Op:
        """A (B') txn; with ``other``, that connection writes
        ``Employee.salary`` (on other employees) before the commit,
        which sends the commit down the replay tier."""
        receivers = self.model.raise_batch(self.rng)
        interleave = None
        if other is not None:
            interleave = self.write(
                other, exclude=[emp for emp, _ in receivers]
            )
        self.model.apply_raise(receivers)
        return Op(
            "txn", conn, "raise_salary", receivers, interleave=interleave
        )

    def aborted_cross(self, conn: int, interleave: Op) -> Op:
        """A (C') txn whose read set ``interleave`` overwrites before
        the commit: the first commit aborts, the retry commits on the
        new head (so its receivers are chosen against that head)."""
        receivers = self.model.cross_batch(self.rng)
        self.model.apply_cross(receivers)
        return Op(
            "txn",
            conn,
            "manager_salary",
            receivers,
            interleave=interleave,
            conflicts=True,
        )


def _block(name: str, gen: _Generator, index: int) -> List[Op]:
    # Every block carries every op kind, so each run measures every
    # end-to-end metric; the kind the workload is about dominates.
    if name == "ingest":
        # Each query follows a write, so it never hits the cache.
        ops = []
        for _ in range(2):
            ops += [gen.write(0) for _ in range(3)]
            ops.append(gen.query(0, "small"))
        ops += [gen.replayed_raise(0, None), gen.cross(0)]
        return ops
    if name == "query_mix":
        ops = []
        for shape in SHAPES:
            ops += [gen.query(0, shape), gen.query(0, shape)]
        ops += [gen.write(0), gen.replayed_raise(0, None), gen.cross(0)]
        return ops
    if name == "txn_contend":
        a, o = index % 2, 1 - index % 2
        ops = [gen.replayed_raise(a, o)]
        ops.append(gen.aborted_cross(o, gen.cross(a)))
        ops.append(gen.aborted_cross(a, gen.write(o)))
        ops.append(gen.query(o, "small"))
        ops.append(gen.cross(a))
        return ops
    raise KeyError(name)


def _unmeasured(op: Op) -> Op:
    interleave = op.interleave and _unmeasured(op.interleave)
    return replace(op, interleave=interleave, measured=False)


def generate(
    workload: str, seed: int, round_index: int, blocks: Optional[int] = None
) -> List[Op]:
    """The op sequence of one round: a warm-up block, then ``blocks``
    measured ones (the workload's count by default).

    Same arguments, same sequence; the length never depends on a clock.
    """
    spec = WORKLOADS[workload]
    model = _Model(spec.employees, company_seed(workload, seed, round_index))
    gen = _Generator(
        model, random.Random(f"ops:{workload}:{seed}:{round_index}")
    )
    ops = [_unmeasured(op) for op in _block(workload, gen, 0)]
    for index in range(1, 1 + (spec.blocks if blocks is None else blocks)):
        ops.extend(_block(workload, gen, index))
    return ops
