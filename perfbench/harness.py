"""Operations, passes and their timing.

A workload is a fixed list of operations.  A pass runs every operation
once, in order, in a closed loop with a single client: the next operation
starts only when the previous one has returned.  Only the calls into the
program are timed; outputs are checked after the pass.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

from checks import SRC

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """The environment for a child interpreter that imports kspoly from
    the working tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


EXHAUSTED = object()  # output of a search that ran out of its budget


@dataclass(frozen=True)
class Op:
    """One call into the program.

    call receives the pass state (the outputs of the operations run so far
    in this pass, by name) and returns the output; check raises
    checks.Wrong when the output is wrong.  may_exhaust marks a search the
    program is known not to finish within its node budget: its
    SearchBudgetExceeded counts as a failed operation, not a wrong one.
    """

    name: str
    call: Callable[[dict], Any]
    check: Callable[[Any], None]
    may_exhaust: bool = False


@dataclass
class Workload:
    ops: list[Op]
    # extra checks made once per run, after the timed passes
    post_check: Callable[[], None] | None = None
    # per-layer counts read from one pass's outputs, for the traced run
    output_counts: Callable[[dict], dict] | None = None
    # make-up of the generated inputs, for the results file
    notes: dict = field(default_factory=dict)


@dataclass
class PassResult:
    seconds: float
    latencies: list[float]
    failed: int
    output_counts: dict  # Workload.output_counts of this pass's outputs


def run_pass(work: Workload) -> PassResult:
    from kspoly.contextuality import SearchBudgetExceeded

    state: dict = {}
    latencies = []
    start = perf_counter()
    for op in work.ops:
        t0 = perf_counter()
        try:
            out = op.call(state)
        except SearchBudgetExceeded:
            if not op.may_exhaust:
                raise
            out = EXHAUSTED
        latencies.append(perf_counter() - t0)
        state[op.name] = out
    seconds = perf_counter() - start
    failed = 0
    for op in work.ops:
        if state[op.name] is EXHAUSTED:
            failed += 1
        else:
            op.check(state[op.name])
    counts = work.output_counts(state) if work.output_counts else {}
    return PassResult(seconds, latencies, failed, counts)


def setup_workload(workload: str, seed: int,
                   in_process_cli: bool = False) -> Workload:
    if workload == "cli":
        import cliwork
        return cliwork.setup(seed, in_process=in_process_cli)
    if workload == "census":
        import census
        return census.setup(seed)
    import search
    return search.setup_refute(seed) if workload == "refute" \
        else search.setup_assign(seed)
