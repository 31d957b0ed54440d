"""Same seed, same report bytes: each workload's tasks run twice.

Only tasks on matrices of at most 64 entries, and searches up to 5x5, run
here, to keep the test short; the benchmark itself compares every task
across its passes.
"""

import pytest

import oracle
from harness import TaskRunner
from workloads import WORKLOADS, tasks_for


def small(task):
    if task.matrix is None:
        return max(task.size) <= 5
    return task.matrix.size <= 64


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tasks_repeat_byte_for_byte_and_pass_the_oracle(workload, tmp_path):
    runner = TaskRunner(tmp_path / "work")
    for task in filter(small, tasks_for(workload, 5)):
        first = runner.run(task)
        verdict = oracle.check(task, runner.work)
        second = runner.run(task)
        assert first.errors == second.errors == []
        assert first.digest == second.digest, task.label
        assert verdict.problems == [], task.label
