"""Inputs are a function of the seed alone."""

import numpy as np
import pytest

from workloads import KINDS, WORKLOADS, tasks_for


def signature(tasks):
    return [(t.label, t.kind, t.seed, t.size, t.iters, t.commuting,
             None if t.matrix is None else t.matrix.tobytes()) for t in tasks]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert signature(tasks_for(workload, 7)) == signature(tasks_for(workload, 7))
    assert all(t.kind in KINDS for t in tasks_for(workload, 7))


def test_seed_changes_random_matrices_only():
    a, b = tasks_for("certify", 1), tasks_for("certify", 2)
    for x, y in zip(a, b):
        same = x.matrix is None or np.array_equal(x.matrix, y.matrix)
        assert same == (not x.label.startswith(("gauss", "signs")))


def test_labels_are_unique():
    for workload in WORKLOADS:
        labels = [t.label for t in tasks_for(workload, 0)]
        assert len(labels) == len(set(labels))


def test_bad_arguments():
    with pytest.raises(ValueError):
        tasks_for("nope", 0)
    with pytest.raises(ValueError):
        tasks_for("certify", -1)
