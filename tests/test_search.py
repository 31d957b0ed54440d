import io
import json
import math

import numpy as np
import pytest

from bellbound import (
    CoefficientMatrix,
    ratio_search,
    record_from_json,
    reference_constants,
    tensor_power,
)
from bellbound.errors import DimensionMismatchError, DomainError, SizeLimitError


def test_reference_constant_values():
    ref = reference_constants()
    assert ref.grothendieck_upper == math.pi / (2.0 * math.log(1.0 + math.sqrt(2.0)))
    assert round(ref.grothendieck_upper, 4) == 1.7822
    assert 1.782 <= ref.grothendieck_upper <= 1.7823
    assert ref.grothendieck_lower == math.pi / 2.0
    assert ref.tsirelson_estimate == (1.73, 0.06)
    assert ref.k20_lower == pytest.approx(10.0 / 7.0)


def test_two_by_two_search_approaches_maximum():
    record = ratio_search(2, 2, 500, seed=0)
    assert record.ratio >= 1.41
    assert record.ratio <= math.sqrt(2.0) + 1e-6
    assert record.classical > 0.0
    assert record.ratio == pytest.approx(record.quantum / record.classical, abs=1e-9)


def test_single_row_search_ratio_is_one():
    record = ratio_search(1, 5, 50, seed=0)
    assert record.ratio == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("seed", [0, 3])
def test_ratio_never_below_one(seed):
    record = ratio_search(2, 3, 40, seed=seed)
    assert record.ratio >= 1.0 - 1e-9


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_two_by_two_ratio_never_exceeds_cap(seed):
    record = ratio_search(2, 2, 120, seed=seed)
    assert record.ratio <= math.sqrt(2.0) + 1e-6


def test_search_is_deterministic():
    a = ratio_search(2, 2, 60, seed=5)
    b = ratio_search(2, 2, 60, seed=5)
    assert a.ratio == b.ratio
    assert a.iteration_found == b.iteration_found
    assert np.array_equal(a.matrix.entries, b.matrix.entries)


def test_prefix_property_of_the_stream():
    short_sink, long_sink = io.StringIO(), io.StringIO()
    short = ratio_search(2, 2, 150, seed=4, record_sink=short_sink)
    long = ratio_search(2, 2, 400, seed=4, record_sink=long_sink)
    assert long.ratio >= short.ratio - 1e-9

    # every improvement of the short run reappears verbatim in the long run
    short_improvements = short_sink.getvalue().splitlines()[:-1]
    long_improvements = long_sink.getvalue().splitlines()[:-1]
    assert long_improvements[: len(short_improvements)] == short_improvements


def test_injected_candidate_is_recorded():
    sink = io.StringIO()
    ratio_search(4, 4, 25, seed=1, include=[tensor_power(2)], record_sink=sink)
    first = record_from_json(sink.getvalue().splitlines()[0])
    assert np.array_equal(first.matrix.entries, tensor_power(2).entries)
    assert first.iteration_found == 0
    assert first.ratio == pytest.approx(1.0, abs=1e-6)


def test_record_json_round_trip():
    record = ratio_search(2, 2, 30, seed=9)
    again = record_from_json(json.dumps(record.to_json_dict()))
    assert again.ratio == record.ratio
    assert again.seed == record.seed
    assert np.array_equal(again.matrix.entries, record.matrix.entries)


def test_search_guards():
    with pytest.raises(SizeLimitError):
        ratio_search(13, 2, 10, seed=0)
    with pytest.raises(SizeLimitError):
        ratio_search(2, 0, 10, seed=0)
    with pytest.raises(DomainError):
        ratio_search(2, 2, 0, seed=0)
    with pytest.raises(DimensionMismatchError):
        ratio_search(2, 2, 10, seed=0, include=[tensor_power(2)])
