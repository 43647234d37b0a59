import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import same_bits
from nmesolve import serialize

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def csv_text(rows):
    fh = io.StringIO()
    serialize.write_csv(fh, ["c"], rows)
    return fh.getvalue()


def test_csv_cell_format():
    row = (True, False, None, math.nan, math.inf, -math.inf, np.float64(0.1), -0.0, 2.0, 7, "x")
    assert csv_text([row]) == "c\n1,0,,nan,inf,-inf,0.1,-0.0,2.0,7,x\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(FINITE, min_size=1, max_size=8))
@example([-0.0, 5e-324, 1.7976931348623157e308, 2.0])
def test_finite_csv_cells_parse_back_to_the_same_bits(values):
    line = csv_text([values]).splitlines()[1]
    assert same_bits(np.array([float(cell) for cell in line.split(",")]), np.array(values))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(FINITE, max_size=8))
@example([-0.0, 5e-324, 1.7976931348623157e308, 2.0])
def test_json_floats_read_back_as_the_same_bits(values):
    assert same_bits(np.array(json.loads(serialize.dumps_json(values)), dtype=float),
                     np.array(values, dtype=float))


def test_json_text():
    # repr floats, standard separators, ASCII escapes, one trailing newline
    obj = {"b": [-0.0, 0.1, 2.0, 5e-324], "a": [1, True, None], "s": "\u00e9"}
    assert serialize.dumps_json(obj) == \
        '{"b": [-0.0, 0.1, 2.0, 5e-324], "a": [1, true, null], "s": "\\u00e9"}\n'


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_json_rejects_non_finite(value):
    with pytest.raises(ValueError):
        serialize.dumps_json({"x": [value]})
