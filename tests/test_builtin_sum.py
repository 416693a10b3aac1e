"""tisim's numbers do not depend on the interpreter's builtin ``sum``.

Every float and complex reduction in tisim goes through ``amplitudes._total``,
which adds in order from +0.0.  CPython 3.12 made ``sum`` of floats
Neumaier-compensated, so a reduction left on the builtin would round
differently there.  ``sum_312`` transcribes CPython 3.12's ``builtin_sum``
(Python/bltinmodule.c) so that any interpreter can replay it: the golden
reports (``tisim run --exact``, ``verify``, ``path``) and the offer waves must
stay the same bytes with it in place of ``builtins.sum``.
"""

import builtins
import json
import math

import pytest

from test_golden import GOLDEN, golden_commands, report
from test_golden_waves import GOLDEN_OFFER, NETWORKS, offer_wave
from tisim.scenarios import _builtin_network

pytestmark = pytest.mark.simd
LONG_MIN, LONG_MAX = -(2**63), 2**63 - 1


def sum_312(iterable, /, start=0):
    """CPython 3.12's ``builtin_sum``: exact ints, then compensated exact floats, then ``+``."""
    if isinstance(start, (str, bytes, bytearray)):
        raise TypeError("sum() can't sum strings, bytes or bytearrays")
    items, result = iter(iterable), start
    if type(result) is int and LONG_MIN <= result <= LONG_MAX:
        for item in items:
            if type(item) in (int, bool) and LONG_MIN <= item <= LONG_MAX and LONG_MIN <= result + item <= LONG_MAX:
                result += item
                continue
            result = result + item  # an overflow or a non-int leaves the C long
            break
        else:
            return result
    if type(result) is float:
        f, c = result, 0.0
        for item in items:
            if type(item) is float:  # Neumaier's improvement of Kahan-Babuska summation
                t = f + item
                c += (f - t) + item if abs(f) >= abs(item) else (item - t) + f
                f = t
                continue
            if isinstance(item, int) and LONG_MIN <= item <= LONG_MAX:
                f += float(item)
                continue
            result = (f + c if c and math.isfinite(c) else f) + item
            break
        else:
            return f + c if c and math.isfinite(c) else f
    for item in items:
        result = result + item
    return result


def test_the_transcription_compensates_floats_and_keeps_ints_exact():
    assert sum_312([0.1] * 10) == 1.0 and sum_312([1e100, 1.0, -1e100]) == 1.0  # 0.9999999999999999 and 0.0 in order
    assert sum_312([1, True, 2]) == 4 and sum_312([1, 0.5, 2]) == 3.5 and sum_312([1j, 0.5, 2]) == 2.5 + 1j
    assert sum_312([], 7) == 7 and sum_312([[1]], []) == [1]


@pytest.fixture
def compensated_sum(monkeypatch):
    """Replace ``builtins.sum`` and drop the shared builtin networks, so nothing cached is read."""
    _builtin_network.cache_clear()
    monkeypatch.setattr(builtins, "sum", sum_312)
    yield
    monkeypatch.undo()
    _builtin_network.cache_clear()


def test_reports_and_offer_waves_do_not_depend_on_the_builtin_sum(compensated_sum):
    golden, offer = json.loads(GOLDEN.read_text()), json.loads(GOLDEN_OFFER.read_text())
    for argv in golden_commands():
        assert report(argv) == golden[" ".join(argv)], argv
    for name in NETWORKS:
        assert offer_wave(name) == offer[name], name
