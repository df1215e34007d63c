"""Polynomial == on the raw slots, against a Fraction fold.

A polynomial's raw slots `_den` and `_nums` may carry a common factor
(`_loose` set) that the first read of `den` or `nums` divides out.  `==`
never makes that read: over equal raw dens it compares the numerators,
two canonical sides with different dens differ, and otherwise the key
sets must match and every numerator part cross-multiplies to the other
side's.  Here the sides are built directly from their raw slots, loose
or canonical in every combination, and each verdict is compared with a
fold of the raw slots over plain Fractions that shares no code with
`Polynomial._reduce`.  A comparison must leave the slots and `_canon`
as they were, and equal polynomials must still hash alike.
"""

import importlib.util
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from premetric import cli, scalars  # noqa: E402
from premetric.scalars import Polynomial  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
N = 2
KEYS = [scalars._pack(e) for e in ((0, 0), (1, 0), (0, 1), (2, 1), (0, 3))]
FACTORS = (1, 2, 6, 35)   # raw common factors of a loose side
PART = st.fractions(min_value=-5, max_value=5, max_denominator=12)


def fold(p):
    """key -> (re, im) Fractions of p's raw slots, in either mode."""
    den = p._den
    if p.complex_mode:
        return {k: (Fraction(r, den), Fraction(i, den)) for k, (r, i) in p._nums.items()}
    return {k: (Fraction(v, den), Fraction(0)) for k, v in p._nums.items()}


def side(value, mode, factor, loose):
    """The polynomial of value {key: (re, im)} with raw slots over the lcm
    of its dens (canonical), each times factor; marked loose or not."""
    den = lcm(1, *(c.denominator for re_im in value.values() for c in re_im))
    nums = {}
    for k, (re, im) in value.items():
        r, i = int(re * den) * factor, int(im * den) * factor
        nums[k] = (r, i) if mode else r
    return scalars._make(N, mode, den * factor, nums, loose)


@st.composite
def sides(draw, mode):
    """(factor, loose): a canonical side has factor 1 and no mark; a loose
    side may still have factor 1, a mark whose gcd would be 1."""
    loose = draw(st.booleans())
    return (draw(st.sampled_from(FACTORS)) if loose else 1), loose


@st.composite
def pairs(draw):
    """(kind, a, b): equal values, or values apart by one part or one
    extra monomial, or two zeros, each side loose or canonical."""
    mode = draw(st.booleans())
    kind = draw(st.sampled_from(("equal", "part-off", "extra-monomial", "zero")))
    part = (lambda: (draw(PART), draw(PART))) if mode else (lambda: (draw(PART), Fraction(0)))
    value = {} if kind == "zero" else {
        k: c for k, c in draw(st.dictionaries(st.sampled_from(KEYS[:-1]), st.builds(part),
                                              min_size=1, max_size=3)).items()
        if c != (0, 0)}
    hypothesis.assume(kind == "zero" or value)
    other = dict(value)
    if kind == "part-off":
        k = draw(st.sampled_from(sorted(value)))
        re, im = value[k]
        off = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 7)))
        other[k] = (re, im + off) if mode and draw(st.booleans()) else (re + off, im)
        if other[k] == (0, 0):
            del other[k]
    elif kind == "extra-monomial":
        other[KEYS[-1]] = part() if mode else (draw(PART.filter(bool)), Fraction(0))
        hypothesis.assume(other[KEYS[-1]] != (0, 0))
    (fa, la), (fb, lb) = draw(sides(mode)), draw(sides(mode))
    if kind == "zero":   # a zero with den != 1 on one side
        fa, la = draw(st.sampled_from(FACTORS[1:])), True
    return kind, side(value, mode, fa, la), side(other, mode, fb, lb)


def slots(p):
    return p._den, p._nums, dict(p._nums), p._loose, p._canon


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_eq_is_the_fraction_fold_of_the_raw_slots(case):
    kind, a, b = case
    expect = fold(a) == fold(b)
    assert expect is (kind in ("equal", "zero"))
    before = slots(a), slots(b)
    assert (a == b) is expect and (b == a) is expect and (a != b) is not expect
    for p, (den, nums, copy, loose, canon) in zip((a, b), before):
        assert p._den == den and p._nums is nums and p._nums == copy
        assert p._loose is loose and p._canon is canon is None
    if expect:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("mode", [False, True])
def test_eq_decides_each_route(mode):
    one = (Fraction(1, 2), Fraction(1, 3) if mode else Fraction(0))
    value = {KEYS[1]: one, KEYS[2]: (Fraction(-3), Fraction(0))}
    canonical = side(value, mode, 1, False)
    for factor in FACTORS:
        loose = side(value, mode, factor, True)
        assert loose == canonical and canonical == loose
        assert loose == side(value, mode, FACTORS[-1], True)
    # two canonical sides with different raw dens are different values
    half = side({KEYS[1]: one}, mode, 1, False)
    assert half != side({KEYS[1]: (one[0] * 2, one[1] * 2)}, mode, 1, False)
    # zeros over any den are the zero polynomial
    zero = Polynomial.zero(N, mode)
    for factor in FACTORS:
        assert side({}, mode, factor, True) == zero
        assert zero._canon is None


def _workload(name):
    """The benchmark's workload `name`, read from bench/workloads.py."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS[name]


def test_reciprocity_invocation_takes_no_gcd(tmp_path, monkeypatch, capsys):
    # every row of a seed-1 reciprocity-c4 invocation passes, and each is
    # decided by == on raw slots or by a residual's is_zero, so no
    # polynomial is reduced; == by reduced forms made 410 _reduce calls
    # here, 176 of them canonical copies
    workload = _workload("reciprocity-c4")
    path = tmp_path / "reciprocity-c4.json"
    path.write_text(workload.config_text(1))
    calls = []
    reduce = Polynomial._reduce

    def counted(self):
        calls.append(self)
        return reduce(self)

    monkeypatch.setattr(Polynomial, "_reduce", counted)
    hash(Polynomial(N, {(0, 0): Fraction(1, 2)}))   # a read that does reduce
    assert len(calls) == 1
    del calls[:]
    assert cli.main(workload.argv(str(path))) == 0
    assert '"FAIL"' not in capsys.readouterr().out
    assert calls == []
