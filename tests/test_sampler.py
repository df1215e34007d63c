"""The sampler under the frozen draw contract, and the argument checks that
run before its first draw.

randgen draws every frozen `randrange`, `randint` and `choice` call
straight from `rng.getrandbits` through `_below`.  That is the same stream
only while `_below` applies `random.Random`'s own `randrange(n)` rule, so
it is checked here against `random.Random` itself, with no forms involved.
tests/test_randgen.py checks whole forms and fields against the
`Random`-API reference generator.
"""

import random

import pytest

from premetric.errors import StructuralError
from premetric.forms import Chart
from premetric.randgen import (_below, _key_pool, random_form, random_polynomial,
                               random_vector_field)

# every n up to 64 takes in n = 1, which still draws, and the powers of two,
# where n.bit_length() grows; 3003 is the largest key pool a config can ask
# for (n = 8, degree_bound 6)
SIZES = [*range(1, 65), len(_key_pool(8, 6))]


def test_the_largest_pool_has_3003_keys():
    assert SIZES[-1] == 3003


@pytest.mark.parametrize("n", SIZES)
def test_below_is_randrange(n):
    for seed in (0, 1, 17):
        mine, ref = random.Random(f"{seed}:{n}"), random.Random(f"{seed}:{n}")
        drawn = [_below(mine.getrandbits, n) for _ in range(200)]
        assert drawn == [ref.randrange(n) for _ in range(200)]
        assert mine.getstate() == ref.getstate()


def test_below_gives_randint_and_choice():
    numerators = tuple(k for k in range(-9, 10) if k != 0)
    mine, ref = random.Random(5), random.Random(5)
    for _ in range(300):
        assert _below(mine.getrandbits, 3) + 1 == ref.randint(1, 3)
        assert numerators[_below(mine.getrandbits, 18)] == ref.choice(numerators)
        assert _below(mine.getrandbits, 9) + 1 == ref.randint(1, 9)
    assert mine.getstate() == ref.getstate()


@pytest.mark.parametrize("bound", [-1, True, 2.0, "2"])
@pytest.mark.parametrize("mode", [False, True], ids=["QQ", "QQ_I"])
def test_degree_bound_must_be_an_int(bound, mode):
    # True used to draw as bound 1, -1 raised a bare ValueError from
    # randrange (and would draw forever from getrandbits(0)), 2.0 raised
    # TypeError; each is refused before the first draw
    chart = Chart(4, complex_mode=mode)
    message = f"^degree bound must be an int >= 0, got {bound!r}$"
    for draw in (lambda rng: random_polynomial(rng, 4, bound, mode),
                 lambda rng: random_form(rng, chart, 2, False, bound),
                 lambda rng: random_vector_field(rng, chart, bound)):
        rng = random.Random(1)
        before = rng.getstate()
        with pytest.raises(StructuralError, match=message):
            draw(rng)
        assert rng.getstate() == before


@pytest.mark.parametrize("n", [0, True, 2.0, "2"])
def test_polynomial_dimension_must_be_an_int(n):
    # True used to give a Polynomial whose n was True, and 2.0 one that
    # raised TypeError when printed; the checked constructor refuses both
    rng = random.Random(1)
    before = rng.getstate()
    with pytest.raises(StructuralError,
                       match=f"^polynomial dimension must be an int >= 1, got {n!r}$"):
        random_polynomial(rng, n, 2)
    assert rng.getstate() == before
