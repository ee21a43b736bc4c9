"""BlockReader: scalar draws served from blocks, bit-identical to scalar calls.

The task and worker-behaviour streams are read through
:class:`~repro.sim.rng.BlockReader`; every seeded golden of the repo rests
on its values being exactly those of the same ``random()``/``uniform()``
calls on the generator itself, including across block refills.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import rng as rng_module
from repro.sim.rng import BLOCK, BlockReader

finite = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)

#: One call: ``None`` is ``random()``; ``(lo, hi)`` is ``uniform(lo, hi)``.
call = st.one_of(
    st.none(),
    st.tuples(finite, finite).map(sorted).map(tuple),
)
#: ``(n, c)`` repeats call ``c`` n times, so a short list crosses refills.
runs = st.lists(st.tuples(st.integers(1, 700), call), max_size=12)


def _replay(source, program):
    out = []
    for n, c in program:
        for _ in range(n):
            out.append(source.random() if c is None else source.uniform(*c))
    return out


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class TestBitIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        program=runs,
        block=st.sampled_from([1, 3, 64, BLOCK]),
    )
    def test_matches_twin_generator(self, seed, program, block):
        with mock.patch.object(rng_module, "BLOCK", block):
            got = _replay(BlockReader(np.random.default_rng(seed)), program)
        want = _replay(np.random.default_rng(seed), program)
        assert all(type(v) is float for v in got)
        assert _bits(got) == _bits(want)


class TestConsumption:
    def test_takes_whole_blocks(self):
        """The generator runs a refill ahead: after k draws it has given
        ceil(k / BLOCK) blocks, which is why a reader owns its stream."""
        gen, twin = np.random.default_rng(9), np.random.default_rng(9)
        reader = BlockReader(gen)
        assert gen.bit_generator.state == twin.bit_generator.state  # lazy
        for _ in range(BLOCK + 1):
            reader.random()
        twin.random(2 * BLOCK)
        assert gen.bit_generator.state == twin.bit_generator.state
