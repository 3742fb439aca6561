"""``repro.sim.rng`` draws numpy's bits: ``numpy.random`` is the oracle.

Every comparison is ``==``: the in-house ``SeedSequence`` pools, spawn
trees and PCG64 draws must equal what ``numpy.random`` produces from the
same entropy, value for value, because the equivalence goldens, the
figure pins and every ``sim_digest`` were recorded with numpy.  numpy is
a test-only dependency; without it this module skips.  Draws cannot
catch a one-ulp error in a ziggurat threshold that no sample reaches, so
one test also compares the committed tables with the bytes numpy ships.
"""

import math
import pathlib
import shutil
import struct
import subprocess
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim import rng as repro_rng
from repro.sim.rng import Generator, SeedSequence

np = pytest.importorskip("numpy")

ONE_THIRD = 1 / 3

#: One integer of entropy: 0, one 32-bit word, or three words and more.
ENTROPY_INTS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**64, 2**160),
)
#: An int, or a tuple of them (``default_rng((seed, flow_id))``).
ENTROPY = st.one_of(ENTROPY_INTS, st.tuples(ENTROPY_INTS, ENTROPY_INTS))

#: ``p`` at and beside the search/inversion switch, at 1, and typical bursts.
GEOMETRIC_P = st.one_of(
    st.sampled_from(
        [
            math.nextafter(ONE_THIRD, 0.0),
            ONE_THIRD,
            math.nextafter(ONE_THIRD, 1.0),
            1.0,
            0.5,
            0.01,
            0.002,
        ]
    ),
    st.floats(1e-4, 1.0),
)
#: ``n`` of one value (no draw), small, and near 2**32 where Lemire rejects.
INTEGERS_N = st.one_of(
    st.sampled_from([1, 2, 3, 7, 3 * 2**30, 2**32 - 1, 2**32]),
    st.integers(1, 2**32),
)
DRAW = st.one_of(
    st.tuples(st.just("exponential"), st.floats(1e-3, 1e3)),
    st.tuples(st.just("geometric"), GEOMETRIC_P),
    st.tuples(st.just("integers"), INTEGERS_N),
    st.tuples(st.just("random"), st.none()),
)


def draw(generator, kind, arg):
    method = getattr(generator, kind)
    return method() if arg is None else method(arg)


def numpy_pair(entropy):
    return np.random.SeedSequence(entropy), SeedSequence(entropy)


class TestSeedSequence:
    @given(ENTROPY, st.lists(ENTROPY_INTS, max_size=3).map(tuple))
    def test_pool_matches_numpy(self, entropy, spawn_key):
        """Built directly, with no parent to share its mixing with a child."""
        theirs = np.random.SeedSequence(entropy, spawn_key=spawn_key)
        ours = SeedSequence(entropy, spawn_key)
        assert ours.pool == theirs.pool.tolist()

    @given(
        ENTROPY,
        st.lists(st.integers(1, 4), min_size=1, max_size=3),
        st.lists(st.integers(1, 3), min_size=1, max_size=3),
    )
    @settings(max_examples=50)
    def test_spawn_tree_matches_numpy(self, entropy, root_spawns, child_spawns):
        """Repeated spawns number on; a child's children nest its key."""
        theirs, ours = numpy_pair(entropy)
        for count in root_spawns:
            their_children = theirs.spawn(count)
            our_children = ours.spawn(count)
            for their_child, our_child in zip(their_children, our_children, strict=True):
                assert our_child.spawn_key == their_child.spawn_key
                assert our_child.pool == their_child.pool.tolist()
        for count in child_spawns:
            for their, our in zip(
                their_child.spawn(count), our_child.spawn(count), strict=True
            ):
                assert our.spawn_key == their.spawn_key
                assert our.pool == their.pool.tolist()
                (their_grandchild,) = their.spawn(1)
                (our_grandchild,) = our.spawn(1)
                assert our_grandchild.pool == their_grandchild.pool.tolist()
        assert ours.n_children_spawned == theirs.n_children_spawned

    @pytest.mark.parametrize("entropy", [-1, 2.5, True, None, "7", (1, -2), (1, 2.0)])
    def test_refuses_what_is_not_a_non_negative_integer(self, entropy):
        with pytest.raises(ConfigurationError, match="non-negative integer"):
            SeedSequence(entropy)


class TestDraws:
    @given(st.one_of(ENTROPY_INTS, st.just(2**64)), st.lists(DRAW, max_size=60))
    @settings(max_examples=150)
    def test_interleaved_draws_match_numpy(self, entropy, draws):
        """Any order of the four draws, the 32-bit buffer carried across."""
        theirs = np.random.default_rng(np.random.SeedSequence(entropy))
        ours = Generator(SeedSequence(entropy))
        for kind, arg in draws:
            expected = draw(theirs, kind, arg)
            got = draw(ours, kind, arg)
            assert got == expected, (kind, arg)
            assert type(got) is (float if kind in ("exponential", "random") else int)
        # Whatever was drawn, both streams stand at the same place.
        assert [ours.integers(5), ours.random()] == [theirs.integers(5), theirs.random()]

    def test_half_word_buffer_carries_across_other_draws(self):
        theirs = np.random.default_rng(11)
        ours = Generator(SeedSequence(11))
        sequence = ["integers", "exponential", "integers", "integers", "random", "integers"]
        for kind in sequence:
            arg = 6 if kind == "integers" else None
            assert draw(ours, kind, arg) == draw(theirs, kind, arg)

    def test_one_value_range_draws_nothing(self):
        ours = Generator(SeedSequence(3))
        reference = Generator(SeedSequence(3))
        assert [ours.integers(1) for _ in range(5)] == [0] * 5
        assert ours.random() == reference.random()

    @pytest.mark.parametrize("p", [math.nextafter(ONE_THIRD, 0.0), ONE_THIRD, 1.0, 0.004])
    def test_geometric_matches_numpy_either_side_of_the_switch(self, p):
        theirs = np.random.default_rng(5)
        ours = Generator(SeedSequence(5))
        assert [ours.geometric(p) for _ in range(2000)] == [
            theirs.geometric(p) for _ in range(2000)
        ]

    def test_a_million_exponentials_match_numpy(self):
        """Every ziggurat layer and both rare exits, against numpy's own fill."""
        seed = SeedSequence(1998)
        ours = CountingGenerator(seed)
        count = 1_000_000
        expected = np.random.default_rng(np.random.SeedSequence(1998)).exponential(
            2.0, size=count
        )
        assert [ours.exponential(2.0) for _ in range(count)] == expected.tolist()
        # The base strip's tail, a wedge accept and a wedge reject (a redraw).
        assert {"base", "wedge-accept", "wedge-reject"} <= set(ours.tails)
        # Every layer's index was drawn: the outputs behind these draws.
        raw = np.random.PCG64(np.random.SeedSequence(1998)).random_raw(count)
        assert len(set(((raw >> np.uint64(3)) & np.uint64(0xFF)).tolist())) == 256

    def test_integers_range_is_refused_outside_the_32_bit_path(self):
        ours = Generator(SeedSequence(0))
        for n in (0, -3, 2**32 + 1):
            with pytest.raises(ConfigurationError):
                ours.integers(n)


class CountingGenerator(Generator):
    """Counts which rare exit of the ziggurat each slow draw took."""

    def __init__(self, seed_sequence):
        super().__init__(seed_sequence)
        self.tails = Counter()

    def _exponential_tail(self, idx, x):
        value = super()._exponential_tail(idx, x)
        if idx == 0:
            self.tails["base"] += 1
        elif value == x:
            self.tails["wedge-accept"] += 1
        else:
            self.tails["wedge-reject"] += 1
        return value


#: Where numpy keeps the ziggurat tables in its static distributions library.
LIBRARY = pathlib.Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
MEMBER = "src_distributions_distributions.c.o"
TABLES = {
    "ke_double": ("<256Q", repro_rng._KE),
    "we_double": ("<256d", repro_rng._WE),
    "fe_double": ("<256d", repro_rng._FE),
}


def test_tables_are_numpys_bytes(tmp_path):
    """The committed ``ke``/``we``/``fe`` are byte for byte numpy's symbols."""
    tools = [shutil.which(tool) for tool in ("ar", "nm", "objcopy")]
    if not LIBRARY.is_file() or None in tools:
        pytest.skip("needs numpy's libnpyrandom.a and binutils (ar, nm, objcopy)")
    ar, nm, objcopy = tools
    members = subprocess.run([ar, "t", str(LIBRARY)], capture_output=True, text=True)
    if MEMBER not in members.stdout.split():
        pytest.skip(f"{LIBRARY.name} has no {MEMBER}")
    subprocess.run([ar, "x", str(LIBRARY), MEMBER], cwd=tmp_path, check=True)
    symbols = subprocess.run(
        [nm, MEMBER], cwd=tmp_path, capture_output=True, text=True, check=True
    ).stdout
    offsets = {
        line.split()[2]: int(line.split()[0], 16)
        for line in symbols.splitlines()
        if len(line.split()) == 3 and line.split()[2] in TABLES
    }
    assert offsets.keys() == TABLES.keys()
    subprocess.run(
        [objcopy, "-O", "binary", "-j", ".rodata", MEMBER, "rodata.bin"],
        cwd=tmp_path,
        check=True,
    )
    rodata = (tmp_path / "rodata.bin").read_bytes()
    for symbol, (layout, table) in TABLES.items():
        start = offsets[symbol]
        assert struct.pack(layout, *table) == rodata[start : start + 2048], symbol
