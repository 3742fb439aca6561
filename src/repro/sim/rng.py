"""Seeded random streams: numpy's ``SeedSequence`` → PCG64 → draws, to the bit.

Every random number of a run comes from here: the on-off sources'
geometric bursts and exponential OFF periods (Section 3 of the paper),
the churn process's exponential arrivals and holding times and its
uniform template and route picks, and RED's drop test.  The module is a
pure-Python reproduction of exactly the parts of ``numpy.random`` those
callers used, so a run draws the same bits it drew with numpy:

* :class:`SeedSequence` — numpy's entropy hashing into a four-word pool,
  and ``spawn(n)`` children keyed by ``spawn_key``;
* :class:`Generator` — PCG64 (128-bit LCG, XSL-RR output) seeded from
  the pool as ``default_rng(seed_sequence)`` seeds it, with four scalar
  draws: ``exponential`` (the 256-layer ziggurat), ``geometric``,
  ``integers`` (the buffered 32-bit Lemire path) and ``random``.

Draws return Python scalars.  There are no ``size=`` arrays and no other
distributions: a new draw kind lands with a test that compares it with
``numpy.random`` first (``tests/test_rng.py``).  The PCG step is written
out in each draw, because the draws run per burst on the packet path.
"""

from __future__ import annotations

from math import exp, log1p

from repro.errors import ConfigurationError

__all__ = ["SeedSequence", "Generator"]

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: The XSL-RR output is the state's halves xored, rotated right by the
#: state's top six bits: a 64-bit word times this is the word twice over,
#: so shifting that right by ``r`` and keeping 64 bits rotates the word.
_TWICE = (1 << 64) | 1
#: ``next_double``: the top 53 bits of a 64-bit output times 2**-53.
_DOUBLE_UNIT = 1.0 / 9007199254740992.0
#: The ziggurat's base-strip edge (``ziggurat_exp_r``).
_ZIGGURAT_EXP_R = 7.6971174701310497140446280481
#: ``geometric`` searches at or above this ``p`` and inverts below it.
_GEOMETRIC_SEARCH_P = 0.333333333333333333333333
#: ``geometric`` clamps to ``INT64_MAX`` from the first double above it.
_INT64_MAX = 0x7FFFFFFFFFFFFFFF
_INT64_EDGE = 9.223372036854776e18
#: ``-log1p(-p)`` by ``p``: a source inverts one ``p`` for all its bursts.
#: A memo of a pure function, so what it holds never changes a draw.
_NEG_LOG_Q: dict[float, float] = {}

# SeedSequence hashing (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _hash_steps(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pair of each of the first ``count`` hash steps.

    numpy's hash constant starts at ``init`` and is multiplied by ``mult``
    at every step, whatever the data: step ``k`` xors the word with the
    constant's ``k``-th value and multiplies it by the ``k+1``-th.
    """
    values = [init]
    for _ in range(count):
        values.append(values[-1] * mult & _MASK32)
    return list(zip(values, values[1:]))


_A_STEPS = _hash_steps(_INIT_A, _MULT_A, 16)
#: Pool word ``i`` from entropy word ``i`` (or 0): hash steps 0-3.
_MIX_FILL = tuple((i, *_A_STEPS[i]) for i in range(4))
#: Every pool word into every other one, in numpy's order: steps 4-15.
_MIX_CROSS = tuple(
    (src, dst, *step)
    for (src, dst), step in zip(
        [(src, dst) for src in range(4) for dst in range(4) if src != dst],
        _A_STEPS[4:],
    )
)
#: The hash constant after step 15, where entropy beyond four words starts.
_MIX_TAIL = _A_STEPS[-1][1]
#: ``generate_state(4, uint64)``: eight words cycling over the pool, each
#: placed at its little-endian bit offset in one 256-bit number.
_STATE_STEPS = tuple(
    (i % 4, 32 * i, *step) for i, step in enumerate(_hash_steps(_INIT_B, _MULT_B, 8))
)


class SeedSequence:
    """numpy's ``SeedSequence``: entropy and a spawn key hashed into a pool.

    Args:
        entropy: a non-negative integer, or a tuple/list of them.
        spawn_key: the child's path below the root (``spawn`` sets it).
        _mixed: ``spawn``'s shortcut: the parent's pool before its key
            mixed in, which depends on the entropy alone and so is every
            child's too (the sixteen hash steps a child need not repeat).

    Raises:
        ConfigurationError: an entropy or key value is not a
            non-negative integer (a bool or a float included).
    """

    __slots__ = ("entropy", "spawn_key", "pool", "n_children_spawned", "_mixed")

    def __init__(
        self, entropy, spawn_key: tuple[int, ...] = (), *, _mixed: tuple | None = None
    ) -> None:
        self.entropy = entropy
        self.spawn_key = spawn_key = tuple(spawn_key)
        self.n_children_spawned = 0
        # Each integer becomes its little-endian 32-bit words (0 is one word).
        run: list[int] = []
        key: list[int] = []
        seeds = entropy if type(entropy) in (tuple, list) else (entropy,)
        for values, words in ((seeds, run), (spawn_key, key)):
            for value in values:
                if type(value) is not int or value < 0:
                    raise ConfigurationError(
                        f"seed must be a non-negative integer, got {value!r}"
                    )
                words += (value & _MASK32,)
                while value > _MASK32:
                    value >>= 32
                    words += (value & _MASK32,)
        # numpy pads the entropy to the pool size before a spawn key, so
        # the first four words fill the pool and the key always mixes in
        # after them with the entropy beyond four words.  Each mix is
        # ``x = L * x - R * hash(y)``, folded like the hashes (mod 2**32,
        # then ``x ^ x >> 16``).
        if _mixed is None:
            filled = run + [0, 0, 0, 0]
            pool = [0, 0, 0, 0]
            for i, xor, mult in _MIX_FILL:
                word = (filled[i] ^ xor) * mult & _MASK32
                pool[i] = word ^ word >> 16
            for src, dst, xor, mult in _MIX_CROSS:
                word = (pool[src] ^ xor) * mult & _MASK32
                word = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * (word ^ word >> 16) & _MASK32
                pool[dst] = word ^ word >> 16
            _mixed = tuple(pool)
        else:
            pool = list(_mixed)
        self._mixed = _mixed
        hash_const = _MIX_TAIL
        for value in run[4:] + key:
            for dst in range(4):
                word = value ^ hash_const
                hash_const = hash_const * _MULT_A & _MASK32
                word = word * hash_const & _MASK32
                word = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * (word ^ word >> 16) & _MASK32
                pool[dst] = word ^ word >> 16
        self.pool = pool

    def spawn(self, n_children: int) -> list[SeedSequence]:
        """The next ``n_children`` children, numbered on from earlier spawns."""
        first = self.n_children_spawned
        self.n_children_spawned = first + n_children
        return [
            SeedSequence(self.entropy, self.spawn_key + (i,), _mixed=self._mixed)
            for i in range(first, first + n_children)
        ]


class Generator:
    """``numpy.random.default_rng(seed_sequence)``: PCG64 and four scalar draws.

    PCG64 steps its 128-bit state as ``state * mult + inc`` and outputs the
    64-bit XOR of the state's halves rotated right by its top six bits.
    ``integers`` uses 32-bit halves of an output and keeps the unused half
    for the next ``integers`` call, as numpy's bit generator does; the
    other draws take whole outputs and leave that half alone.
    """

    __slots__ = ("_state", "_inc", "_has_uint32", "_uinteger")

    def __init__(self, seed_sequence: SeedSequence) -> None:
        pool = seed_sequence.pool
        bits = 0
        for index, shift, xor, mult in _STATE_STEPS:
            word = (pool[index] ^ xor) * mult & _MASK32
            bits |= (word ^ word >> 16) << shift
        # pcg64_set_seed: the state and the stream are 128-bit values built
        # high word first from the four 64-bit words.
        initstate = (bits & _MASK64) << 64 | bits >> 64 & _MASK64
        initseq = (bits >> 128 & _MASK64) << 64 | bits >> 192
        self._inc = inc = (initseq << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: step from 0, add the state, step again.
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        self._has_uint32 = False
        self._uinteger = 0

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential variate with mean ``scale``."""
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        out = ((state >> 64 ^ state) & _MASK64) * _TWICE >> (state >> 122) & _MASK64
        ri = out >> 11
        idx = out >> 3 & 0xFF
        if ri < _KE[idx]:
            return ri * _WE[idx] * scale
        return self._exponential_tail(idx, ri * _WE[idx]) * scale

    def _exponential_tail(self, idx: int, x: float) -> float:
        """The ziggurat's rare exits: the base strip's tail, the wedge, a retry."""
        if idx == 0:
            return _ZIGGURAT_EXP_R - log1p(-self.random())
        if (_FE[idx - 1] - _FE[idx]) * self.random() + _FE[idx] < exp(-x):
            return x
        return self.exponential()

    def geometric(self, p: float) -> int:
        """Trials up to and including the first success, each with chance ``p``."""
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        out = ((state >> 64 ^ state) & _MASK64) * _TWICE >> (state >> 122) & _MASK64
        if p >= _GEOMETRIC_SEARCH_P:
            u = (out >> 11) * _DOUBLE_UNIT
            trials = 1
            total = prod = p
            q = 1.0 - p
            while u > total:
                prod *= q
                total += prod
                trials += 1
            return trials
        # Inversion, ceil(-E / log1p(-p)), with E this output's exponential
        # (E / -log1p(-p) is the same double: negation is exact).
        ri = out >> 11
        idx = out >> 3 & 0xFF
        e = ri * _WE[idx]
        if ri >= _KE[idx]:
            e = self._exponential_tail(idx, e)
        try:
            neg_log_q = _NEG_LOG_Q[p]
        except KeyError:
            neg_log_q = _NEG_LOG_Q[p] = -log1p(-p)
        z = e / neg_log_q
        if z >= _INT64_EDGE:
            return _INT64_MAX
        trials = int(z)
        return trials if trials >= z else trials + 1

    def integers(self, n: int) -> int:
        """A uniform integer in ``[0, n)``, ``1 <= n <= 2**32``."""
        if n == 1:
            return 0  # a one-value range draws nothing
        if not 1 < n <= 0x100000000:
            raise ConfigurationError(f"integers(n) needs 1 <= n <= 2**32, got {n!r}")
        # Lemire's multiply-shift, rejecting the low words that would bias it.
        threshold = (0x100000000 - n) % n
        while True:
            if self._has_uint32:
                self._has_uint32 = False
                word = self._uinteger
            else:
                state = (self._state * _PCG_MULT + self._inc) & _MASK128
                self._state = state
                out = ((state >> 64 ^ state) & _MASK64) * _TWICE >> (state >> 122) & _MASK64
                self._has_uint32 = True
                self._uinteger = out >> 32
                word = out & _MASK32
            scaled = word * n
            if scaled & _MASK32 >= threshold:
                return scaled >> 32

    def random(self) -> float:
        """A uniform double in ``[0, 1)`` on the 2**-53 grid."""
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        out = ((state >> 64 ^ state) & _MASK64) * _TWICE >> (state >> 122) & _MASK64
        return (out >> 11) * _DOUBLE_UNIT


# The exponential ziggurat's 256 layers, as numpy's ziggurat_constants.h
# defines them (numpy/random/src/distributions; BSD-3-Clause, the NumPy
# Developers): ``ke`` the integer acceptance thresholds, ``we`` the layer
# widths times 2**-53, ``fe`` the density at each layer's edge.
_KE = (
    0x1C5214272497C6, 0x00000000000000, 0x137D5BD79C317E, 0x186EF58E3F3C10,
    0x1A9BB7320EB0AE, 0x1BD127F719447C, 0x1C951D0F88651A, 0x1D1BFE2D5C3972,
    0x1D7E5BD56B18B2, 0x1DC934DD172C70, 0x1E0409DFAC9DC8, 0x1E337B71D47836,
    0x1E5A8B177CB7A2, 0x1E7B42096F046C, 0x1E970DAF08AE3E, 0x1EAEF5B14EF09E,
    0x1EC3BD07B46556, 0x1ED5F6F08799CE, 0x1EE614AE6E5688, 0x1EF46ECA361CD0,
    0x1F014B76DDD4A4, 0x1F0CE313A796B6, 0x1F176369F1F77A, 0x1F20F20C452570,
    0x1F29AE1951A874, 0x1F31B18FB95532, 0x1F39125157C106, 0x1F3FE2EB6E694C,
    0x1F463332D788FA, 0x1F4C10BF1D3A0E, 0x1F51874C5C3322, 0x1F56A109C3ECC0,
    0x1F5B66D9099996, 0x1F5FE08210D08C, 0x1F6414DD445772, 0x1F6809F6859678,
    0x1F6BC52A2B02E6, 0x1F6F4B3D32E4F4, 0x1F72A07190F13A, 0x1F75C8974D09D6,
    0x1F78C71B045CC0, 0x1F7B9F12413FF4, 0x1F7E5346079F8A, 0x1F80E63BE21138,
    0x1F835A3DAD9162, 0x1F85B16056B912, 0x1F87ED89B24262, 0x1F8A10759374FA,
    0x1F8C1BBA3D39AC, 0x1F8E10CC45D04A, 0x1F8FF102013E16, 0x1F91BD968358E0,
    0x1F9377AC47AFD8, 0x1F95204F8B64DA, 0x1F96B878633892, 0x1F98410C968892,
    0x1F99BAE146BA80, 0x1F9B26BC697F00, 0x1F9C85561B717A, 0x1F9DD759CFD802,
    0x1F9F1D6761A1CE, 0x1FA058140936C0, 0x1FA187EB3A3338, 0x1FA2AD6F6BC4FC,
    0x1FA3C91ACE0682, 0x1FA4DB5FEE6AA2, 0x1FA5E4AA4D097C, 0x1FA6E55EE46782,
    0x1FA7DDDCA51EC4, 0x1FA8CE7CE6A874, 0x1FA9B793CE5FEE, 0x1FAA9970ADB858,
    0x1FAB745E588232, 0x1FAC48A3740584, 0x1FAD1682BF9FE8, 0x1FADDE3B5782C0,
    0x1FAEA008F21D6C, 0x1FAF5C2418B07E, 0x1FB012C25B7A12, 0x1FB0C41681DFF4,
    0x1FB17050B6F1FA, 0x1FB2179EB2963A, 0x1FB2BA2BDFA84A, 0x1FB358217F4E18,
    0x1FB3F1A6C9BE0C, 0x1FB486E10CACD6, 0x1FB517F3C793FC, 0x1FB5A500C5FDAA,
    0x1FB62E2837FE58, 0x1FB6B388C9010A, 0x1FB7353FB50798, 0x1FB7B368DC7DA8,
    0x1FB82E1ED6BA08, 0x1FB8A57B0347F6, 0x1FB919959A0F74, 0x1FB98A85BA7204,
    0x1FB9F861796F26, 0x1FBA633DEEE286, 0x1FBACB2F41EC16, 0x1FBB3048B49144,
    0x1FBB929CAEA4E2, 0x1FBBF23CC8029E, 0x1FBC4F39D22994, 0x1FBCA9A3E140D4,
    0x1FBD018A548F9E, 0x1FBD56FBDE729C, 0x1FBDAA068BD66A, 0x1FBDFAB7CB3F40,
    0x1FBE491C7364DE, 0x1FBE9540C9695E, 0x1FBEDF3086B128, 0x1FBF26F6DE6174,
    0x1FBF6C9E828AE2, 0x1FBFB031A904C4, 0x1FBFF1BA0FFDB0, 0x1FC03141024588,
    0x1FC06ECF5B54B2, 0x1FC0AA6D8B1426, 0x1FC0E42399698A, 0x1FC11BF9298A64,
    0x1FC151F57D1942, 0x1FC1861F770F4A, 0x1FC1B87D9E74B4, 0x1FC1E91620EA42,
    0x1FC217EED505DE, 0x1FC2450D3C83FE, 0x1FC27076864FC2, 0x1FC29A2F90630E,
    0x1FC2C23CE98046, 0x1FC2E8A2D2C6B4, 0x1FC30D654122EC, 0x1FC33087DE9C0E,
    0x1FC3520E0B7EC6, 0x1FC371FADF66F8, 0x1FC390512A2886, 0x1FC3AD137497FA,
    0x1FC3C844013348, 0x1FC3E1E4CCAB40, 0x1FC3F9F78E4DA8, 0x1FC4107DB85060,
    0x1FC4257877FD68, 0x1FC438E8B5BFC6, 0x1FC44ACF15112A, 0x1FC45B2BF447E8,
    0x1FC469FF6C4504, 0x1FC477495001B2, 0x1FC483092BFBB8, 0x1FC48D3E457FF6,
    0x1FC495E799D21A, 0x1FC49D03DD30B0, 0x1FC4A29179B432, 0x1FC4A68E8E07FC,
    0x1FC4A8F8EBFB8C, 0x1FC4A9CE16EA9E, 0x1FC4A90B41FA34, 0x1FC4A6AD4E28A0,
    0x1FC4A2B0C82E74, 0x1FC49D11E62DE2, 0x1FC495CC852DF4, 0x1FC48CDC265EC0,
    0x1FC4823BEC237A, 0x1FC475E696DEE6, 0x1FC467D6817E82, 0x1FC458059DC036,
    0x1FC4466D702E20, 0x1FC433070BCB98, 0x1FC41DCB0D6E0E, 0x1FC406B196BBF6,
    0x1FC3EDB248CB62, 0x1FC3D2C43E593C, 0x1FC3B5DE0591B4, 0x1FC396F599614C,
    0x1FC376005A4592, 0x1FC352F3069370, 0x1FC32DC1B22818, 0x1FC3065FBD7888,
    0x1FC2DCBFCBF262, 0x1FC2B0D3B99F9E, 0x1FC2828C8FFCF0, 0x1FC251DA79F164,
    0x1FC21EACB6D39E, 0x1FC1E8F18C6756, 0x1FC1B09637BB3C, 0x1FC17586DCCD10,
    0x1FC137AE74D6B6, 0x1FC0F6F6BB2414, 0x1FC0B348184DA4, 0x1FC06C898BAFF0,
    0x1FC022A092F364, 0x1FBFD5710F72B8, 0x1FBF84DD29488E, 0x1FBF30C52FC60A,
    0x1FBED907770CC6, 0x1FBE7D80327DDA, 0x1FBE1E094BA614, 0x1FBDBA7A354408,
    0x1FBD52A7B9F826, 0x1FBCE663C6201A, 0x1FBC757D2C4DE4, 0x1FBBFFBF63B7AA,
    0x1FBB84F23FE6A2, 0x1FBB04D9A0D18C, 0x1FBA7F351A70AC, 0x1FB9F3BF92B618,
    0x1FB9622ED4ABFC, 0x1FB8CA33174A16, 0x1FB82B76765B54, 0x1FB7859C5B895C,
    0x1FB6D840D55594, 0x1FB622F7D96942, 0x1FB5654C6F37E0, 0x1FB49EBFBF69D2,
    0x1FB3CEC803E746, 0x1FB2F4CF539C3E, 0x1FB21032442852, 0x1FB1203E5A9604,
    0x1FB0243042E1C2, 0x1FAF1B31C479A6, 0x1FAE045767E104, 0x1FACDE9DBF2D72,
    0x1FABA8E640060A, 0x1FAA61F399FF28, 0x1FA908656F66A2, 0x1FA79AB3508D3C,
    0x1FA61726D1F214, 0x1FA47BD48BEA00, 0x1FA2C693C5C094, 0x1FA0F4F47DF314,
    0x1F9F04336BBE0A, 0x1F9CF12B79F9BC, 0x1F9AB84415ABC4, 0x1F98555B782FB8,
    0x1F95C3ABD03F78, 0x1F92FDA9CEF1F2, 0x1F8FFCDA9AE41C, 0x1F8CB99E7385F8,
    0x1F892AEC479606, 0x1F8545F904DB8E, 0x1F80FDC336039A, 0x1F7C427839E926,
    0x1F7700A3582ACC, 0x1F71200F1A241C, 0x1F6A8234B7352A, 0x1F630000A8E266,
    0x1F5A66904FE3C4, 0x1F50724ECE1172, 0x1F44C7665C6FDA, 0x1F36E5A38A59A2,
    0x1F26143450340A, 0x1F113E047B0414, 0x1EF6AEFA57CBE6, 0x1ED38CA188151E,
    0x1EA2A61E122DB0, 0x1E5961C78B267C, 0x1DDDF62BAC0BB0, 0x1CDB4DD9E4E8C0,
)
_WE = (
    9.655740063209183e-16, 7.089014243955414e-18, 1.1639412496691224e-17,
    1.524391512353216e-17, 1.833284885723744e-17, 2.1089651094644866e-17,
    2.3611280778431382e-17, 2.595595772310894e-17, 2.8161735541977523e-17,
    3.0255041303213823e-17, 3.225508254836375e-17, 3.417632340185027e-17,
    3.6029969787344525e-17, 3.782490776869649e-17, 3.956832198097553e-17,
    4.1266117781759464e-17, 4.2923218084425256e-17, 4.4543777432823714e-17,
    4.613133981483186e-17, 4.768895725264636e-17, 4.921928043727963e-17,
    5.072462904503147e-17, 5.220704702792672e-17, 5.366834661718192e-17,
    5.511014372835095e-17, 5.653388673239667e-17, 5.794088004852767e-17,
    5.933230365208943e-17, 6.07092293284718e-17, 6.207263431163193e-17,
    6.342341280303077e-17, 6.476238575956142e-17, 6.609030925769405e-17,
    6.740788167872722e-17, 6.871574991183812e-17, 7.00145147340393e-17,
    7.130473549660643e-17, 7.258693422414648e-17, 7.386159921381792e-17,
    7.512918820723728e-17, 7.639013119550826e-17, 7.764483290797848e-17,
    7.88936750272979e-17, 8.013701816675454e-17, 8.137520364041762e-17,
    8.260855505210038e-17, 8.383737972539139e-17, 8.506196999385323e-17,
    8.628260436784113e-17, 8.749954859216183e-17, 8.871305660690252e-17,
    8.992337142215357e-17, 9.113072591597909e-17, 9.233534356381788e-17,
    9.353743910649129e-17, 9.47372191631295e-17, 9.593488279457997e-17,
    9.713062202221521e-17, 9.832462230649511e-17, 9.951706298915072e-17,
    1.0070811770242949e-16, 1.0189795474846941e-16, 1.030867374515422e-16,
    1.0427462448561886e-16, 1.0546177017945764e-16, 1.0664832480119147e-16,
    1.0783443482419485e-16, 1.0902024317583505e-16, 1.1020588947055781e-16,
    1.1139151022861975e-16, 1.1257723908165675e-16, 1.1376320696616847e-16,
    1.1494954230590093e-16, 1.1613637118402183e-16, 1.1732381750590458e-16,
    1.1851200315326694e-16, 1.1970104813034652e-16, 1.2089107070273855e-16,
    1.2208218752947062e-16, 1.2327451378884152e-16, 1.2446816329851125e-16,
    1.2566324863028985e-16, 1.2685988122003975e-16, 1.2805817147307494e-16,
    1.2925822886541196e-16, 1.3046016204120288e-16, 1.3166407890665726e-16,
    1.328700867207381e-16, 1.3407829218289994e-16, 1.3528880151811755e-16,
    1.3650172055943978e-16, 1.377171548282881e-16, 1.389352096127064e-16,
    1.4015599004375715e-16, 1.4137960117024852e-16, 1.4260614803196654e-16,
    1.4383573573157902e-16, 1.4506846950536877e-16, 1.4630445479294757e-16,
    1.4754379730609516e-16, 1.487866030968626e-16, 1.500329786250737e-16,
    1.5128303082535394e-16, 1.5253686717381255e-16, 1.537945957544997e-16,
    1.5505632532575771e-16, 1.5632216538658375e-16, 1.5759222624311761e-16,
    1.5886661907536842e-16, 1.6014545600429167e-16, 1.6142885015932787e-16,
    1.6271691574651305e-16, 1.640097681172718e-16, 1.653075238380037e-16,
    1.666103007605742e-16, 1.6791821809382289e-16, 1.6923139647620223e-16,
    1.7054995804966298e-16, 1.7187402653490317e-16, 1.7320372730810084e-16,
    1.745391874792534e-16, 1.7588053597224914e-16, 1.7722790360680065e-16,
    1.7858142318237326e-16, 1.7994122956424637e-16, 1.8130745977185016e-16,
    1.8268025306952523e-16, 1.8405975105985878e-16, 1.8544609777975695e-16,
    1.8683943979941927e-16, 1.882399263243892e-16, 1.8964770930086167e-16,
    1.9106294352443765e-16, 1.9248578675252438e-16, 1.9391639982058994e-16,
    1.9535494676249091e-16, 1.9680159493510374e-16, 1.982565151475019e-16,
    1.997198817949342e-16, 2.0119187299787347e-16, 2.0267267074641983e-16,
    2.0416246105035888e-16, 2.0566143409519179e-16, 2.071697844044737e-16,
    2.0868771100881597e-16, 2.1021541762192928e-16, 2.117531128241076e-16,
    2.133010102535779e-16, 2.1485932880616633e-16, 2.1642829284376047e-16,
    2.180081324120784e-16, 2.1959908346828707e-16, 2.212013881190496e-16,
    2.2281529486961805e-16, 2.2444105888463086e-16, 2.2607894226131737e-16,
    2.277292143158621e-16, 2.2939215188373114e-16, 2.3106803963482133e-16,
    2.3275717040435346e-16, 2.344598455404958e-16, 2.361763752697774e-16,
    2.3790707908142767e-16, 2.3965228613186235e-16, 2.4141233567062933e-16,
    2.431875774892256e-16, 2.44978372394307e-16, 2.4678509270692887e-16,
    2.4860812278958517e-16, 2.504478596029557e-16, 2.523047132944217e-16,
    2.541791078205812e-16, 2.560714816061771e-16, 2.579822882420531e-16,
    2.599119972249747e-16, 2.618610947423924e-16, 2.638300845054943e-16,
    2.658194886341845e-16, 2.678298485979525e-16, 2.698617262169489e-16,
    2.7191570472798185e-16, 2.739923899205815e-16, 2.760924113487617e-16,
    2.782164236246436e-16, 2.8036510780069835e-16, 2.825391728480253e-16,
    2.847393572388174e-16, 2.8696643064198177e-16, 2.8922119574179956e-16,
    2.915044901905293e-16, 2.9381718870700286e-16, 2.9616020533454657e-16,
    2.9853449587300453e-16, 3.009410605012618e-16, 3.0338094660850034e-16,
    3.058552518544861e-16, 3.08365127481531e-16, 3.1091178190342663e-16,
    3.134964845996663e-16, 3.1612057034671057e-16, 3.187854438219713e-16,
    3.2149258462067974e-16, 3.2424355273094516e-16, 3.2703999451822404e-16,
    3.298836492772283e-16, 3.3277635641716714e-16, 3.357200633553244e-16,
    3.387168342045505e-16, 3.417688593525637e-16, 3.448784660453424e-16,
    3.4804813010374423e-16, 3.5128048892229794e-16, 3.545783559224792e-16,
    3.5794473666042765e-16, 3.6138284682190606e-16, 3.6489613237645425e-16,
    3.6848829220956213e-16, 3.7216330360802073e-16, 3.7592545104162565e-16,
    3.7977935876688744e-16, 3.8373002787892137e-16, 3.8778287856078953e-16,
    3.919437984311429e-16, 3.962191980786775e-16, 4.0061607510565417e-16,
    4.051420882956573e-16, 4.0980564389030625e-16, 4.1461599642909046e-16,
    4.195833672073399e-16, 4.247190841824385e-16, 4.3003574816674707e-16,
    4.355474314693952e-16, 4.41269916903607e-16, 4.472209874259932e-16,
    4.534207798565834e-16, 4.598922204905932e-16, 4.666615664711476e-16,
    4.737590853262492e-16, 4.812199172829238e-16, 4.89085182739221e-16,
    4.97403423619194e-16, 5.06232507214416e-16, 5.156421828878083e-16,
    5.257175802022275e-16, 5.365640977112022e-16, 5.483144034258704e-16,
    5.61138745467516e-16, 5.752606481503332e-16, 5.909817641652103e-16,
    6.087231416180908e-16, 6.290979034877557e-16, 6.530492053564041e-16,
    6.821393079028929e-16, 7.192444966089362e-16, 7.706095350032097e-16,
    8.545517038584027e-16,
)
_FE = (
    1.0, 0.9381436808621747, 0.9004699299257465,
    0.8717043323812036, 0.8477855006239896, 0.8269932966430503,
    0.8084216515230084, 0.7915276369724956, 0.7759568520401156,
    0.7614633888498963, 0.7478686219851951, 0.7350380924314235,
    0.722867659593572, 0.711274760805076, 0.7001926550827882,
    0.689566496117078, 0.6793505722647654, 0.6695063167319247,
    0.6600008410789997, 0.6508058334145711, 0.6418967164272661,
    0.6332519942143661, 0.624852738703666, 0.6166821809152077,
    0.608725382079622, 0.6009689663652322, 0.5934009016917334,
    0.586010318477268, 0.578787358602845, 0.5717230486648258,
    0.5648091929124002, 0.5580382822625874, 0.5514034165406413,
    0.5448982376724396, 0.5385168720028619, 0.5322538802630433,
    0.5261042139836197, 0.5200631773682336, 0.5141263938147486,
    0.5082897764106429, 0.5025495018413477, 0.49690198724154955,
    0.49134386959403253, 0.4858719873418849, 0.4804833639304542,
    0.4751751930373774, 0.46994482528396, 0.4647897562504262,
    0.4597076156421377, 0.4546961574746155, 0.449753251162755,
    0.4448768734145485, 0.4400651008423539, 0.4353161032156366,
    0.43062813728845883, 0.42599954114303434, 0.4214287289976166,
    0.4169141864330029, 0.4124544659971612, 0.4080481831520324,
    0.4036940125305303, 0.3993906844752311, 0.39513698183329016,
    0.3909317369847971, 0.38677382908413765, 0.38266218149600983,
    0.3785957594095808, 0.37457356761590216, 0.370594648435146,
    0.36665807978151416, 0.3627629733548178, 0.3589084729487498,
    0.35509375286678746, 0.35131801643748334, 0.347580494621637,
    0.3438804447045024, 0.34021714906678, 0.3365899140286776,
    0.332998068761809, 0.3294409642641363, 0.3259179723935562,
    0.32242848495608917, 0.31897191284495724, 0.31554768522712895,
    0.31215524877417955, 0.3087940669345602, 0.30546361924459026,
    0.3021634006756935, 0.2988929210155818, 0.2956517042812612,
    0.2924392881618926, 0.28925522348967775, 0.2860990737370768,
    0.28297041453878075, 0.2798688332369729, 0.27679392844851736,
    0.27374530965280297, 0.27072259679906, 0.2677254199320448,
    0.2647534188350622, 0.261806242689363, 0.25888354974901623,
    0.2559850070304154, 0.25311029001562946, 0.2502590823688623,
    0.24743107566532763, 0.2446259691318921, 0.24184346939887721,
    0.23908329026244918, 0.23634515245705964, 0.23362878343743335,
    0.2309339171696274, 0.2282602939307167, 0.22560766011668407,
    0.2229757680581202, 0.2203643758433595, 0.21777324714870053,
    0.21520215107537868, 0.21265086199297828, 0.21011915938898826,
    0.20760682772422204, 0.2051136562938377, 0.20263943909370902,
    0.20018397469191127, 0.19774706610509887, 0.19532852067956322,
    0.19292814997677135, 0.1905457696631954, 0.18818119940425432,
    0.1858342627621971, 0.18350478709776746, 0.1811926034754963,
    0.1788975465724783, 0.17661945459049488, 0.1743581691713535,
    0.17211353531532006, 0.16988540130252766, 0.1676736186172502,
    0.165478041874936, 0.16329852875190182, 0.16113493991759203,
    0.1589871389693142, 0.15685499236936523, 0.15473836938446808,
    0.15263714202744286, 0.1505511850010399, 0.1484803756438668,
    0.14642459387834494, 0.14438372216063478, 0.1423576454324722,
    0.14034625107486245, 0.1383494288635802, 0.13636707092642886,
    0.13439907170221363, 0.13244532790138752, 0.13050573846833077,
    0.12858020454522817, 0.12666862943751067, 0.12477091858083096,
    0.12288697950954514, 0.12101672182667483, 0.11916005717532768,
    0.11731689921155557, 0.11548716357863353, 0.11367076788274431,
    0.1118676316700563, 0.11007767640518538, 0.1083008254510338,
    0.10653700405000166, 0.10478613930657017, 0.10304816017125772,
    0.10132299742595363, 0.09961058367063713, 0.0979108533114922,
    0.0962237425504328, 0.09454918937605586, 0.09288713355604354,
    0.09123751663104016, 0.08960028191003286, 0.08797537446727022,
    0.08636274114075691, 0.08476233053236812, 0.08317409300963238,
    0.08159798070923742, 0.0800339475423199, 0.07848194920160642,
    0.0769419431704805, 0.07541388873405841, 0.07389774699236475,
    0.07239348087570874, 0.07090105516237183, 0.06942043649872875,
    0.0679515934219366, 0.06649449638533977, 0.06504911778675375,
    0.06361543199980733, 0.062193415408540995, 0.06078304644547963,
    0.059384305633420266, 0.05799717563120066, 0.05662164128374288,
    0.05525768967669704, 0.05390531019604609, 0.05256449459307169,
    0.05123523705512628, 0.04991753428270637, 0.0486113855733795,
    0.04731679291318155, 0.04603376107617517, 0.04476229773294328,
    0.04350241356888818, 0.042254122413316234, 0.04101744138041482,
    0.039792391023374125, 0.03857899550307486, 0.03737728277295936,
    0.03618728478193142, 0.03500903769739741, 0.03384258215087433,
    0.032687963508959535, 0.03154523217289361, 0.030414443910466604,
    0.029295660224637393, 0.028188948763978636, 0.0270943837809558,
    0.026012046645134217, 0.024942026419731783, 0.02388442051155817,
    0.02283933540638524, 0.02180688750428358, 0.020787204072578117,
    0.019780424338009743, 0.01878670074469603, 0.01780620041091136,
    0.016839106826039948, 0.015885621839973163, 0.014945968011691148,
    0.014020391403181938, 0.013109164931254991, 0.012212592426255381,
    0.011331013597834597, 0.010464810181029979, 0.00961441364250221,
    0.008780314985808975, 0.00796307743801704, 0.007163353183634984,
    0.006381905937319179, 0.005619642207205483, 0.004877655983542392,
    0.004157295120833795, 0.003460264777836904, 0.002788798793574076,
    0.0021459677437189063, 0.0015362997803015724, 0.0009672692823271745,
    0.00045413435384149677,
)
