"""Arithmetic in binary fields GF(2^s), packed vectors, and seeded streams.

Field elements are plain Python ints in [0, 2^s): bit i is the coefficient
of x^i in the polynomial basis.  Addition is XOR; multiplication is
carryless multiplication reduced modulo the irreducible polynomial of
degree s in DEFAULT_POLYS.  The default field is GF(2^64); s = 8 and 16
serve exhaustive cross-checks.  A nonzero polynomial of degree d vanishes
at a uniform random point with probability at most d / 2^s
(Schwartz-Zippel), which is what every randomized test relies on.

A packed vector holds many field elements in one big int, 128 bits per
slot, so that a whole vector is multiplied by a shared scalar in a
handful of big-int operations (vec_window once per vector, then
vec_scalar_mul_w per scalar).  Products are left unreduced, below
2^(2s-1) per slot, and may be XORed together before GF2Field.reduce or
vec_reduce folds them below 2^s.

derive_rng keys every random stream by a SHA-256 of (seed, *path).  The
hash comes from the interpreter's built-in module (_sha2 on CPython 3.12
and later, _sha256 on 3.10-3.11), as random.py takes its _sha512, so a
query process does not load hashlib and OpenSSL's libcrypto; only an
interpreter built without that module falls back to hashlib.  SHA-256
is the same function from either, so every stream is the same.
"""

from __future__ import annotations

import random

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# Verified irreducible reduction polynomials (low-weight, standard tables).
# Key: exponent s; value: full polynomial including the x^s bit.
DEFAULT_POLYS = {
    8: (1 << 8) | 0b1_1011,          # x^8 + x^4 + x^3 + x + 1
    16: (1 << 16) | 0b10_1011,       # x^16 + x^5 + x^3 + x + 1
    64: (1 << 64) | 0b1_1011,        # x^64 + x^4 + x^3 + x + 1
}

SLOT_BITS = 128
SLOT_BYTES = SLOT_BITS // 8


def _poly_degree(p: int) -> int:
    return p.bit_length() - 1


def _poly_mod(a: int, b: int) -> int:
    """Remainder of carryless division of a by b over GF(2)."""
    db = _poly_degree(b)
    while a.bit_length() - 1 >= db and a:
        a ^= b << (a.bit_length() - 1 - db)
    return a


def is_irreducible(poly: int, s: int) -> bool:
    """Whether poly has degree s and is irreducible over GF(2), by
    exhaustive trial division by every polynomial of degree 1..s//2:
    exact, but only intended for s <= 16.  The defaults for larger s
    come from a verified table."""
    if _poly_degree(poly) != s:
        return False
    if poly & 1 == 0:  # divisible by x
        return s == 1 and poly == 0b10
    for d in range(1, s // 2 + 1):
        for low in range(1 << d):
            cand = (1 << d) | low
            if _poly_mod(poly, cand) == 0:
                return False
    return True


class GF2Field:
    """GF(2^s) for an exponent s in DEFAULT_POLYS (8, 16 or 64; ValueError
    otherwise): 2^s elements, reduced by the irreducible DEFAULT_POLYS[s].
    """

    def __init__(self, exponent: int):
        if exponent not in DEFAULT_POLYS:
            raise ValueError(
                f"no built-in reduction polynomial for s={exponent}; "
                f"built-ins: {sorted(DEFAULT_POLYS)}"
            )
        self.exponent = exponent
        self.poly = DEFAULT_POLYS[exponent]
        self.order = 1 << exponent
        self.mask = self.order - 1
        # Shifts a < b < c of the tail x^c + x^b + x^a + 1 (poly minus its
        # x^s term); every built-in polynomial is a pentanomial.
        _, a, b, c = (i for i in range(exponent) if self.poly >> i & 1)
        self._fold = (exponent, self.mask, a, b, c)

    def __repr__(self):
        return f"GF2Field(2^{self.exponent}, poly=0x{self.poly:x})"

    def reduce(self, p: int) -> int:
        """Fold p below 2^s; p must be below 2^(2s), as a carryless
        product of two elements, or an XOR of such products, is.

        Two folds by the tail: x^s = x^c + x^b + x^a + 1 turns the high
        part h = p >> s into h ^ h<<a ^ h<<b ^ h<<c.  The first fold leaves
        a value below 2^(s+c), the second one below 2^(2c) <= 2^s."""
        s, mask, a, b, c = self._fold
        hi = p >> s
        p = p & mask ^ hi ^ hi << a ^ hi << b ^ hi << c
        hi = p >> s
        return p & mask ^ hi ^ hi << a ^ hi << b ^ hi << c

    def mul(self, a: int, b: int) -> int:
        """Product of the elements a and b: b as a one-slot packed
        vector, windowed, times the scalar a (vec_scalar_mul_w), then
        folded by reduce."""
        return self.reduce(vec_scalar_mul_w(vec_window(b), a))

    def random_element(self, rng: random.Random) -> int:
        """Uniform element of the field; deterministic given rng state."""
        return rng.getrandbits(self.exponent)


def derive_rng(seed: int, *path) -> random.Random:
    """Independent child stream keyed by (seed, *path).

    Seeded with the first 16 bytes (big-endian) of the SHA-256 of
    "seed:path0:path1:...", so the mapping is stable across runs,
    platforms and Python versions, whichever module supplies the hash
    (see the module docstring); used to hand each repetition / edge test
    / retry attempt its own stream.
    """
    key = ":".join(str(p) for p in (seed, *path)).encode()
    digest = sha256(key).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


# ---------------------------------------------------------------------------
# Packed vectors: field elements in 128-bit slots of one big int.
# ---------------------------------------------------------------------------

_LOW_MASKS: dict[tuple[int, int], int] = {}
# byte -> its low and its high nibble, for bytes.translate (vec_scalar_mul_w)
_LOW_NIBBLE = bytes(i & 15 for i in range(256))
_HIGH_NIBBLE = bytes(i >> 4 for i in range(256))


def _low_mask(count: int, s: int) -> int:
    """Mask with the low s bits set in each of `count` slots."""
    key = (count, s)
    m = _LOW_MASKS.get(key)
    if m is None:
        chunk = ((1 << s) - 1).to_bytes(SLOT_BYTES, "little")
        m = int.from_bytes(chunk * count, "little")
        _LOW_MASKS[key] = m
    return m


def vec_unpack(packed: int, count: int) -> list[int]:
    """Unpack `count` slots (values may be unreduced, up to 128 bits)."""
    buf = packed.to_bytes(SLOT_BYTES * count, "little")
    return [
        int.from_bytes(buf[SLOT_BYTES * i:SLOT_BYTES * (i + 1)], "little")
        for i in range(count)
    ]


def vec_window(packed: int):
    """4-bit window table of a packed vector, for repeated scalar products.

    Slots must hold reduced (< 2^64) values so that all window multiples
    stay inside their slot.
    """
    t2 = packed << 1
    t4 = packed << 2
    t8 = packed << 3
    t6 = t4 ^ t2
    return (
        0, packed, t2, t2 ^ packed, t4, t4 ^ packed, t6, t6 ^ packed,
        t8, t8 ^ packed, t8 ^ t2, t8 ^ t2 ^ packed, t8 ^ t4,
        t8 ^ t4 ^ packed, t8 ^ t6, t8 ^ t6 ^ packed,
    )


def vec_scalar_mul_w(window, a: int) -> int:
    """Multiply every slot of the windowed vector by a shared scalar a,
    which must be below 2^64: one window lookup per nibble of a, shifted
    to the nibble's place (the comb method of Lopez and Dahab, 2000).

    The nibbles are the low and high halves of a.to_bytes(8, "little"),
    one bytes.translate each, not a shift and a mask apiece; to_bytes
    raises OverflowError on a negative a or one of 2^64 or more.

    Returns unreduced slots: below 2^(2s-1) when the slots and a are
    elements of GF(2^s).  XOR results together freely and fold them
    (GF2Field.reduce or vec_reduce) before the values feed another
    multiplication.
    """
    b = a.to_bytes(8, "little")
    l0, l1, l2, l3, l4, l5, l6, l7 = b.translate(_LOW_NIBBLE)
    h0, h1, h2, h3, h4, h5, h6, h7 = b.translate(_HIGH_NIBBLE)
    return (window[l0] ^ window[h0] << 4 ^ window[l1] << 8
            ^ window[h1] << 12 ^ window[l2] << 16 ^ window[h2] << 20
            ^ window[l3] << 24 ^ window[h3] << 28 ^ window[l4] << 32
            ^ window[h4] << 36 ^ window[l5] << 40 ^ window[h5] << 44
            ^ window[l6] << 48 ^ window[h6] << 52 ^ window[l7] << 56
            ^ window[h7] << 60)


def vec_reduce(packed: int, count: int, field: GF2Field) -> int:
    """Fold every slot of a packed vector below 2^s; each slot must be
    below 2^(2s).  The same two folds as GF2Field.reduce, on all slots
    at once: after a shift by s, the low-s-bit mask of each slot selects
    that slot's high part and nothing of the next slot's (s <= 64)."""
    s, _, a, b, c = field._fold
    low = _low_mask(count, s)
    hi = packed >> s & low
    packed = packed & low ^ hi ^ hi << a ^ hi << b ^ hi << c
    hi = packed >> s & low
    return packed & low ^ hi ^ hi << a ^ hi << b ^ hi << c
