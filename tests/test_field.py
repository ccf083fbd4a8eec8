import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

import smallflow
from smallflow import GF2Field, derive_rng
from smallflow.field import (
    SLOT_BITS,
    is_irreducible,
    vec_reduce,
    vec_scalar_mul_w,
    vec_unpack,
    vec_window,
)


def schoolbook_product(a, b):
    """Independent bit-at-a-time carryless product, unreduced."""
    prod = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            prod ^= b << i
    return prod


def schoolbook_reduce(p, poly, s):
    """Independent bit-at-a-time remainder of p (< 2^(2s)) mod poly."""
    for bit in range(2 * s - 1, s - 1, -1):
        if (p >> bit) & 1:
            p ^= poly << (bit - s)
    return p


def schoolbook_mul(a, b, poly, s):
    """Independent bit-at-a-time carryless multiply-then-reduce oracle."""
    return schoolbook_reduce(schoolbook_product(a, b), poly, s)


def field_pow(field, a, e):
    """a^e by square-and-multiply over field.mul."""
    r = 1
    while e:
        if e & 1:
            r = field.mul(r, a)
        a = field.mul(a, a)
        e >>= 1
    return r


def pack(values):
    """Reduced elements in packed-vector form, slot i holding values[i]."""
    return sum(v << (SLOT_BITS * i) for i, v in enumerate(values))


def test_add_is_xor_char_two(field8):
    # addition is XOR, so squaring is additive: (a + b)^2 = a^2 + b^2
    # holds exactly in characteristic two
    rng = random.Random(1)
    for _ in range(200):
        a, b = field8.random_element(rng), field8.random_element(rng)
        assert field8.mul(a ^ b, a ^ b) == \
            field8.mul(a, a) ^ field8.mul(b, b)


def test_mul_identities(field64):
    rng = random.Random(2)
    for _ in range(200):
        a = field64.random_element(rng)
        assert field64.mul(a, 1) == field64.mul(1, a) == a
        assert field64.mul(a, 0) == field64.mul(0, a) == 0


def test_mul_matches_schoolbook_oracle():
    for s in (8, 16, 64):
        f = GF2Field(s)
        rng = random.Random(s)
        for _ in range(500):
            a, b = f.random_element(rng), f.random_element(rng)
            assert f.mul(a, b) == schoolbook_mul(a, b, f.poly, s)
    f = GF2Field(8)
    for a in range(256):
        for b in range(256):
            assert f.mul(a, b) == schoolbook_mul(a, b, f.poly, 8)


def test_known_aes_product(field8):
    # classic GF(2^8) example under x^8+x^4+x^3+x+1
    assert field8.mul(0x57, 0x83) == 0xC1


def test_field_axioms_random_triples(field64):
    rng = random.Random(3)
    for _ in range(10_000):
        a, b, c = (field64.random_element(rng) for _ in range(3))
        assert field64.mul(a, b) == field64.mul(b, a)
    for _ in range(2_000):
        a, b, c = (field64.random_element(rng) for _ in range(3))
        assert field64.mul(field64.mul(a, b), c) == \
            field64.mul(a, field64.mul(b, c))
        assert field64.mul(a, b ^ c) == \
            field64.mul(a, b) ^ field64.mul(a, c)


def test_inverses(field64):
    rng = random.Random(4)
    for _ in range(1_000):
        a = field64.random_element(rng)
        if a == 0:
            continue
        inv = field_pow(field64, a, field64.order - 2)
        assert field64.mul(inv, a) == 1


def test_addition_order_independence(field64):
    # a sum of products, XORed up in any order, is the product of the sum
    rng = random.Random(5)
    elems = [field64.random_element(rng) for _ in range(50)]
    c = field64.random_element(rng)
    total = 0
    for e in elems:
        total ^= e
    for _ in range(50):
        rng.shuffle(elems)
        acc = 0
        for e in elems:
            acc ^= field64.mul(e, c)
        assert acc == field64.mul(total, c)


def test_random_element_replay(field64):
    first = [GF2Field(64).random_element(random.Random(99))
             for _ in range(3)]
    again = [GF2Field(64).random_element(random.Random(99))
             for _ in range(3)]
    assert first == again


def test_distinct_seeds_diverge(field64):
    diverged = 0
    for s in range(50):
        a = random.Random(2 * s)
        b = random.Random(2 * s + 1)
        if any(field64.random_element(a) != field64.random_element(b)
               for _ in range(4)):
            diverged += 1
    assert diverged == 50


def test_uniformity_frequency(field8):
    # 4.5 sigma two-sided per-element band plus a chi-square window.
    n = 1_000_000
    rng = random.Random(7)
    counts = [0] * 256
    for _ in range(n):
        counts[field8.random_element(rng)] += 1
    p = 1 / 256
    sigma = math.sqrt(n * p * (1 - p))
    for c in counts:
        assert abs(c - n * p) < 4.5 * sigma
    chi2 = sum((c - n * p) ** 2 / (n * p) for c in counts)
    dof = 255
    assert abs(chi2 - dof) < 6 * math.sqrt(2 * dof)


def test_irreducibility_checks():
    assert is_irreducible((1 << 8) | 0b11011, 8)
    # x^8 + 1 = (x + 1)^8 over GF(2)
    assert not is_irreducible((1 << 8) | 1, 8)
    with pytest.raises(ValueError):
        GF2Field(0)
    with pytest.raises(ValueError):
        GF2Field(12)  # no built-in polynomial
    for s in (8, 16):
        assert is_irreducible(GF2Field(s).poly, s)


def test_derive_rng_stable_and_distinct():
    a = derive_rng(1, "x", 2).getrandbits(64)
    b = derive_rng(1, "x", 2).getrandbits(64)
    c = derive_rng(1, "x", 3).getrandbits(64)
    d = derive_rng(2, "x", 2).getrandbits(64)
    assert a == b
    assert len({a, c, d}) == 3


# (seed, *path) keys as the library forms them: repetitions, perturbation
# and retry streams, seeds of every sign and size, and a few odd parts
STREAM_KEYS = [
    (0,), (1,), (-1,), (2 ** 63 - 1,), (2 ** 200 + 3,),
    (0, "deletion", 0), (1, "deletion", 2, 1), (7, "find-perturbed", 0),
    (7, "perturb", 0), (7, "perturb", 3), (7, "attempt", 1),
    (123456789, "isolation-tests", 2), (-42, "mincost", 0),
    (5, "decide", 1), (5, "decide", 10), (3, "x", 2.5), (3, "", ""),
    (9, "cost", 4, "rep", 0), (2 ** 63 - 1, "attempt", 99),
    (11, "caf\u00e9", None),
]


def reference_draws(seed, *path):
    """The first draws of the stream that derive_rng(seed, *path) stands
    for, seeded from hashlib's SHA-256 of "seed:path0:...": the first 16
    bytes of the digest, big-endian."""
    key = ":".join(str(p) for p in (seed, *path)).encode()
    rng = random.Random(int.from_bytes(hashlib.sha256(key).digest()[:16],
                                       "big"))
    return [rng.getrandbits(64) for _ in range(3)] + [rng.random()]


def stream_draws(rng):
    return [rng.getrandbits(64) for _ in range(3)] + [rng.random()]


def run_fresh(script, *args):
    """Run script with args in a fresh interpreter on this checkout's
    smallflow: the JSON it prints last."""
    src = os.path.dirname(os.path.dirname(smallflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script, *args],
                         capture_output=True, text=True, env=env,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_derive_rng_is_the_sha256_stream():
    for key in STREAM_KEYS:
        assert stream_draws(derive_rng(*key)) == reference_draws(*key), key


_HASHLIB_FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None  # no built-in SHA-256
from smallflow import field
streams = [field.derive_rng(*key) for key in json.loads(sys.argv[1])]
draws = [[rng.getrandbits(64) for _ in range(3)] + [rng.random()]
         for rng in streams]
print(json.dumps([field.sha256.__module__, "hashlib" in sys.modules, draws]))
"""


def test_derive_rng_falls_back_to_hashlib():
    # an interpreter without the built-in hash module hashes with hashlib,
    # to the same streams
    module, loaded, draws = run_fresh(_HASHLIB_FALLBACK,
                                      json.dumps(STREAM_KEYS))
    assert module == hashlib.sha256.__module__ and loaded
    assert draws == [reference_draws(*key) for key in STREAM_KEYS]


_SERIAL_QUERIES = """
import json, sys
from smallflow import (FlowInstance, PathInstance, TestParams,
                       decide_disjoint_paths, find_disjoint_paths,
                       min_cost_disjoint_paths, min_cost_flow)
inst = PathInstance(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3],
                    costs=[1, 2, 2, 1])
params = TestParams(seed=5)
# two pairs, each with a route of 2 edges and one of 3 listed after it:
# the Menger search takes the longer routes, so l = 4 is evaluated
detour = PathInstance(10, [(0, 4), (4, 2), (0, 5), (5, 6), (6, 2), (1, 7),
                           (7, 3), (1, 8), (8, 9), (9, 3)], [0, 1], [2, 3])
assert decide_disjoint_paths(detour, 4, params).degree == 4
assert min_cost_disjoint_paths(inst, params) == 2
for strategy in ("deletion", "isolation"):
    assert find_disjoint_paths(inst, params,
                               strategy=strategy).total_cost == 2
flow = FlowInstance(4, [(0, 1, 1, 1), (0, 2, 1, 2), (1, 3, 1, 1),
                        (2, 3, 1, 1)], 0, 3, 2)
assert min_cost_flow(flow, params)[0] == 5
print(json.dumps([m for m in ("hashlib", "_hashlib") if m in sys.modules]))
"""


@pytest.mark.skipif(
    smallflow.field.sha256.__module__ not in ("_sha2", "_sha256"),
    reason="interpreter built without a built-in SHA-256 module: "
           "derive_rng hashes with hashlib")
def test_serial_queries_leave_hashlib_unloaded():
    # every random stream hashes its key with the built-in SHA-256, so a
    # process that answers one serial query of each kind never loads
    # hashlib, nor OpenSSL's libcrypto under it (about 3.6 MiB resident)
    assert run_fresh(_SERIAL_QUERIES) == []


_POOL_AFTER_SERIAL = _SERIAL_QUERIES + """
from random import Random
from smallflow import random_assignment
from smallflow.evaluator import TablePlan, _usable_cores
loaded = [m for m in ("dataclasses", "multiprocessing") if m in sys.modules]
f = random_assignment(params.field, inst.m, Random(1))
serial = TablePlan(inst, 3).slices(f, params.field)
pooled = TablePlan(inst, 3).slices(f, params.field, parallelism=2)
print(json.dumps([loaded, "multiprocessing" in sys.modules,
                  len(_usable_cores()) > 1, pooled == serial]))
"""


def test_serial_queries_leave_the_pool_module_unloaded():
    # the records are plain classes, and multiprocessing loads only where
    # an evaluation can start a pool: on two or more usable cores
    loaded, pool_loaded, pool_can_start, same = run_fresh(_POOL_AFTER_SERIAL)
    assert loaded == [] and same
    assert pool_loaded == pool_can_start


@pytest.mark.parametrize("s", [8, 16, 64])
def test_packed_vectors_match_elementwise(s):
    f = GF2Field(s)
    rng = random.Random(s + 10)
    for count in (1, 3, 17):
        vals = [f.random_element(rng) for _ in range(count)]
        packed = pack(vals)
        assert vec_unpack(packed, count) == vals
        scalar = f.random_element(rng)
        prod = vec_reduce(vec_scalar_mul_w(vec_window(packed), scalar),
                          count, f)
        assert vec_unpack(prod, count) == [f.mul(scalar, v) for v in vals]


def test_packed_accumulation_reduces_like_field(field64):
    rng = random.Random(42)
    count = 9
    vals = [[field64.random_element(rng) for _ in range(count)]
            for _ in range(4)]
    scalars = [field64.random_element(rng) for _ in range(4)]
    acc = 0
    for row, s in zip(vals, scalars):
        acc ^= vec_scalar_mul_w(vec_window(pack(row)), s)
    got = vec_unpack(vec_reduce(acc, count, field64), count)
    want = [0] * count
    for row, s in zip(vals, scalars):
        for i, v in enumerate(row):
            want[i] ^= field64.mul(s, v)
    assert got == want


def edge_elements(s, rng, extra):
    """0, 1, 2^(s-1), 2^s - 1, then `extra` random elements of GF(2^s)."""
    return [0, 1, 1 << (s - 1), (1 << s) - 1] + \
        [rng.getrandbits(s) for _ in range(extra)]


@pytest.mark.parametrize("s", [8, 16, 64])
def test_kernels_match_schoolbook(s):
    # the packed product against the bit-at-a-time one slot by slot,
    # before any fold, then each fold against the bit-at-a-time remainder;
    # f.mul is not the reference, since it runs the same kernels
    f = GF2Field(s)
    rng = random.Random(s + 20)
    # two vectors at each small width, drawn from the extreme and random
    # elements
    for count in (1, 1, 2, 2, 17):
        vals = rng.sample(edge_elements(s, rng, 13), count)
        win = vec_window(pack(vals))
        for a in edge_elements(s, rng, 6):
            raw = vec_scalar_mul_w(win, a)
            slots = vec_unpack(raw, count)
            assert slots == [schoolbook_product(a, v) for v in vals]
            want = [schoolbook_mul(a, v, f.poly, s) for v in vals]
            assert [f.reduce(x) for x in slots] == want
            assert vec_unpack(vec_reduce(raw, count, f), count) == want


def test_comb_product_takes_every_64_bit_scalar():
    # every nibble of the scalar, the top one included
    rng = random.Random(64)
    vals = edge_elements(64, rng, 2)
    win = vec_window(pack(vals))
    for a in [(1 << 64) - 1, 1 << 63, 0xF << 60, 0x0123456789ABCDEF] + \
            [rng.getrandbits(64) for _ in range(50)]:
        assert vec_unpack(vec_scalar_mul_w(win, a), len(vals)) == \
            [schoolbook_product(a, v) for v in vals]


def test_comb_product_refuses_a_scalar_outside_64_bits():
    # the nibbles come from the scalar's 8 unsigned bytes, so a scalar the
    # comb cannot take whole raises instead of returning a product
    win = vec_window(pack([3, 5]))
    for a in (1 << 64, -1):
        with pytest.raises(OverflowError):
            vec_scalar_mul_w(win, a)


@pytest.mark.parametrize("s", [8, 16, 64])
def test_folds_at_their_largest_inputs(s):
    # reduce and vec_reduce at the largest product bound 2^(2s-1) - 1, at
    # the precondition's limit 2^(2s) - 1, and at XORs of several
    # unreduced products of random and extreme elements
    f = GF2Field(s)
    rng = random.Random(s + 30)
    inputs = [(1 << (2 * s - 1)) - 1, (1 << (2 * s)) - 1, (1 << s) - 1,
              1 << s, 0]
    for terms in (2, 3, 8):
        for _ in range(6):
            acc = 0
            for _ in range(terms):
                a, b = rng.choice(edge_elements(s, rng, 4)), \
                    f.random_element(rng)
                acc ^= schoolbook_product(a, b)
            inputs.append(acc)
    want = [schoolbook_reduce(p, f.poly, s) for p in inputs]
    assert [f.reduce(p) for p in inputs] == want
    assert vec_unpack(vec_reduce(pack(inputs), len(inputs), f),
                      len(inputs)) == want
    for count in (1, 2, 17):
        chosen = [rng.choice(inputs) for _ in range(count)]
        assert vec_unpack(vec_reduce(pack(chosen), count, f), count) == \
            [schoolbook_reduce(p, f.poly, s) for p in chosen]
