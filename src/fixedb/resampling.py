"""Randomness engines: index draws, multiplier weights, SGD paths,
permutation and sign-flip draws, and the benchmark samplers.

Seeding model
-------------
Every draw is a pure function of a :class:`SeedSpec`, i.e. a
(master_seed, stream_id) pair mapped through a counter-based Philox
generator.  Streams are pre-split: stream_id = replicate * 2**16 +
resample (:func:`stream_for`), so a replicate's b-th resample sees the
same bits no matter how work is scheduled across threads.

A stream's Philox key is ``SeedSequence(master_seed,
spawn_key=(stream_id,)).generate_state(2, np.uint64)``.  Every batched
draw takes keys its caller derives once, in one vectorized pass
(:func:`_stream_keys`, over :func:`_philox_keys`): the keys of streams
firsts[i] + b for b < count, in row i * count + b, so one pass serves
the B resamples of each of R replicates (R x B streams), or one stream
of each of R replicates' data.  The draws reopen one thread-local
Philox at each key row in turn, so a procedure call pays one
derivation for its B resamples instead of building B generators.  A
reopen sets the Philox state from plain Python ints
(:func:`_reopened`), which costs about 1 us, and row j of a draw has
exactly the bits of the single-stream call on key row j's stream.  A
caller may hand a draw any slice of its keys, so the CI block kernel
derives a block's keys once and draws its rows a slice at a time.
There are three draws: :func:`_stream_rows` (any draw(gen), which
derives its own keys; a block's data and the randomized-branch
uniforms), :func:`_bounded_from` (uniform integers: bootstrap indices,
sign-flip coins, picks from an explicit list, since a scalar
``integers(0, L)`` has the bits of ``integers(0, L, size=1)``) and
:func:`_shuffled_from` (permutations, and the subsamples that are
their sorted prefixes).  :func:`bootstrap_indices`,
:func:`subsample_indices`, :func:`signflip_transform` and
:func:`permutation_draw` are the single-stream draws whose bits those
rows have.  Permutation rows fill one stack with ``arange(m)`` and
shuffle each row in place, which is what ``Generator.permutation(m)``
does to a fresh ``arange(m)``.

Batched uniform integers in [0, m) skip numpy's per-call argument
handling (:func:`_bounded_from`).  For m <= 2**32, ``integers`` draws
each value with Lemire's 32-bit rule from the next 32-bit output of
Philox, which is the low and then the high half of each raw 64-bit
word.  So each stream takes ceil(n/2) raw words (``random_raw``), the
stack's 32-bit outputs are read in that order through a little-endian
uint32 view of the words (whatever the machine's byte order), and the
rule runs over the whole (count, n) stack at once: an output x gives
(x * m) >> 32 unless (x * m) mod 2**32 < (2**32 - m) mod m, when numpy
rejects it and draws again.  A row with any rejection (about 2e-8 per
draw at m = 100, none when m is a power of two) is redrawn by
``integers`` itself on its reopened key, which is exact; so is every
row at m > 2**32, where numpy switches to a 64-bit rule.

Non-uniform laws are derived from the base generator by explicit
transforms (inverse CDF for exponential and Laplace, ratio and sum of
squared normals for Student-t and chi-square) rather than library
samplers, so the draw algorithm itself is part of the contract.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidInput, NumericalFailure, _check_choice, _check_count, _check_real, _check_vector

__all__ = [
    "SeedSpec",
    "SgdSpec",
    "PairStream",
    "PermutationGroup",
    "full_symmetric",
    "stream_for",
    "generator",
    "bootstrap_indices",
    "subsample_indices",
    "sgd_path",
    "sgd_paths",
    "signflip_transform",
    "permutation_draw",
    "setting_sampler",
    "setting_truth",
]

RESAMPLE_STRIDE = 2**16
_U64 = 2**64


@dataclass(frozen=True)
class SeedSpec:
    """A (master_seed, stream_id) pair naming one independent stream."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            _check_count(v, name, lo=0)
            if int(v) >= _U64:
                raise InvalidInput(f"{name} must be an integer in [0, 2**64)")


def stream_for(replicate: int, resample: int = 0) -> int:
    """Stream id for a (replicate, resample) slot.

    Each replicate owns a contiguous block of 2**16 stream ids, so two
    replicates' streams stay apart whatever the execution order, as long
    as every stream a replicate reads lies in its own block.  A
    procedure seeded at ``stream_for(r, 1)`` with budget B reads
    resample slots 1 .. B + 1 (B resamples and the randomized branch
    draw), so B must stay at most 2**16 - 2: at B = 2**16 - 1 the branch
    draw already reads ``stream_for(r + 1, 0)``, replicate r + 1's data
    stream.  The harness rejects larger budgets.
    """
    _check_count(replicate, "replicate", lo=0)
    _check_count(resample, "resample", lo=0)
    # Python ints, so a numpy integer replicate cannot wrap past 2**63
    replicate, resample = int(replicate), int(resample)
    if resample >= RESAMPLE_STRIDE:
        raise InvalidInput(f"resample index must lie in [0, {RESAMPLE_STRIDE})")
    if replicate * RESAMPLE_STRIDE + resample >= _U64:
        raise InvalidInput("replicate index out of the 64-bit stream range")
    return replicate * RESAMPLE_STRIDE + resample


def generator(seed: SeedSpec) -> np.random.Generator:
    """A fresh Philox generator for one stream.

    Value-semantic but not cheap: building the SeedSequence, Philox and
    Generator costs about 20 us, as much as a whole small draw.  Batched
    draws therefore derive a batch of streams at once
    (:func:`_stream_rows`).
    """
    ss = np.random.SeedSequence(seed.master_seed, spawn_key=(seed.stream_id,))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash constants (32-bit words, pool of 4 words)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_chain(init: int, mult: int, n: int) -> np.ndarray:
    """init, init * mult, ..., init * mult**n, modulo 2**32.

    Hash number i of a chain xors its input with word i and multiplies
    it by word i + 1.
    """
    words = [init]
    for _ in range(n):
        words.append(words[-1] * mult & _M32)
    return np.array(words, np.uint32)


# mixing a master seed (at most 2 words, padded to the pool's 4) takes
# hashes 0 .. 15 of chain A; spawn word k then takes hashes 16 + 4k + j,
# one per pool word j.  The output takes hashes 0 .. 3 of chain B.
_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, 24)
_SPAWN_X, _SPAWN_M = _CHAIN_A[16:24].reshape(2, 4), _CHAIN_A[17:25].reshape(2, 4)
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, 4)
_OUT_X, _OUT_M = _CHAIN_B[:4], _CHAIN_B[1:]


@lru_cache(maxsize=64)
def _master_pool(master_seed: int) -> np.ndarray:
    """The 4-word pool after mixing in the master seed alone.

    With a spawn key, SeedSequence pads the run entropy with zeros to
    the pool size; without one it hashes zeros in their place, so the
    pool before the spawn words is ``SeedSequence(master_seed).pool``.
    """
    pool = np.random.SeedSequence(int(master_seed)).pool.copy()
    pool.flags.writeable = False
    return pool


def _mix_spawn_word(pool: np.ndarray, word: np.ndarray, k: int) -> np.ndarray:
    """Mix spawn word number k (one per stream) into each (n, 4) pool row."""
    h = (word[:, None] ^ _SPAWN_X[k]) * _SPAWN_M[k]
    h ^= h >> np.uint32(16)
    out = pool * np.uint32(_MIX_L) - h * np.uint32(_MIX_R)
    out ^= out >> np.uint32(16)
    return out


def _philox_keys(master_seed: int, stream_ids) -> np.ndarray:
    """(n, 2) uint64 Philox keys of the streams (master_seed, stream_ids[i]).

    Row i equals ``SeedSequence(master_seed, spawn_key=(stream_ids[i],))
    .generate_state(2, np.uint64)``, the key ``Philox`` takes from that
    SeedSequence, for master seeds and stream ids in [0, 2**64).  A
    stream id below 2**32 is one spawn word; a larger one is two, low
    word first.
    """
    sids = np.asarray(stream_ids, dtype=np.uint64).reshape(-1)
    pool = _mix_spawn_word(_master_pool(master_seed), (sids & np.uint64(_M32)).astype(np.uint32), 0)
    two = sids > np.uint64(_M32)
    if two.any():
        pool[two] = _mix_spawn_word(pool[two], (sids[two] >> np.uint64(32)).astype(np.uint32), 1)
    words = (pool ^ _OUT_X) * _OUT_M
    words ^= words >> np.uint32(16)
    words = words.astype(np.uint64)
    return words[:, 0::2] | (words[:, 1::2] << np.uint64(32))


class _ThreadPhilox(threading.local):
    """One Philox/Generator pair per thread, reopened at each stream key.

    ``state`` is a fresh Philox's state in plain Python ints: Philox's
    setter converts each word, and a numpy uint64 scalar costs it more
    than twice as much as an int.
    """

    def __init__(self) -> None:
        self.bitgen = np.random.Philox(key=0)
        self.gen = np.random.Generator(self.bitgen)
        self.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }


_PHILOX = _ThreadPhilox()


def _stream_keys(master_seed: int, firsts, count: int) -> np.ndarray:
    """(len(firsts) * count, 2) Philox keys of the streams firsts[i] + b
    for b < count, in row i * count + b: the one key derivation of every
    batched draw."""
    _check_count(count, "count")
    firsts = np.asarray(firsts, dtype=np.uint64).reshape(-1)
    if int(firsts.max()) + count > _U64:
        raise InvalidInput("count runs past the 64-bit stream range")
    return _philox_keys(master_seed, (firsts[:, None] + np.arange(count, dtype=np.uint64)).reshape(-1))


def _reopened(keys: np.ndarray):
    """Yield the thread's Philox/Generator pair reset to each (n, 2) key
    row in turn, with its counter at zero and its buffers empty, which is
    the state a fresh one starts in.  The keys go in as Python int lists
    (``keys.tolist()``), so a reset costs about 1 us; the pair is the
    same object each time, so a caller binds the methods it calls before
    its loop."""
    local = _PHILOX
    bitgen, state = local.bitgen, local.state
    words = state["state"]
    for key in keys.tolist():
        words["key"] = key
        bitgen.state = state
        yield local


def _stream_rows(master_seed: int, firsts, count: int, draw: Callable) -> np.ndarray:
    """Stack of draw(g) over the generators g of streams firsts[i] + b,
    b < count, in row i * count + b, bit for bit as ``draw(generator(...))``."""
    keys = _stream_keys(master_seed, firsts, count)
    gen = _PHILOX.gen
    return np.stack([draw(gen) for _ in _reopened(keys)])


_LEMIRE_MAX = 2**32


def _bounded_from(keys: np.ndarray, m: int, n: int) -> np.ndarray:
    """(len(keys), n) int64 stack whose row j is ``integers(0, m, size=n)``
    of a fresh Philox at key row j, i.e. of that stream's
    :func:`generator`.

    Runs numpy's 32-bit Lemire rule on raw Philox words for the whole
    stack (see the module docstring), reading each word's two 32-bit
    outputs through a little-endian uint32 view; a row with a rejected
    word is redrawn by ``integers`` on its reopened key.
    """
    if m > _LEMIRE_MAX:
        integers = _PHILOX.gen.integers
        return np.stack([integers(0, m, size=n) for _ in _reopened(keys)])
    half = (n + 1) // 2
    raw = np.empty((len(keys), half), np.uint64)
    random_raw = _PHILOX.bitgen.random_raw
    for j, _ in enumerate(_reopened(keys)):
        raw[j] = random_raw(half)
    # word x gives the 32-bit outputs x mod 2**32, then x >> 32
    prod = raw.astype("<u8", copy=False).view("<u4")[:, :n] * np.uint64(m)
    del raw
    threshold = (_LEMIRE_MAX - m) % m
    rejected = []
    if threshold:
        # astype keeps the low 32 bits of each product
        rejected = np.flatnonzero((prod.astype(np.uint32) < threshold).any(axis=1)).tolist()
    prod >>= np.uint64(32)
    out = prod.view(np.int64)
    if rejected:
        for j, local in zip(rejected, _reopened(keys[rejected])):
            out[j] = local.gen.integers(0, m, size=n)
    return out


def _exponential(u: np.ndarray, rate: float = 1.0) -> np.ndarray:
    # inverse CDF; -log1p(-u) is exact near u = 0
    return -np.log1p(-u) / rate


def _laplace(u: np.ndarray) -> np.ndarray:
    v = u - 0.5
    return np.sign(v) * -np.log1p(-2.0 * np.abs(v))


def _student_t5(gen: np.random.Generator, n: int) -> np.ndarray:
    z = gen.standard_normal((n, 6))
    return z[:, 0] / np.sqrt(np.sum(z[:, 1:] ** 2, axis=1) / 5.0)


def bootstrap_indices(m: int, seed: SeedSpec) -> np.ndarray:
    """m IID uniform indices in [0, m), i.e. one bootstrap resample."""
    _check_count(m, "m")
    return generator(seed).integers(0, m, size=m)


def subsample_indices(m: int, k: int, seed: SeedSpec) -> np.ndarray:
    """A uniformly random k-subset of [0, m), sorted, without replacement."""
    _check_count(m, "m")
    _check_count(k, "k")
    if k > m:
        raise InvalidInput(f"need 1 <= k <= m, got k={k}, m={m}")
    return np.sort(generator(seed).permutation(m)[:k])


def signflip_transform(x, mask_seed: SeedSpec) -> np.ndarray:
    """Flip each entry's sign by an IID fair coin; an involution in the seed.
    ``x`` must be a non-empty 1-d vector of finite reals."""
    x = _check_vector(x, "x")
    return x * (1 - 2 * generator(mask_seed).integers(0, 2, size=x.size))


@dataclass(frozen=True)
class PermutationGroup:
    """Either the full symmetric group on m points or an explicit list.

    ``perms`` is None for the full group; otherwise a tuple of
    length-m index tuples (each must be a permutation of range(m)).
    """

    m: int
    perms: Optional[tuple] = None

    def __post_init__(self) -> None:
        _check_count(self.m, "m")
        if self.perms is not None:
            if len(self.perms) == 0:
                raise InvalidInput("explicit permutation list must be nonempty")
            ref = tuple(range(self.m))
            for p in self.perms:
                try:
                    ok = tuple(sorted(p)) == ref
                except TypeError:  # not a sequence of comparable entries
                    ok = False
                if not ok:
                    raise InvalidInput(f"{p!r} is not a permutation of range({self.m})")

    @property
    def size(self) -> int:
        """|G|: the list length, or m! (an exact Python int) for the full group."""
        if self.perms is not None:
            return len(self.perms)
        return math.factorial(self.m)


def full_symmetric(m: int) -> PermutationGroup:
    """The full symmetric group on m points."""
    return PermutationGroup(m=m)


def permutation_draw(G: PermutationGroup, seed: SeedSpec) -> np.ndarray:
    """One uniform element of G (Fisher-Yates for the full group)."""
    return _permutation_of(G, generator(seed))


def _permutation_of(G: PermutationGroup, gen: np.random.Generator) -> np.ndarray:
    """The element of G that :func:`permutation_draw` takes from gen."""
    if G.perms is None:
        return gen.permutation(G.m)
    return np.asarray(G.perms[int(gen.integers(0, len(G.perms)))], dtype=np.int64)


def _shuffled_from(keys: np.ndarray, m: int) -> np.ndarray:
    """(len(keys), m) int64 stack whose row j is ``permutation(m)`` of a
    fresh Philox at key row j: one arange-filled stack, each row shuffled
    in place."""
    rows = np.empty((len(keys), m), np.int64)
    rows[:] = np.arange(m)
    shuffle = _PHILOX.gen.shuffle
    for row, _ in zip(rows, _reopened(keys)):
        shuffle(row)
    return rows


@dataclass(frozen=True)
class SgdSpec:
    """Configuration of the averaged-SGD recursion.

    The step n update is theta -= gamma1 * n**(-tau_exp) * w_n *
    gradient(theta, data[n-1]); w_n is 1 under weight_law None and an
    IID mean-1 variance-1 draw under "exponential".  The returned
    estimate is the mean of the iterates after the first ``burn_in``
    steps.
    """

    dim: int
    gamma1: float
    tau_exp: float
    burn_in: int
    n_total: int
    gradient: Optional[Callable] = None
    weight_law: Optional[str] = None

    def __post_init__(self) -> None:
        _check_count(self.dim, "dim")
        _check_real(self.gamma1, "gamma1", 0, strict=True)
        _check_real(self.tau_exp, "tau_exp", 0.5, 1, strict=True)
        _check_count(self.burn_in, "burn_in", lo=0)
        _check_count(self.n_total, "n_total", lo=self.burn_in + 1)
        _check_choice(self.weight_law, "weight_law", (None, "exponential"))


def _weight_matrix(spec: SgdSpec, seeds: Sequence[Optional[SeedSpec]]) -> np.ndarray:
    w = np.ones((spec.n_total, len(seeds)))
    if spec.weight_law == "exponential":
        for j, s in enumerate(seeds):
            if s is not None:
                w[:, j] = _exponential(generator(s).random(spec.n_total))
    return w


def sgd_path(spec: SgdSpec, data, theta0, seed: Optional[SeedSpec] = None) -> np.ndarray:
    """One averaged-SGD path; returns the post-burn-in iterate mean.

    ``data`` must support integer indexing up to n_total - 1.  The
    weight stream (when the law needs one) comes entirely from
    ``seed``, so two paths over the same data differ only through
    their weights.
    """
    if spec.gradient is None:
        raise InvalidInput("spec.gradient callback is required")
    theta = _check_vector(theta0, "theta0")
    if theta.shape != (spec.dim,):
        raise InvalidInput(f"theta0 must have shape ({spec.dim},)")
    w = _weight_matrix(spec, [seed])[:, 0]
    total = np.zeros(spec.dim)
    for n in range(1, spec.n_total + 1):
        g = np.asarray(spec.gradient(theta, data[n - 1]), dtype=float)
        if g.shape != theta.shape:
            raise InvalidInput(f"spec.gradient gave shape {g.shape}, expected {theta.shape}")
        if not np.all(np.isfinite(g)):
            raise NumericalFailure("non-finite gradient", step=n)
        theta = theta - spec.gamma1 * n ** (-spec.tau_exp) * w[n - 1] * g
        if n > spec.burn_in:
            total += theta
    return total / (spec.n_total - spec.burn_in)


def sgd_paths(
    spec: SgdSpec,
    data,
    theta0,
    seeds: Sequence[Optional[SeedSpec]],
    gradient_batch: Optional[Callable] = None,
) -> np.ndarray:
    """Run len(seeds) paths in lockstep over one data stream.

    Column j reproduces ``sgd_path(spec, data, theta0, seeds[j])``
    bit for bit; a None seed means unit weights.  ``gradient_batch``
    maps (thetas of shape (P, dim), data point) to a (P, dim) gradient
    stack; without it the scalar callback is looped.  Any other shape
    raises :class:`InvalidInput`; unlike the other batch hooks it has no
    scalar fallback (see README, "Opt-in batch hooks").
    """
    P = len(seeds)
    if P < 1:
        raise InvalidInput("need at least one path")
    theta = np.tile(_check_vector(theta0, "theta0"), (P, 1))
    if theta.shape != (P, spec.dim):
        raise InvalidInput(f"theta0 must have shape ({spec.dim},)")
    what = "gradient_batch"
    if gradient_batch is None:
        what = "spec.gradient"
        if spec.gradient is None:
            raise InvalidInput("either gradient_batch or spec.gradient is required")

        def gradient_batch(ths, point):
            return np.stack([np.asarray(spec.gradient(t, point), float) for t in ths])

    w = _weight_matrix(spec, seeds)
    total = np.zeros((P, spec.dim))
    for n in range(1, spec.n_total + 1):
        g = np.asarray(gradient_batch(theta, data[n - 1]), dtype=float)
        if g.shape != theta.shape:
            raise InvalidInput(f"{what} gave shape {g.shape}, expected {theta.shape}")
        if not np.all(np.isfinite(g)):
            bad = int(np.flatnonzero(~np.isfinite(g).all(axis=1))[0])
            raise NumericalFailure(f"non-finite gradient on path {bad}", step=n)
        theta = theta - spec.gamma1 * n ** (-spec.tau_exp) * w[n - 1][:, None] * g
        if n > spec.burn_in:
            total += theta
    return total / (spec.n_total - spec.burn_in)


class PairStream:
    """An (X_i, Y_i) stream backed by two aligned arrays."""

    __slots__ = ("x", "y")

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        if len(x) != len(y):
            raise InvalidInput("x and y must have equal length")
        self.x = x
        self.y = y

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i):
        return self.x[i], self.y[i]


_SETTING_4_THETA = np.array([0.2, -0.2, 0.0])

#: The size parameters each benchmark setting reads; d defaults to 100.
_SETTING_SIZES = {1: ("m",), 2: ("m", "d"), 3: ("m",), 4: ("n",)}


def setting_sampler(setting: int, params: dict, seed: SeedSpec):
    """Draw one dataset for benchmark setting 1-4.

    1: m Exponential(rate 5) values; target is the mean, 0.2.
    2: m rows of T * (V_1, ..., V_d) with T Student-t(5) and V_j
       chi-square(1); target is the zero mean vector, d defaults 100.
    3: m Uniform(0, 1) values; target is the endpoint 1, estimator max.
    4: an (X, Y) stream of length n with X standard normal in R^3 and
       Y = X'theta + Laplace(0, 1) noise, theta = (0.2, -0.2, 0).
    """
    return _setting_draw(setting, params)(generator(seed))


def _setting_draw(setting: int, params: dict) -> Callable:
    """draw(gen): :func:`setting_sampler`'s dataset drawn from the
    generator gen, with the setting and sizes checked once, here."""
    _check_choice(setting, "setting", _SETTING_SIZES)
    params = {"d": 100, **params}
    for key in _SETTING_SIZES[setting]:
        _check_count(params.get(key), key)
    m, d, n = params.get("m"), params["d"], params.get("n")

    def draw(gen: np.random.Generator):
        if setting == 1:
            return _exponential(gen.random(m), rate=5.0)
        if setting == 2:
            t = _student_t5(gen, m)
            v = gen.standard_normal((m, d)) ** 2
            return t[:, None] * v
        if setting == 3:
            return gen.random(m)
        x = gen.standard_normal((n, 3))
        eps = _laplace(gen.random(n))
        return PairStream(x, x @ _SETTING_4_THETA + eps)

    return draw


def setting_truth(setting: int, params: Optional[dict] = None):
    """The true parameter targeted in each benchmark setting."""
    _check_choice(setting, "setting", _SETTING_SIZES)
    if setting == 1:
        return 0.2
    if setting == 2:
        d = (params or {}).get("d", 100)
        _check_count(d, "d")
        return np.zeros(d)
    if setting == 3:
        return 1.0
    return _SETTING_4_THETA.copy()
