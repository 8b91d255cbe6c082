"""Seeded streams, resample draws, SGD paths, and the benchmark samplers."""

import math
import re
import sys
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fixedb.errors import InvalidInput, NumericalFailure
from fixedb import resampling
from fixedb.resampling import (
    _U64,
    RESAMPLE_STRIDE,
    _bounded_from,
    _bounded_rows,
    _permutation_of,
    _permutation_rows,
    _philox_keys,
    _reopened,
    _stream_ids,
    _stream_rows,
    PairStream,
    PermutationGroup,
    SeedSpec,
    SgdSpec,
    bootstrap_indices,
    full_symmetric,
    generator,
    permutation_draw,
    setting_sampler,
    setting_truth,
    sgd_path,
    sgd_paths,
    signflip_transform,
    stream_for,
    subsample_indices,
)


class TestSeeds:
    def test_stream_arithmetic(self):
        assert stream_for(0, 0) == 0
        assert stream_for(3, 5) == 3 * RESAMPLE_STRIDE + 5
        assert stream_for(2, 0) == 2 * 2**16

    def test_validation(self):
        with pytest.raises(InvalidInput):
            SeedSpec(-1)
        with pytest.raises(InvalidInput):
            SeedSpec(2**64)
        with pytest.raises(InvalidInput):
            SeedSpec(0, stream_id=-2)

    def test_determinism_and_separation(self):
        a = generator(SeedSpec(7, 1)).random(8)
        b = generator(SeedSpec(7, 1)).random(8)
        c = generator(SeedSpec(7, 2)).random(8)
        d = generator(SeedSpec(8, 1)).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: bootstrap_indices(2.5, SeedSpec(1)), "m"),
            (lambda: subsample_indices(10, 2.5, SeedSpec(1)), "k"),
            (lambda: SeedSpec(True), "master_seed"),
            (lambda: PermutationGroup(2.5), "m"),
            (lambda: stream_for(2.5, 1), "replicate"),
        ],
        ids=["bootstrap_m", "subsample_k", "seed_bool", "group_m", "stream_replicate"],
    )
    def test_non_integer_names_the_argument(self, call, name):
        with pytest.raises(InvalidInput, match=f"^{name} must be an integer"):
            call()

    def test_numpy_integers_accepted(self):
        assert SeedSpec(np.uint64(_U64 - 1), np.int64(3)).stream_id == 3
        assert stream_for(np.int64(2), np.int32(5)) == stream_for(2, 5)
        assert stream_for(np.int64(2**47), 5) == 2**63 + 5  # no int64 wrap-around
        assert np.array_equal(bootstrap_indices(np.int64(10), SeedSpec(1)), bootstrap_indices(10, SeedSpec(1)))
        assert PermutationGroup(np.int64(4)).size == 24


class TestDraws:
    def test_bootstrap_indices(self):
        idx = bootstrap_indices(10, SeedSpec(1))
        assert idx.shape == (10,)
        assert idx.min() >= 0 and idx.max() < 10
        assert np.array_equal(idx, bootstrap_indices(10, SeedSpec(1)))

    def test_subsample_indices(self):
        idx = subsample_indices(10, 4, SeedSpec(2))
        assert idx.shape == (4,)
        assert len(set(idx.tolist())) == 4
        assert np.all(np.diff(idx) > 0)
        # k = m returns every index
        assert subsample_indices(6, 6, SeedSpec(2)).tolist() == list(range(6))
        with pytest.raises(InvalidInput):
            subsample_indices(5, 6, SeedSpec(0))

    def test_signflip(self):
        x = np.arange(1.0, 9.0)
        y = signflip_transform(x, SeedSpec(3))
        assert np.array_equal(np.abs(y), x)
        assert set(np.sign(y).tolist()) <= {-1.0, 1.0}
        flips = np.stack([signflip_transform(np.ones(4), SeedSpec(3, s)) for s in range(400)])
        # each coordinate flips about half the time
        assert np.all(np.abs(flips.mean(axis=0)) < 0.2)

    def test_permutation_group(self):
        G = full_symmetric(5)
        assert G.size == 120
        p = permutation_draw(G, SeedSpec(4))
        assert sorted(p.tolist()) == list(range(5))
        explicit = PermutationGroup(3, perms=(np.array([1, 2, 0]), np.array([2, 0, 1])))
        assert explicit.size == 2
        q = permutation_draw(explicit, SeedSpec(4))
        assert q.tolist() in ([1, 2, 0], [2, 0, 1])

    def test_full_group_size_is_exact_beyond_20(self):
        assert full_symmetric(30).size == math.factorial(30)


_TWO_WORD = 2**32  # stream ids from here on are two spawn words


def _reference_key(master, sid):
    return np.random.SeedSequence(master, spawn_key=(sid,)).generate_state(2, np.uint64)


class TestBatchedStreams:
    @given(
        master=st.one_of(st.integers(0, 2**32 - 1), st.integers(0, _U64 - 1)),
        sids=st.lists(
            st.one_of(st.integers(0, _TWO_WORD - 1), st.integers(_TWO_WORD, _U64 - 1)),
            min_size=1,
            max_size=12,
        ),
    )
    def test_keys_match_seed_sequence(self, master, sids):
        keys = _philox_keys(master, np.array(sids, dtype=np.uint64))
        assert keys.shape == (len(sids), 2) and keys.dtype == np.uint64
        for key, sid in zip(keys, sids):
            assert np.array_equal(key, _reference_key(master, sid))

    def test_keys_are_the_philox_key(self):
        sid = stream_for(3, 7)
        key = generator(SeedSpec(20260823, sid)).bit_generator.state["state"]["key"]
        assert np.array_equal(_philox_keys(20260823, [sid])[0], key)

    # (master, m, count, stream_id); the last two cross into two-word ids
    CASES = [
        (20260823, 1, 1, 0),
        (20260823, 7, 19, stream_for(3, 1)),
        (4177, 100, 199, stream_for(250, 1)),
        (0, 12, 9, _TWO_WORD - 4),
        (2**64 - 1, 5, 3, _U64 - 3),
    ]

    @pytest.mark.parametrize("master,m,count,sid", CASES)
    def test_batch_rows_match_single_stream_calls(self, master, m, count, sid):
        def seeds():
            return [SeedSpec(master, sid + b) for b in range(count)]

        seed = SeedSpec(master, sid)
        k = max(1, m // 3)
        x = np.linspace(-1.0, 2.0, m)
        G = full_symmetric(m)
        explicit = PermutationGroup(3, perms=((0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1)))
        pairs = [
            (bootstrap_indices(m, seed, count=count), [bootstrap_indices(m, s) for s in seeds()]),
            (subsample_indices(m, k, seed, count=count), [subsample_indices(m, k, s) for s in seeds()]),
            # rank_test_block's batched sign flips and permutations
            (x * (1 - 2 * _bounded_rows(master, [sid], count, 2, m)), [signflip_transform(x, s) for s in seeds()]),
            (_stream_rows(master, [sid], count, partial(_permutation_of, G)), [permutation_draw(G, s) for s in seeds()]),
            (
                _stream_rows(master, [sid], count, partial(_permutation_of, explicit)),
                [permutation_draw(explicit, s) for s in seeds()],
            ),
        ]
        for batch, rows in pairs:
            assert batch.shape == (count, rows[0].size)
            assert batch.dtype == rows[0].dtype
            for b, row in enumerate(rows):
                assert np.array_equal(batch[b], row)

    def test_golden_first_draws(self):
        seed = SeedSpec(20260823, stream_for(3, 7))
        assert generator(seed).integers(0, 2**32, size=4).tolist() == [
            815173627, 544067905, 770814172, 2578449838,
        ]
        assert bootstrap_indices(10, seed, count=3).tolist() == [
            [1, 1, 1, 6, 1, 3, 8, 1, 5, 1],
            [2, 4, 3, 8, 7, 6, 1, 4, 0, 6],
            [2, 5, 5, 7, 4, 8, 7, 7, 9, 9],
        ]

    def test_draw_state_does_not_leak_between_batches(self):
        seed = SeedSpec(9, 40)
        first = subsample_indices(30, 10, seed, count=5)
        _bounded_rows(9, [3], 4, 2, 7)
        assert np.array_equal(subsample_indices(30, 10, seed, count=5), first)

    def test_threads_draw_the_same_stacks(self):
        seeds = [SeedSpec(20260823, stream_for(r, 1)) for r in range(200)]
        expected = [bootstrap_indices(200, s, count=19) for s in seeds]
        got = {}
        barrier = threading.Barrier(4, timeout=30)

        def worker(name):
            barrier.wait()
            got[name] = [bootstrap_indices(200, s, count=19) for s in seeds]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 4
        for stacks in got.values():
            assert all(np.array_equal(a, b) for a, b in zip(stacks, expected))

    def test_count_validation(self):
        with pytest.raises(InvalidInput):
            bootstrap_indices(5, SeedSpec(1), count=0)
        with pytest.raises(InvalidInput):
            bootstrap_indices(5, SeedSpec(1, _U64 - 2), count=3)
        assert bootstrap_indices(5, SeedSpec(1, _U64 - 2), count=2).shape == (2, 5)


class TestBoundedRows:
    """The raw-word Lemire path against numpy's own ``integers`` call."""

    @staticmethod
    def scalar_rows(seed, count, m, n):
        return np.stack(
            [
                generator(SeedSpec(seed.master_seed, seed.stream_id + b)).integers(0, m, size=n)
                for b in range(count)
            ]
        )

    # 2**32 + 5 is past numpy's 32-bit rule and keeps the per-row call
    @pytest.mark.parametrize("m", [1, 2, 3, 7, 100, 400, 2**32, 2**32 + 5])
    @pytest.mark.parametrize("sid", [stream_for(5, 1), _TWO_WORD - 3, _TWO_WORD, 2**50 + 11])
    @pytest.mark.parametrize("n", [1, 10, 101])
    def test_rows_match_scalar_integers(self, m, sid, n):
        seed = SeedSpec(20260823, sid)
        got = _bounded_rows(seed.master_seed, [seed.stream_id], 6, m, n)
        want = self.scalar_rows(seed, 6, m, n)
        assert got.dtype == want.dtype == np.int64
        assert got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [2, 100, 2**32 + 5])
    def test_first_stream_vector_stacks_the_single_calls(self, m):
        firsts = [stream_for(0, 1), stream_for(7, 1), _TWO_WORD - 2]
        got = _bounded_rows(20260823, firsts, 5, m, 9)
        want = np.concatenate([self.scalar_rows(SeedSpec(20260823, f), 5, m, 9) for f in firsts])
        assert np.array_equal(got, want)
        perms = _stream_rows(20260823, firsts, 5, lambda gen: gen.permutation(9))
        singles = [permutation_draw(full_symmetric(9), SeedSpec(20260823, f + b)) for f in firsts for b in range(5)]
        assert np.array_equal(perms, np.stack(singles))

    def test_rejected_rows_are_redrawn(self, monkeypatch):
        # at m = 3 * 2**30 about a quarter of the words are rejected, so
        # nearly every row of 10 draws takes the scalar redraw
        m = 3 * 2**30
        real = resampling.generator
        for firsts in ([_TWO_WORD - 2], [_TWO_WORD - 2, 40, stream_for(9, 1)]):
            want = np.concatenate([self.scalar_rows(SeedSpec(20260823, f), 8, m, 10) for f in firsts])
            redrawn = []

            def counting(s):
                redrawn.append(s.stream_id)
                return real(s)

            monkeypatch.setattr(resampling, "generator", counting)
            assert np.array_equal(_bounded_rows(20260823, firsts, 8, m, 10), want)
            assert 0 < len(redrawn) <= 8 * len(firsts)
            assert all(any(f <= sid < f + 8 for f in firsts) for sid in redrawn)


    @pytest.mark.parametrize("n", [1, 11, 101])
    def test_odd_rows_with_rejections_match_scalar_integers(self, n):
        # the uint32 view reads n of the 2 * ceil(n/2) outputs; at
        # m = 3 * 2**30 a quarter of them are rejected
        m = 3 * 2**30
        firsts = [_TWO_WORD - 2, 40, stream_for(9, 1)]
        got = _bounded_rows(20260823, firsts, 8, m, n)
        want = np.concatenate([self.scalar_rows(SeedSpec(20260823, f), 8, m, n) for f in firsts])
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, want)
        sids = _stream_ids(firsts, 8)
        keys = _philox_keys(20260823, sids)
        halves = [_bounded_from(20260823, sids[s], keys[s], m, n) for s in (slice(0, 5), slice(5, 24))]
        assert np.array_equal(np.concatenate(halves), want)


class TestPermutationRows:
    """The in-place shuffle kernel against the per-stream permutation_draw."""

    GROUPS = [full_symmetric(m) for m in (1, 2, 9, 30, 400)] + [
        PermutationGroup(3, perms=((0, 1, 2), (2, 0, 1), (1, 2, 0), (0, 2, 1))),
        PermutationGroup(2, perms=((1, 0),)),
    ]

    @pytest.mark.parametrize("G", GROUPS, ids=["m1", "m2", "m9", "m30", "m400", "list4", "list1"])
    @pytest.mark.parametrize(
        "firsts,count",
        [
            ([stream_for(5, 1)], 7),
            ([stream_for(0, 1), stream_for(7, 1), _TWO_WORD - 2, 2**50 + 11], 5),
            ([_U64 - 3], 3),
        ],
        ids=["one", "several", "last"],
    )
    def test_rows_match_permutation_draw(self, G, firsts, count):
        got = _permutation_rows(20260823, firsts, count, G)
        want = np.stack([permutation_draw(G, SeedSpec(20260823, f + b)) for f in firsts for b in range(count)])
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    def test_reopen_clears_a_buffered_half_word(self):
        sids = [stream_for(2, 1), _TWO_WORD + 9]
        streams = _reopened(_philox_keys(4177, sids))
        local = next(streams)
        local.gen.integers(0, 2, size=1)
        assert local.bitgen.state["has_uint32"] == 1
        got = next(streams).bitgen.state
        want = generator(SeedSpec(4177, sids[1])).bit_generator.state
        assert got.keys() == want.keys() and got["state"].keys() == want["state"].keys()
        for field in ("counter", "key"):
            assert np.array_equal(got["state"][field], want["state"][field])
        assert np.array_equal(got["buffer"], want["buffer"])
        for field in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == want[field]


class TestSettingSamplers:
    def test_shapes_and_truths(self):
        s = SeedSpec(5, 0)
        assert setting_sampler(1, {"m": 50}, s).shape == (50,)
        assert setting_truth(1) == 0.2
        x2 = setting_sampler(2, {"m": 30, "d": 7}, s)
        assert x2.shape == (30, 7)
        assert np.array_equal(setting_truth(2, {"d": 7}), np.zeros(7))
        x3 = setting_sampler(3, {"m": 40}, s)
        assert x3.shape == (40,)
        assert 0.0 <= x3.min() and x3.max() <= 1.0
        assert setting_truth(3) == 1.0
        st4 = setting_sampler(4, {"n": 25}, s)
        assert len(st4) == 25
        x, y = st4[0]
        assert x.shape == (3,) and np.isscalar(y) or np.asarray(y).shape == ()
        assert np.allclose(setting_truth(4), [0.2, -0.2, 0.0])
        with pytest.raises(InvalidInput):
            setting_sampler(9, {"m": 5}, s)

    def test_marginals_match_inverse_transforms(self):
        # fixed-seed KS checks against the intended laws
        s = SeedSpec(20260823, 0)
        x1 = setting_sampler(1, {"m": 20000}, s)
        assert stats.kstest(x1, "expon", args=(0, 0.2)).pvalue > 1e-4
        x3 = setting_sampler(3, {"m": 20000}, s)
        assert stats.kstest(x3, "uniform").pvalue > 1e-4
        st4 = setting_sampler(4, {"n": 20000}, s)
        resid = np.array([y - x @ np.array([0.2, -0.2, 0.0]) for x, y in st4])
        assert stats.kstest(resid, "laplace").pvalue > 1e-4
        x2 = setting_sampler(2, {"m": 20000, "d": 2}, s)
        # row = T * (V_1, V_2): same heavy-tailed scale mixture in each column
        assert stats.ks_2samp(x2[:, 0], x2[:, 1]).pvalue > 1e-4

    def test_pair_stream(self):
        xs = np.arange(12.0).reshape(4, 3)
        ys = np.arange(4.0)
        ps = PairStream(xs, ys)
        assert len(ps) == 4
        x, y = ps[2]
        assert np.array_equal(x, xs[2]) and y == 2.0


def quad_grad(theta, point):
    return theta - point


def quad_grad_batch(thetas, point):
    return thetas - point


class TestSgd:
    def spec(self, **kw):
        base = dict(
            dim=3,
            gamma1=1.0,
            tau_exp=2 / 3,
            burn_in=20,
            n_total=200,
            gradient=quad_grad,
            weight_law="exponential",
        )
        base.update(kw)
        return SgdSpec(**base)

    def test_spec_validation(self):
        with pytest.raises(InvalidInput):
            self.spec(tau_exp=0.5)
        with pytest.raises(InvalidInput):
            self.spec(tau_exp=1.0)
        with pytest.raises(InvalidInput):
            self.spec(burn_in=200)
        with pytest.raises(InvalidInput):
            self.spec(weight_law="cauchy")
        with pytest.raises(InvalidInput):
            self.spec(gamma1=0.0)

    def test_degenerate_weights_match_unweighted(self):
        data = [np.full(3, 0.5)] * 200
        theta0 = np.zeros(3)
        none_law = sgd_path(self.spec(weight_law=None), data, theta0, seed=None)
        seeded = sgd_path(self.spec(weight_law=None), data, theta0, SeedSpec(3, 9))
        unseeded = sgd_path(self.spec(), data, theta0, seed=None)
        assert np.array_equal(none_law, seeded)
        assert np.array_equal(none_law, unseeded)

    def test_paths_columns_match_scalar_runs(self):
        data = [np.array([0.3, -0.2, 0.1]) * n for n in range(200)]
        theta0 = np.zeros(3)
        spec = self.spec()
        seeds = [None, SeedSpec(1, 11), SeedSpec(1, 12)]
        stack = sgd_paths(spec, data, theta0, seeds, gradient_batch=quad_grad_batch)
        assert stack.shape == (3, 3)
        for j, sd in enumerate(seeds):
            assert np.array_equal(stack[j], sgd_path(spec, data, theta0, seed=sd))
        # fallback without the batched gradient is identical
        loop = sgd_paths(spec, data, theta0, seeds)
        assert np.array_equal(loop, stack)

    def test_weighted_converges_to_mean(self):
        rng = np.random.default_rng(0)
        data = list(rng.normal(1.5, 1.0, size=(4000, 1)))
        spec = SgdSpec(
            dim=1, gamma1=1.0, tau_exp=2 / 3, burn_in=500, n_total=4000,
            gradient=quad_grad, weight_law="exponential",
        )
        out = sgd_path(spec, data, np.zeros(1), SeedSpec(2, 5))
        assert out[0] == pytest.approx(1.5, abs=0.15)

    def test_numerical_failure_carries_step(self):
        def bad(theta, point):
            return np.array([math.inf, 0.0, 0.0]) if point[0] > 100 else theta

        data = [np.full(3, float(n)) for n in range(200)]
        with pytest.raises(NumericalFailure) as ei:
            sgd_path(self.spec(gradient=bad), data, np.zeros(3), None)
        assert ei.value.step == 102

    @pytest.mark.parametrize("shape", [(1,), (), (3, 1)])
    def test_wrong_gradient_shape_is_rejected_by_the_scalar_path(self, shape):
        # each would broadcast against the dim-3 state
        with pytest.raises(InvalidInput, match=re.escape(f"spec.gradient gave shape {shape}, expected (3,)")):
            sgd_path(self.spec(gradient=lambda th, pt: np.ones(shape)), [np.zeros(3)] * 200, np.zeros(3), None)

    @pytest.mark.parametrize("shape", [(3,), (3, 1), (2, 3)])
    def test_wrong_gradient_batch_shape_is_rejected(self, shape):
        # (3,) and (3, 1) would broadcast against the (3 paths, dim 3) state
        data = [np.full(3, 0.5)] * 200
        with pytest.raises(InvalidInput, match="gradient_batch"):
            sgd_paths(self.spec(), data, np.zeros(3), [None] * 3, gradient_batch=lambda th, pt: np.ones(shape))

    def test_gradient_required(self):
        with pytest.raises(InvalidInput):
            sgd_path(self.spec(gradient=None), [np.zeros(3)] * 200, np.zeros(3), None)
