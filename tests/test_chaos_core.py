"""Basis ranking, coefficient estimation, and the variance diagnostic.

The oracles here are deliberately naive: the basis is enumerated index by
index with itertools and weighted by the factorial formula, and the
estimator builds each basis product from polynomial tables and averages.
The rank-aligned arrays must match the enumeration exactly, and the
estimator must agree with the naive one to near machine precision on every
code path (order 1, 2, and >= 3).
"""

import importlib.util
import itertools
import math
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from chaosbsde import (
    ChaosCoefficients,
    GridSpec,
    PathBatch,
    SizingError,
    charlier_batch,
    coefficients_from_entries,
    conditional_at,
    estimate,
    evaluate_grid,
    hermite_batch,
    sample_paths,
    variance_diagnostic,
)
from test_chaos_eval import BAD_THREADS, assert_rows_match, naive_grid


def oracle_indices(N, p):
    """Every index (nB, nP) with 1 <= |nB| + |nP| <= p over N slots, graded
    by total degree, then in descending lexicographic order of the
    concatenated degree vector (nB, nP)."""
    ranked = []
    for g in range(1, p + 1):
        grade = []
        for slots in itertools.combinations_with_replacement(range(2 * N), g):
            deg = [0] * (2 * N)
            for i in slots:
                deg[i] += 1
            grade.append(tuple(deg))
        ranked += sorted(grade, reverse=True)
    return [(d[:N], d[N:]) for d in ranked]


def oracle_weight(n, spec):
    """w(n) = E[Phi_n**2] = prod nP[i]! * (kappa h)**|nP| / prod nB[i]!."""
    nB, nP = n
    return (math.prod(map(math.factorial, nP)) * spec.jump_mean ** sum(nP)
            / math.prod(map(math.factorial, nB)))


def oracle_weights(spec, p):
    return np.array([oracle_weight(n, spec) for n in oracle_indices(spec.N, p)])


def basis_products(indices, paths):
    """Phi_n(path m) for every index (nB, nP): (J, M) matrix, naive impl."""
    spec = paths.spec
    kh = spec.jump_mean
    M, N = paths.G.shape
    p = max(sum(nB) + sum(nP) for nB, nP in indices)
    K = np.moveaxis(hermite_batch(p, paths.G), 0, -1)  # (M, N, p+1)
    C = np.moveaxis(charlier_batch(p, paths.Q, kh), 0, -1)
    out = np.empty((len(indices), M))
    for j, (nB, nP) in enumerate(indices):
        prod = np.ones(M)
        for i in range(N):
            if nB[i]:
                prod = prod * K[:, i, nB[i]]
            if nP[i]:
                prod = prod * C[:, i, nP[i]]
        out[j] = prod
    return out


def naive_estimate(F, paths, p):
    phi = basis_products(oracle_indices(paths.spec.N, p), paths)
    return F.mean(), (phi @ F) / len(F) / oracle_weights(paths.spec, p)


class TestPairKernel:
    """The closed-form p = 2 estimator against naive per-sample sums, and
    the prefix kernel on the same cases at p = 1, and variance_diagnostic at
    both.

    M = 2500 leaves a ragged last chunk (2500 = 2 * 1024 + 452). At odd N
    the 4-row blocks of the upper block triangle leave a 2-row block, and
    at N = 50 the sample blocks (655 samples in the first row block) do not
    divide a chunk. The functional loads every family: units, same-slot
    degree 2, same-slot mixed pairs and distinct-slot pairs in both slot
    orders.
    """

    @staticmethod
    def case(N):
        spec = GridSpec(T=2.0, N=N, kappa=3.0)
        paths = sample_paths(spec, 2500, seed=30 + N)
        rng = np.random.default_rng(N)
        F = (rng.standard_normal(paths.M) + np.exp(0.3 * paths.Q.sum(axis=1))
             + paths.G[:, 0] * paths.Q[:, -1] + paths.G[:, -1] ** 2)
        return paths, F

    @pytest.mark.parametrize("N", [1, 2, 7, 23, 50])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_naive_sums(self, N, p):
        paths, F = self.case(N)
        phi = basis_products(oracle_indices(N, p), paths)
        w = oracle_weights(paths.spec, p)
        coeffs = estimate(F, paths, p)
        assert coeffs.d0 == pytest.approx(F.mean(), rel=1e-13)
        want = (phi @ F) / paths.M / w
        np.testing.assert_allclose(coeffs.values, want, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(want)))
        V = F.var(ddof=1) + float((phi * F).var(axis=1, ddof=1) @ (1.0 / w))
        assert variance_diagnostic(F, paths, p) == pytest.approx(V, rel=1e-10)

    @pytest.mark.parametrize("p", [1, 2])
    def test_thread_count_is_invisible_at_n50(self, p):
        paths, F = self.case(50)
        a = estimate(F, paths, p, threads=1)
        b = estimate(F, paths, p, threads=3)
        assert a.d0 == b.d0
        assert np.array_equal(a.values, b.values)
        assert (variance_diagnostic(F, paths, p, threads=1)
                == variance_diagnostic(F, paths, p, threads=3))


class TestBlasSerialBlocks:
    """Every BLAS product of the kernels stays under OpenBLAS's threading
    cut-offs, for every N a p = 2, 3 or 4 basis can have and every chunk
    width, so BLAS never splits a product across threads. The products are
    (m, k) @ (k, n) matrices; numpy sends one with m = 1 or n = 1 to GEMV
    (or a dot product), and one with k = 1 to no BLAS routine at all."""

    GEMM_MACS = 1 << 18      # OpenBLAS: 65536 * GEMM_MULTITHREAD_THRESHOLD (4)
    GEMV_ENTRIES = 2304 * 4  # OpenBLAS: GEMV is threaded from m * n = 9216 up
    WIDTHS = (1, 2, 3, 5, 452, 1023, 1024)

    @staticmethod
    def lengths(Mc, width):
        """Lengths of the sample blocks of a chunk of Mc samples, in both
        kernel families: whole blocks of width, then the rest."""
        return [min(width, Mc - a) for a in range(0, Mc, width)]

    @classmethod
    def products(cls, N, p, Mc):
        """(m, k, n) of every product one chunk of Mc samples makes in the
        kernels of estimate and evaluate_grid: the sums kernel's, then the
        evaluation kernel's (two per stacked call of the pair kernel)."""
        from chaosbsde.chaos_core import _pair_blocks, _width

        if p == 2:
            rows, slots = _pair_blocks(N)
            sums = [(hi - lo, k, 2 * N - lo) for lo, hi in rows
                    for k in cls.lengths(Mc, _width(hi - lo, 2 * N - lo))]
            evals = [(s1 - s0, 2 * s1, n) for s0, s1 in slots
                     for n in cls.lengths(Mc, _width(s1 - s0, 2 * s1))
                     for _ in range(2)]
            return sums, evals
        return cls.prefix_products(N, p, Mc)

    @classmethod
    def prefix_products(cls, N, p, Mc):
        """(sums, evals) of the prefix kernels, which run at every p but the
        p = 2 estimate and evaluate_grid."""
        from chaosbsde.chaos_core import _prefix_tiles, _width

        # Prefix tiles: Phi_pre rows times factor rows for the sums, the
        # transposed coefficient block times Phi_pre rows for V. Both take
        # the sample blocks of the tile's rows x columns.
        tiles, _ = _prefix_tiles(N, p)
        widths = [_width(t.hi - t.lo, t.c1 - t.c0) for t in tiles]
        sums = [(t.hi - t.lo, k, t.c1 - t.c0) for t, width in zip(tiles, widths)
                for k in cls.lengths(Mc, width)]
        evals = [(t.c1 - t.c0, t.hi - t.lo, n) for t, width in zip(tiles, widths)
                 for n in cls.lengths(Mc, width)]
        return sums, evals

    def serial(self, m, k, n):
        if m == 1 or n == 1:
            return (k * n if m == 1 else m * k) < self.GEMV_ENTRIES
        return m * n * k <= self.GEMM_MACS

    def test_every_product_is_blas_serial_at_every_admitted_n(self):
        from chaosbsde.chaos_core import _check_bytes, _pair_blocks

        N = 1
        while True:
            try:
                _check_bytes(N, 2, 1)
            except SizingError:
                break
            rows, slots = _pair_blocks(N)
            # The row blocks tile the rows of the upper block triangle, and
            # the slot blocks the slots.
            for tiles, n in ((rows, 2 * N), (slots, N)):
                edges = [lo for lo, _ in tiles] + [n]
                assert [hi for _, hi in tiles] == edges[1:] and edges[0] == 0
            for Mc in self.WIDTHS:
                sums, evals = self.products(N, 2, Mc)
                shapes = set(sums) | set(evals)
                bad = [s for s in shapes if not self.serial(*s)]
                assert not bad, (N, Mc, bad)
            N += 1
        assert N > 300

    @pytest.mark.parametrize("p, n_max", [(2, 484), (3, 106), (4, 38)])
    def test_prefix_products_are_blas_serial_at_every_admitted_n(self, p, n_max):
        # conditional_at runs the prefix evaluation kernel at p = 2.
        from chaosbsde.chaos_core import _check_bytes

        N = 1
        while True:
            try:
                _check_bytes(N, p, 1)
            except SizingError:
                break
            for Mc in self.WIDTHS:
                sums, evals = self.prefix_products(N, p, Mc)
                shapes = set(sums) | set(evals)
                bad = [s for s in shapes if not self.serial(*s)]
                assert not bad, (N, Mc, bad)
            N += 1
        assert N - 1 == n_max

    @staticmethod
    def spy(monkeypatch):
        """List that collects (m, k, n) of every np.matmul product made, one
        entry per matrix of a stacked operand."""
        matmul = np.matmul
        made = []

        def spy(a, b, **kwargs):
            batch = a.shape[0] if a.ndim == 3 else b.shape[0] if b.ndim == 3 else 1
            made.extend([(a.shape[-2], a.shape[-1], b.shape[-1])] * batch)
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return made

    @pytest.mark.parametrize("N, p", [(1, 1), (7, 1), (1, 2), (7, 2), (9, 2),
                                      (50, 2), (1, 3), (7, 3), (1, 4), (7, 4)])
    def test_kernels_make_exactly_these_products(self, monkeypatch, N, p):
        # 2049 samples: the last chunk has one sample, so each kernel's last
        # sample block is a one-sample tail. variance_diagnostic makes the
        # products of estimate and no other; at p = 1 no kernel makes one.
        spec = GridSpec(T=2.0, N=N, kappa=3.0)
        paths = sample_paths(spec, 2049, seed=80 + N)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        coeffs = estimate(F, paths, p)
        made = self.spy(monkeypatch)
        chunks = (1024, 1024, 1)
        sums, evals = zip(*(self.products(N, p, Mc) for Mc in chunks))
        sums, evals = sum(sums, []), sum(evals, [])
        if p == 1:
            assert not (sums or evals)
        estimate(F, paths, p)
        assert sorted(made) == sorted(sums)
        made.clear()
        variance_diagnostic(F, paths, p)
        assert sorted(made) == sorted(sums)
        made.clear()
        Y, Z, U = evaluate_grid(coeffs, paths)
        assert sorted(made) == sorted(evals)
        for r in range(N + 1):
            assert_rows_match((Y[r, -1], Z[r, -1], U[r, -1]),
                              naive_grid(coeffs, paths.G[-1], paths.Q[-1], r))


class TestPrefixKernel:
    """The prefix-recursion estimator, which runs at every p but 2, and
    variance_diagnostic, against naive sums (p = 1 and 2 are covered by
    TestPairKernel's cases).

    M = 2500 leaves a ragged last chunk. At N = 7, p = 4 (J = 3059) every
    (support, a, b) segment draws on parents of up to four orders, so its
    sum runs over several tiles.
    """

    @staticmethod
    def case(N):
        spec = GridSpec(T=2.0, N=N, kappa=3.0)
        paths = sample_paths(spec, 2500, seed=60 + N)
        rng = np.random.default_rng(N)
        F = (rng.standard_normal(paths.M) + np.exp(0.3 * paths.Q.sum(axis=1))
             + paths.G[:, 0] ** 3 * paths.Q[:, -1] + paths.G[:, -1] ** 2)
        return paths, F

    @pytest.mark.parametrize("N", [1, 2, 7])
    @pytest.mark.parametrize("p", [3, 4])
    def test_matches_naive_sums(self, N, p):
        paths, F = self.case(N)
        phi = basis_products(oracle_indices(N, p), paths)
        w = oracle_weights(paths.spec, p)
        coeffs = estimate(F, paths, p)
        assert coeffs.d0 == pytest.approx(F.mean(), rel=1e-13)
        want = (phi @ F) / paths.M / w
        np.testing.assert_allclose(coeffs.values, want, rtol=1e-10,
                                   atol=1e-12 * np.max(np.abs(want)))
        V = F.var(ddof=1) + float((phi * F).var(axis=1, ddof=1) @ (1.0 / w))
        assert variance_diagnostic(F, paths, p) == pytest.approx(V, rel=1e-10)

    def test_order_zero(self):
        paths, F = self.case(2)
        assert estimate(F, paths, 0).d0 == pytest.approx(F.mean(), rel=1e-13)
        assert variance_diagnostic(F, paths, 0) == pytest.approx(F.var(ddof=1),
                                                                 rel=1e-10)

    @pytest.mark.parametrize("p", [3, 4])
    def test_thread_count_is_invisible(self, p):
        paths, F = self.case(7)
        a = estimate(F, paths, p, threads=1)
        b = estimate(F, paths, p, threads=3)
        assert a.d0 == b.d0
        assert np.array_equal(a.values, b.values)
        assert (variance_diagnostic(F, paths, p, threads=1)
                == variance_diagnostic(F, paths, p, threads=3))


class TestChunkBuffers:
    """All four kernel entry points, through both kernel families, give
    each worker one set of chunk buffers per call, which it reuses for
    every chunk it runs."""

    @staticmethod
    def case():
        spec = GridSpec(T=1.0, N=6, kappa=2.0)
        paths = sample_paths(spec, 8 * 1024 + 300, seed=66)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1] ** 2
        return paths, F

    def test_one_buffer_set_per_call_and_worker(self, monkeypatch):
        from chaosbsde import chaos_core, chaos_eval, conditional_at

        built = []

        class Counted(chaos_core._ChunkBuffers):
            def __init__(self, iset, width):
                built.append(width)
                super().__init__(iset, width)

        monkeypatch.setattr(chaos_core, "_ChunkBuffers", Counted)
        monkeypatch.setattr(chaos_eval, "_ChunkBuffers", Counted)
        paths, F = self.case()
        for p in (2, 3):
            built.clear()
            coeffs = estimate(F, paths, p)
            evaluate_grid(coeffs, paths)
            assert built == [1024, 1024]
            built.clear()
            evaluate_grid(coeffs, paths, threads=2)
            assert 1 <= len(built) <= 2
            built.clear()
            variance_diagnostic(F, paths, p)
            assert built == [1024, 1024]  # estimate's sums, then the diagonal
            built.clear()
            r = coeffs.spec.N // 2
            conditional_at(coeffs, paths, r, coeffs.spec.times()[r],
                           paths.G[:, r - 1] * np.sqrt(coeffs.spec.h), paths.Q[:, r - 1])
            assert built == [1024]

    def test_workers_never_share_buffers(self):
        # More workers than cores, switching threads as often as possible:
        # two workers writing one buffer would corrupt the sums or the rows.
        paths, F = self.case()
        for p in (2, 3):
            want = estimate(F, paths, p, threads=1)
            want_rows = evaluate_grid(want, paths, threads=1)
            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = estimate(F, paths, p, threads=6)
                got_rows = evaluate_grid(want, paths, threads=6)
            finally:
                sys.setswitchinterval(old)
            assert got.d0 == want.d0 and np.array_equal(got.values, want.values)
            for a, b in zip(got_rows, want_rows):
                assert np.array_equal(a, b)


class TestKernelChoice:
    """Each call runs the chunk kernel chaos_core._kernel names for it at
    its p, and every stripe's buffers hold that kernel's family only.
    variance_diagnostic's sums run estimate's kernel, and its diagonal pass
    one stripe of the prefix family."""

    # The chunk function of each kernel, by kind of call.
    SUMS = {"pair_sums": "_fast_sums_chunk", "prefix": "_prefix_sums_chunk"}
    EVALUATION = {"pair_eval": "_pair_slot_sums", "prefix": "_prefix_slot_sums"}
    FAMILY = {"pair_sums": {"X", "XS", "T"}, "pair_eval": {"X", "XS", "T"},
              "prefix": {"K", "C", "KC", "W", "phi", "S"}}

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_each_call_runs_its_named_kernel(self, monkeypatch, p):
        from chaosbsde import chaos_core, chaos_eval

        ran, families = [], []
        for module, names in ((chaos_core, self.SUMS), (chaos_eval, self.EVALUATION)):
            for name in names.values():
                def counted(*args, _fn=getattr(module, name), _name=name):
                    ran.append(_name)
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)

        class Recorded(chaos_core._ChunkBuffers):
            def __init__(self, rows, width):
                families.append(set(rows))
                super().__init__(rows, width)

        monkeypatch.setattr(chaos_core, "_ChunkBuffers", Recorded)
        spec = GridSpec(T=1.0, N=4, kappa=2.0)
        paths = sample_paths(spec, 3 * 1024 + 5, seed=67)  # four chunks
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        coeffs = estimate(F, paths, p)
        r = 2
        calls = {
            "estimate": lambda: estimate(F, paths, p, threads=2),
            "variance_diagnostic": lambda: variance_diagnostic(F, paths, p, threads=2),
            "evaluate_grid": lambda: evaluate_grid(coeffs, paths, threads=2),
            "conditional_at": lambda: conditional_at(
                coeffs, paths, r, spec.times()[r], paths.G[:, r - 1] * np.sqrt(spec.h),
                paths.Q[:, r - 1]),
        }
        for call, run in calls.items():
            ran.clear()
            families.clear()
            run()
            sums = call in ("estimate", "variance_diagnostic")
            kernel = chaos_core._kernel("estimate" if sums else call, p)
            kinds = self.SUMS if sums else self.EVALUATION
            assert ran == [kinds[kernel]] * 4, call
            stripes = 1 if call == "conditional_at" else 2
            diagonal = [self.FAMILY["prefix"]] if call == "variance_diagnostic" else []
            assert families == [self.FAMILY[kernel]] * stripes + diagonal, call
        assert chaos_core._kernel("estimate", p) == ("pair_sums" if p == 2 else "prefix")
        assert chaos_core._kernel("evaluate_grid", p) == ("pair_eval" if p == 2 else "prefix")


class TestChunkStripes:
    """At threads >= 2 the chunk driver gives each thread one contiguous
    stripe of chunks and yields the results in chunk order, so every
    reduction adds the chunks in the order one thread does."""

    M = 6 * 1024 + 77  # seven chunks, the last one ragged

    @pytest.mark.parametrize("threads", [1, 2, 3, 7, 12])
    def test_each_thread_runs_one_contiguous_stripe(self, threads):
        import threading

        from chaosbsde.chaos_core import _CHUNK, _build_index_set, _run_chunks

        ran = []

        def chunk(sl, buf):
            # The objects themselves: an ident or id can be reused once its
            # thread or buffer is gone.
            ran.append((threading.current_thread(), buf, sl.start // _CHUNK))
            return sl

        got = list(_run_chunks(chunk, _build_index_set(3, 2), self.M, threads,
                               "estimate"))
        chunks = -(-self.M // _CHUNK)
        assert [(sl.start, sl.stop) for sl in got] == [
            (a, min(a + _CHUNK, self.M)) for a in range(0, self.M, _CHUNK)]
        stripes = {}
        for thread, buf, i in sorted(ran, key=lambda r: r[2]):
            stripes.setdefault(thread, []).append((buf, i))
        assert len(stripes) == min(threads, chunks)
        for run in stripes.values():
            assert all(buf is run[0][0] for buf, _ in run)
            index = [i for _, i in run]
            assert index == list(range(index[0], index[0] + len(index)))
        sizes = sorted(len(run) for run in stripes.values())
        assert sizes[-1] - sizes[0] <= 1
        # The calling thread runs the first stripe.
        assert stripes[threading.current_thread()][0][1] == 0

    # Stripes of the seven chunks: [0-2], [3-6] at threads 2 and [0, 1],
    # [2, 3], [4-6] at threads 3.
    @pytest.mark.parametrize("threads, bad, want", [
        (2, 5, [0, 1, 2]), (3, 3, [0, 1]), (3, 6, [0, 1, 2, 3])])
    def test_worker_stripe_error_follows_the_earlier_stripes(self, threads, bad,
                                                             want):
        import threading

        from chaosbsde.chaos_core import _CHUNK, _build_index_set, _run_chunks

        def chunk(sl, buf):
            if sl.start // _CHUNK == bad:
                raise ArithmeticError(f"chunk {bad}")
            return sl.start // _CHUNK

        before = threading.active_count()
        got = []
        with pytest.raises(ArithmeticError, match=f"chunk {bad}$"):
            for i in _run_chunks(chunk, _build_index_set(3, 2), self.M, threads,
                                 "estimate"):
                got.append(i)
        assert got == want
        assert threading.active_count() == before

    @pytest.mark.parametrize("p", [2, 3])
    def test_results_identical_at_every_thread_count(self, p):
        spec = GridSpec(T=1.0, N=5, kappa=2.0)
        paths = sample_paths(spec, self.M, seed=70)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        want = estimate(F, paths, p)
        want_v = variance_diagnostic(F, paths, p)
        want_rows = evaluate_grid(want, paths)
        for threads in (2, 3, 12):
            got = estimate(F, paths, p, threads=threads)
            assert got.d0 == want.d0 and np.array_equal(got.values, want.values)
            assert variance_diagnostic(F, paths, p, threads=threads) == want_v
            for a, b in zip(evaluate_grid(want, paths, threads=threads), want_rows):
                assert np.array_equal(a, b)


def _thread_table():
    """tools/thread_table.py, which holds the measured points of the rule."""
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "thread_table.py"
    spec = importlib.util.spec_from_file_location("thread_table", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


MEASURED = _thread_table().MEASURED


@pytest.mark.worker_rule
class TestWorkerRule:
    """The shipped worker rule: a kernel call runs one worker where a second
    cannot overlap it, and min(threads, chunks) elsewhere, so ``threads`` is
    a cap. It is checked against every measured point of
    tools/thread_table.py: a second worker is granted where the point's
    median t1/t2 is 1.10 or more, except at the points listed here, all
    within [0.90, 1.15] of break-even."""

    M = 100_000

    DISAGREEMENTS = {
        ("estimate", 100, 0), ("estimate", 400, 0), ("estimate", 30, 1),
        ("estimate", 15, 3), ("evaluate_grid", 15, 3), ("estimate", 5, 5),
        ("estimate", 3, 9), ("evaluate_grid", 3, 9), ("evaluate_grid", 3, 10),
    }

    @staticmethod
    def grant(threads, M, N, p, call):
        from chaosbsde.chaos_core import _build_index_set, _workers

        return _workers(threads, M, _build_index_set(N, p), call)

    @pytest.mark.parametrize("call, N, p, ratio", MEASURED,
                             ids=[f"{c}-N{N}-p{p}" for c, N, p, _ in MEASURED])
    def test_measured_points(self, call, N, p, ratio):
        pays = ratio >= 1.10
        workers = 2 if pays != ((call, N, p) in self.DISAGREEMENTS) else 1
        assert self.grant(2, self.M, N, p, call) == workers
        # threads and the chunk count cap the rule's grant.
        assert self.grant(1, self.M, N, p, call) == 1
        assert self.grant(8, 2 * 1024, N, p, call) == min(workers, 2)
        assert self.grant(8, self.M, N, p, call) == (8 if workers > 1 else 1)

    def test_disagreements_are_measured_close_calls(self):
        ratios = {(c, N, p): r for c, N, p, r in MEASURED}
        assert self.DISAGREEMENTS <= set(ratios)
        assert all(0.90 <= ratios[point] <= 1.15 for point in self.DISAGREEMENTS)

    @pytest.mark.parametrize("call", ["estimate", "evaluate_grid"])
    def test_small_n_above_p7_runs_one_worker(self, call):
        # Any p >= 8 once kept min(threads, chunks), which at N <= 3 ran up to
        # twice as slow as one worker; N = 3 at p = 9 and 10 are measured points.
        for N, p in itertools.product((1, 2, 3), (8, 9, 10)):
            if (N, p) not in ((3, 9), (3, 10)):
                assert self.grant(2, self.M, N, p, call) == 1, (N, p)

    @pytest.mark.parametrize("call, N, p, threads, workers", [
        ("estimate", 50, 2, 2, 1), ("evaluate_grid", 50, 2, 2, 2),  # ex2_n50_p2
        ("estimate", 20, 2, 2, 1), ("evaluate_grid", 20, 2, 2, 1),  # ex1_n20_indep
        ("estimate", 10, 3, 1, 1), ("evaluate_grid", 10, 3, 1, 1),  # ex1_n10_p3
    ])
    def test_benchmark_workloads_keep_their_grants(self, call, N, p, threads, workers):
        assert self.grant(threads, self.M, N, p, call) == workers

    def test_pair_sums_products_keep_the_gil_to_n62(self):
        # np.matmul holds the GIL through a product of at most ~500 output
        # entries; the widest pair sums product is 4 x 2N.
        from chaosbsde.chaos_core import _pair_blocks

        def widest(N):
            return max((hi - lo) * (2 * N - lo) for lo, hi in _pair_blocks(N)[0])

        assert widest(62) == 4 * 2 * 62 <= 500 < widest(63)

    @staticmethod
    def case(N, M=8 * 1024):
        spec = GridSpec(T=1.0, N=N, kappa=2.0)
        paths = sample_paths(spec, M, seed=90 + N)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        return paths, F

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_one_worker_call_starts_no_thread(self, monkeypatch, share_everywhere, p):
        from chaosbsde import chaos_core

        paths, F = self.case(5)
        want = estimate(F, paths, p)
        want_v = variance_diagnostic(F, paths, p)
        want_rows = evaluate_grid(want, paths)

        def no_thread(*args, **kwargs):
            raise AssertionError("a one-worker call started a thread")

        monkeypatch.setattr(chaos_core.threading, "Thread", no_thread)
        got = estimate(F, paths, p, threads=4)
        assert np.array_equal(got.values, want.values)
        assert variance_diagnostic(F, paths, p, threads=4) == want_v
        for a, b in zip(evaluate_grid(want, paths, threads=4), want_rows):
            assert np.array_equal(a, b)
        # With every call sharing, the same call does start threads.
        share_everywhere()
        with pytest.raises(AssertionError, match="started a thread"):
            estimate(F, paths, p, threads=4)

    def test_budget_charges_the_granted_workers(self, monkeypatch, share_everywhere):
        # Room for one working set: threads=8 runs one worker at N = 5, so
        # it is admitted; with every call sharing it runs eight, refused.
        from chaosbsde import chaos_core
        from chaosbsde.chaos_core import _basis_count, _worker_bytes

        N, p = 5, 2
        paths, F = self.case(N)
        coeffs = estimate(F, paths, p)
        one = _basis_count(N, p) * (4 * N + 64) + _worker_bytes(N, p)
        monkeypatch.setattr(chaos_core, "_BYTE_BUDGET", one)
        for threads in (1, 8):
            assert np.array_equal(estimate(F, paths, p, threads=threads).values,
                                  coeffs.values)
            variance_diagnostic(F, paths, p, threads=threads)
            evaluate_grid(coeffs, paths, threads=threads)
        share_everywhere()
        for call in (lambda: estimate(F, paths, p, threads=8),
                     lambda: variance_diagnostic(F, paths, p, threads=8),
                     lambda: evaluate_grid(coeffs, paths, threads=8)):
            with pytest.raises(SizingError, match=r"with 8 worker\(s\)"):
                call()


class TestHeldSums:
    """At k >= 2 workers the chunk driver holds the sum vectors of the
    chunks outside the calling thread's stripe until every stripe is done;
    the budget charges them: 8 * (J + 1) bytes per held chunk in estimate,
    and in variance_diagnostic, whose sums are estimate's."""

    N, p = 3, 3
    M = 8 * 1024  # eight chunks

    @pytest.fixture
    def case(self):
        spec = GridSpec(T=1.0, N=self.N, kappa=2.0)
        paths = sample_paths(spec, self.M, seed=95)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        return paths, F

    def need(self, workers):
        from chaosbsde.chaos_core import _basis_count, _worker_bytes

        return (_basis_count(self.N, self.p) * (4 * self.N + 64)
                + workers * _worker_bytes(self.N, self.p))

    # The driver's stripes of the eight chunks: 4, 4 at threads 2, so the
    # second stripe holds four results; 2, 3, 3 at threads 3, so six.
    @pytest.mark.parametrize("threads, held", [(2, 4), (3, 6)])
    def test_held_sums_are_charged(self, case, monkeypatch, threads, held):
        from chaosbsde import chaos_core
        from chaosbsde.chaos_core import _basis_count

        paths, F = case
        vector = 8 * (_basis_count(self.N, self.p) + 1)
        want = estimate(F, paths, self.p)
        want_v = variance_diagnostic(F, paths, self.p)
        for call, got in (
                (lambda: estimate(F, paths, self.p, threads=threads).values,
                 want.values),
                (lambda: variance_diagnostic(F, paths, self.p, threads=threads),
                 want_v)):
            exact = self.need(threads) + held * vector
            monkeypatch.setattr(chaos_core, "_BYTE_BUDGET", exact)
            assert np.array_equal(call(), got)
            monkeypatch.setattr(chaos_core, "_BYTE_BUDGET", exact - 1)
            with pytest.raises(SizingError, match=rf"with {threads} worker\(s\)"):
                call()
            # One worker holds nothing: threads 1 is admitted on less.
            monkeypatch.setattr(chaos_core, "_BYTE_BUDGET", self.need(1))
            estimate(F, paths, self.p, threads=1)
            variance_diagnostic(F, paths, self.p, threads=1)


class TestOneSizingCheck:
    """Every kernel call is sized once, by the chunk driver, for the workers
    the rule grants it, before it starts a thread or allocates a chunk
    buffer; variance_diagnostic's two passes, its sums at estimate's grant
    and its diagonal on one worker, once each. The only other check is the
    basis admission's, for one worker."""

    M = 3 * 1024 + 5  # four chunks

    @staticmethod
    def calls(paths, F, coeffs, threads):
        """(call name the rule sees, threads it is asked for, call) of each
        kernel call; conditional_at runs at threads 1, and variance_diagnostic
        first runs estimate's sums."""
        r = paths.spec.N // 2
        return [
            ("estimate", threads, lambda: estimate(F, paths, coeffs.p, threads=threads)),
            ("estimate", threads,
             lambda: variance_diagnostic(F, paths, coeffs.p, threads=threads)),
            ("evaluate_grid", threads, lambda: evaluate_grid(coeffs, paths, threads=threads)),
            ("conditional_at", 1,
             lambda: conditional_at(coeffs, paths, r, paths.spec.times()[r],
                                    paths.G[:, r - 1] * math.sqrt(paths.spec.h),
                                    paths.Q[:, r - 1])),
        ]

    @staticmethod
    def case(p):
        spec = GridSpec(T=1.0, N=6, kappa=2.0)
        paths = sample_paths(spec, TestOneSizingCheck.M, seed=97)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        return paths, F, estimate(F, paths, p)

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("p", [2, 3])
    def test_each_call_is_checked_once_by_the_driver(self, monkeypatch, p, threads):
        from chaosbsde import chaos_core

        paths, F, coeffs = self.case(p)
        check, admit = chaos_core._check_bytes, chaos_core._admit_basis
        checked, admitting = [], []

        def spy(N, p, workers, held=0):
            caller = sys._getframe(1).f_code.co_name
            checked.append(("admission" if admitting else caller, workers))
            check(N, p, workers, held)

        def spy_admit(N, p):
            admitting.append(True)
            try:
                return admit(N, p)
            finally:
                admitting.pop()

        monkeypatch.setattr(chaos_core, "_check_bytes", spy)
        monkeypatch.setattr(chaos_core, "_admit_basis", spy_admit)
        grants = []
        for i, (entry, asked, call) in enumerate(self.calls(paths, F, coeffs, threads)):
            checked.clear()
            call()
            grants.append(chaos_core._workers(asked, self.M, coeffs.iset, entry))
            diagonal = [1] if i == 1 else []  # variance_diagnostic's own pass
            assert [w for fn, w in checked if fn == "_run_chunks"] == grants[-1:] + diagonal
            assert all(fn == "admission" and w == 1
                       for fn, w in checked if fn != "_run_chunks")
        # Under the lowered rule every call shares but conditional_at.
        assert grants == [threads] * 3 + [1]

    def test_a_refused_call_starts_nothing(self, monkeypatch):
        from chaosbsde import chaos_core

        paths, F, coeffs = self.case(3)
        check = chaos_core._check_bytes

        def refuse_in_driver(N, p, workers, held=0):
            if sys._getframe(1).f_code.co_name == "_run_chunks":
                raise SizingError("refused")
            check(N, p, workers, held)

        def started(*args, **kwargs):
            raise AssertionError("started before the check")

        monkeypatch.setattr(chaos_core, "_check_bytes", refuse_in_driver)
        monkeypatch.setattr(chaos_core.threading, "Thread", started)
        monkeypatch.setattr(chaos_core, "_ChunkBuffers", started)
        for _, _, call in self.calls(paths, F, coeffs, 3):
            with pytest.raises(SizingError, match="refused"):
                call()


class TestByteBudget:
    @pytest.fixture(scope="class")
    def n50_p3(self):
        spec = GridSpec(T=2.0, N=50, kappa=3.0)
        paths = sample_paths(spec, 300, seed=70)
        F = np.exp(0.1 * paths.G[:, :3].sum(axis=1)) * (1.0 + paths.Q[:, -1])
        coeffs = estimate(F, paths, 3)
        return paths, F, coeffs, evaluate_grid(coeffs, paths)

    def test_n50_p3_runs_and_matches_per_path_evaluators(self, n50_p3):
        paths, _, coeffs, (Y, Z, U) = n50_p3
        assert coeffs.values.shape == (176_850,)
        for m in (0, 299):
            for r in (1, 50):
                assert_rows_match((Y[r, m], Z[r, m], U[r, m]),
                                  naive_grid(coeffs, paths.G[m], paths.Q[m], r))
        # conditional_at at t_r with the full increments is row r
        times = paths.spec.times()
        for r in (1, 25, 50):
            got = conditional_at(coeffs, paths, r, times[r],
                                 dB=math.sqrt(paths.spec.h) * paths.G[:, r - 1],
                                 dN=paths.Q[:, r - 1])
            for m in (0, 299):
                assert_rows_match([g[m] for g in got], (Y[r, m], Z[r, m], U[r, m]))

    def test_n50_p3_budget_counts_only_workers_that_run(self, n50_p3):
        # 300 samples are one chunk, so threads=64 still runs one worker;
        # charging 64 working sets would refuse this problem.
        paths, F, coeffs, grid = n50_p3
        wide = estimate(F, paths, 3, threads=64)
        assert wide.d0 == coeffs.d0
        assert np.array_equal(wide.values, coeffs.values)
        for a, b in zip(evaluate_grid(coeffs, paths, threads=64), grid):
            assert np.array_equal(a, b)

    def test_n50_p4_refused_before_allocating(self):
        # J = C(104, 4) - 1 = 4,598,125 indices: the bytes refuse it.
        assert math.comb(104, 4) - 1 == 4_598_125
        paths = sample_paths(GridSpec(T=2.0, N=50, kappa=3.0), 10, seed=71)
        F = np.ones(paths.M)
        tracemalloc.start()
        try:
            with pytest.raises(SizingError, match="MiB"):
                estimate(F, paths, 4)
            with pytest.raises(SizingError, match="MiB"):
                coefficients_from_entries(paths.spec, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBufferLayout:
    """The byte budget and the chunk buffers read one row table."""

    @staticmethod
    def written_out_need(N, p, workers):
        """The budget's bytes as written out before the row table existed."""
        J = math.comb(2 * N + p, p) - 1
        n_pre = math.comb(2 * N + p - 1, p - 1)
        n_kc = (p + 1) * (p + 2) // 2 * N
        index_bytes = J * (4 * N + 64)
        worker_bytes = 8 * (1024 * (n_pre + 2 * n_kc + (2 * p + 5) * N) + 4 * (J + 1))
        return index_bytes + workers * worker_bytes

    def test_order_three_and_up_charge_unchanged(self):
        from chaosbsde.chaos_core import _check_bytes

        refused = 0
        for N in range(1, 61):
            for p in range(3, 7):
                for workers in (1, 2, 8):
                    need = self.written_out_need(N, p, workers)
                    if need <= 1 << 30:
                        _check_bytes(N, p, workers)
                        continue
                    refused += 1
                    with pytest.raises(SizingError) as err:
                        _check_bytes(N, p, workers)
                    assert f"about {need >> 20} MiB" in str(err.value)
        assert 0 < refused < 60 * 4 * 3

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4])
    def test_buffers_fit_the_worker_charge(self, p):
        from chaosbsde.chaos_core import _buffer_rows, _ChunkBuffers, _worker_bytes

        N = 6
        rows = _buffer_rows(N, p)
        held = 0
        for family in rows.values():
            buf = _ChunkBuffers(family, 1024)
            for name, n in family.items():
                buf.get(name, (n, 1024))
            block = sum(a.nbytes for a in buf._flat.values())
            assert block == 8 * 1024 * sum(family.values())
            held += block
        assert 0 < held <= _worker_bytes(N, p)
        assert ("pair" in rows) == (p == 2)


def arrays(N, p):
    """The (nB, nP) pairs of an order-p basis, in rank order, from its
    degree arrays."""
    coeffs = coefficients_from_entries(GridSpec(T=1.0, N=N, kappa=1.0), p)
    return [(tuple(b), tuple(q)) for b, q in zip(coeffs.degB.tolist(),
                                                  coeffs.degP.tolist())]


class TestEnumeration:
    def test_unit_vectors_first(self):
        assert arrays(2, 1) == [
            ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (0, 1))]

    def test_order_two_single_interval(self):
        assert arrays(1, 2) == [
            ((1,), (0,)), ((0,), (1,)),
            ((2,), (0,)), ((1,), (1,)), ((0,), (2,))]

    @pytest.mark.parametrize("N,p,count", [
        (20, 2, 860), (50, 2, 5150), (1, 2, 5), (2, 1, 4), (3, 3, 83)])
    def test_counts_stars_and_bars(self, N, p, count):
        assert math.comb(2 * N + p, p) - 1 == count
        assert len(oracle_indices(N, p)) == count
        spec = GridSpec(T=1.0, N=N, kappa=1.0)
        coeffs = coefficients_from_entries(spec, p)
        assert coeffs.values.size == count
        assert coeffs.degB.shape == coeffs.degP.shape == (count, N)

    @pytest.mark.parametrize("N,p", [(1, 4), (2, 3), (7, 2), (4, 4)])
    def test_arrays_match_oracle_enumeration(self, N, p):
        assert arrays(N, p) == oracle_indices(N, p)

    def test_p_zero_is_empty(self):
        coeffs = coefficients_from_entries(GridSpec(T=1.0, N=3, kappa=1.0), 0)
        assert coeffs.values.shape == (0,)
        assert coeffs.degB.shape == coeffs.degP.shape == (0, 3)

    def test_graded_then_support_ordered(self):
        indices = arrays(3, 3)
        orders = [sum(nB) + sum(nP) for nB, nP in indices]
        assert orders == sorted(orders)
        assert all(1 <= g <= 3 for g in orders)
        assert indices == oracle_indices(3, 3)

    def test_sizing_cap(self):
        spec = GridSpec(T=1.0, N=50, kappa=1.0)
        with pytest.raises(SizingError):
            ChaosCoefficients(d0=0.0, values=np.zeros(0), p=5, spec=spec)
        with pytest.raises(SizingError):
            coefficients_from_entries(spec, 5)

    def test_huge_basis_refused_without_overflow(self):
        # need is far beyond float range; the message must still format
        with pytest.raises(SizingError, match="MiB"):
            ChaosCoefficients(d0=0.0, values=np.zeros(0), p=60,
                              spec=GridSpec(T=1.0, N=10**7, kappa=1.0))

    def test_rejects_bad_arguments(self):
        spec = GridSpec(T=1.0, N=3, kappa=1.0)
        for p, error in ((-1, ValueError), (2.0, TypeError), (True, TypeError),
                         (61, ValueError)):
            with pytest.raises(error):
                coefficients_from_entries(spec, p)
            with pytest.raises(error):
                ChaosCoefficients(d0=0.0, values=np.zeros(0), p=p, spec=spec)


class TestWeight:
    """``weights()`` against the factorial formula, index by index."""

    @staticmethod
    def weight_of(n, spec, p=2):
        coeffs = coefficients_from_entries(spec, p)
        return coeffs.weights()[oracle_indices(spec.N, p).index(n)]

    def test_brownian_unit(self):
        spec = GridSpec(T=1.0, N=3, kappa=1.0)
        assert self.weight_of(((1, 0, 0), (0, 0, 0)), spec) == 1.0

    def test_poisson_unit_is_jump_mean(self):
        spec = GridSpec(T=0.15, N=3, kappa=1.0)  # kappa h = 0.05
        assert self.weight_of(((0, 0, 0), (1, 0, 0)), spec) == pytest.approx(0.05)

    def test_mixed_formula(self):
        # nB = (2,0,0), nP = (0,1,0): 1! * 0.05 / 2! = 0.025
        spec = GridSpec(T=0.15, N=3, kappa=1.0)
        idx = ((2, 0, 0), (0, 1, 0))
        assert self.weight_of(idx, spec, p=3) == pytest.approx(0.025)
        assert oracle_weight(idx, spec) == pytest.approx(0.025)

    def test_matches_empirical_second_moment(self):
        # w(n) = E Phi_n^2; check on a large batch for a few indices
        spec = GridSpec(T=1.0, N=2, kappa=1.0)
        paths = sample_paths(spec, 200_000, seed=8)
        phi = basis_products(oracle_indices(2, 2), paths)
        w = coefficients_from_entries(spec, 2).weights()
        for j in range(len(w)):
            emp = float((phi[j] ** 2).mean())
            assert emp == pytest.approx(w[j], rel=0.1)


class TestEstimate:
    @pytest.mark.parametrize("threads, error", BAD_THREADS)
    def test_threads_validated(self, small_paths, threads, error):
        F = small_paths.G[:, 0].copy()
        with pytest.raises(error, match="threads"):
            estimate(F, small_paths, 1, threads=threads)
        a = estimate(F, small_paths, 1, threads=np.int64(2))
        b = estimate(F, small_paths, 1)
        assert a.d0 == b.d0 and np.array_equal(a.values, b.values)

    def test_constant_is_order_zero(self, small_spec):
        paths = sample_paths(small_spec, 20_000, seed=2)
        F = np.full(paths.M, 2.0)
        coeffs = estimate(F, paths, 2)
        assert coeffs.d0 == 2.0
        phi = basis_products(oracle_indices(small_spec.N, 2), paths)
        w = oracle_weights(small_spec, 2)
        bound = 4.0 * np.sqrt(phi.var(axis=1, ddof=1) / paths.M) * 2.0 / w
        assert np.all(np.abs(coeffs.values) <= bound)

    def test_single_gaussian_projects_onto_unit(self, small_spec):
        paths = sample_paths(small_spec, 100_000, seed=3)
        F = paths.G[:, 0].copy()
        coeffs = estimate(F, paths, 2)
        tol = 4.0 * math.sqrt(2.0 / paths.M)
        unit = ((1, 0, 0, 0), (0, 0, 0, 0))
        assert coeffs.entry(unit) == pytest.approx(1.0, abs=tol)
        others = np.delete(coeffs.values, oracle_indices(small_spec.N, 2).index(unit))
        # generous uniform bound: inflation 1/w <= 1/(kappa h)^2 = 16
        assert np.max(np.abs(others)) <= 16 * 4.0 / math.sqrt(paths.M) * 3

    def test_brownian_terminal_loads_every_unit(self, small_spec):
        paths = sample_paths(small_spec, 100_000, seed=4)
        sh = math.sqrt(small_spec.h)
        F = sh * paths.G.sum(axis=1)
        coeffs = estimate(F, paths, 1)
        tol = 4.0 * math.sqrt(1.0 / paths.M)
        for i in range(small_spec.N):
            nB = tuple(1 if k == i else 0 for k in range(small_spec.N))
            assert coeffs.entry((nB, (0,) * small_spec.N)) == pytest.approx(sh, abs=tol)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_naive_oracle(self, p, rng):
        # p = 2 exercises the pair kernel; p = 1, 3 the prefix kernel
        spec = GridSpec(T=1.0, N=3, kappa=2.0)
        paths = sample_paths(spec, 400, seed=5)
        F = rng.standard_normal(paths.M) + np.exp(0.3 * paths.Q.sum(axis=1))
        coeffs = estimate(F, paths, p)
        d0, values = naive_estimate(F, paths, p)
        assert coeffs.d0 == pytest.approx(d0, rel=1e-13)
        np.testing.assert_allclose(coeffs.values, values, rtol=1e-10, atol=1e-12)

    def test_idempotent_on_basis_elements(self):
        spec = GridSpec(T=1.0, N=3, kappa=1.0)
        paths = sample_paths(spec, 150_000, seed=6)
        target = ((1, 0, 0), (0, 0, 1))
        j = oracle_indices(3, 2).index(target)
        phi = basis_products([target], paths)[0]
        coeffs = estimate(phi.copy(), paths, 2)
        w = oracle_weight(target, spec)
        # var(Phi^2)/w^2 <= E Phi^4 / w^2; bound empirically
        tol = 4.0 * math.sqrt(phi.var(ddof=1) * np.max(phi ** 2) / paths.M) / w
        assert coeffs.values[j] == pytest.approx(1.0, abs=min(tol, 0.2))
        others = np.delete(coeffs.values, j)
        w_all = np.delete(coeffs.weights(), j)
        assert np.all(np.abs(others) * np.sqrt(w_all) <= 0.15)

    def test_order_subset_agrees_across_p(self, small_paths):
        # coefficients depend only on the index, not on the truncation order
        F = np.asarray(small_paths.G[:, 1] * small_paths.Q[:, 0], dtype=float)
        c2 = estimate(F, small_paths, 2)
        c3 = estimate(F, small_paths, 3)
        J2 = len(c2.values)
        np.testing.assert_allclose(c3.values[:J2], c2.values, rtol=1e-10, atol=1e-13)

    def test_thread_count_is_invisible(self, small_paths):
        F = np.exp(small_paths.G[:, 0] * 0.4)
        a = estimate(F, small_paths, 2, threads=1)
        b = estimate(F, small_paths, 2, threads=4)
        assert a.d0 == b.d0
        assert np.array_equal(a.values, b.values)

    def test_rejects_length_mismatch(self, small_paths):
        with pytest.raises(ValueError):
            estimate(np.ones(small_paths.M + 1), small_paths, 2)

    @pytest.mark.parametrize("call", [estimate, variance_diagnostic])
    def test_first_non_finite_sample_is_named(self, small_paths, call):
        F = np.ones(small_paths.M)
        F[[12, 37]] = np.inf, np.nan
        with pytest.raises(ValueError, match="F has a non-finite value inf at sample 12$"):
            call(F, small_paths, 2)

    def test_rejects_non_finite_with_sample_index(self, small_paths):
        F = np.ones(small_paths.M)
        F[37] = np.nan
        with pytest.raises(ValueError, match="37"):
            estimate(F, small_paths, 2)

    def test_rejects_oversized_basis(self, small_paths):
        with pytest.raises(SizingError):
            estimate(np.ones(small_paths.M), small_paths, 40)


class TestCoefficientsContainer:
    def test_values_are_a_read_only_copy(self, small_spec):
        # A later change to the caller's array reaches neither the
        # coefficients nor an evaluation, under any warnings filter.
        J = len(oracle_indices(small_spec.N, 2))
        vals = np.zeros(J)
        coeffs = ChaosCoefficients(0.0, vals, 2, small_spec)
        vals[0] = np.nan
        assert coeffs.values[0] == 0.0
        assert not coeffs.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coeffs.values[0] = 1.0
        paths = sample_paths(small_spec, 50, seed=3)
        assert all(np.isfinite(grid).all() for grid in evaluate_grid(coeffs, paths))

    @pytest.mark.parametrize("make", ["estimate", "from_entries", "int_array",
                                      "read_only_array"])
    def test_every_constructor_stores_a_read_only_float64_copy(self, small_spec, make):
        J = len(oracle_indices(small_spec.N, 2))
        paths = sample_paths(small_spec, 50, seed=4)
        given = None
        if make == "estimate":
            coeffs = estimate(paths.G[:, 0].copy(), paths, 2)
        elif make == "from_entries":
            coeffs = coefficients_from_entries(small_spec, 2, entries={
                ((0, 1, 0, 0), (0, 0, 0, 0)): 0.25})
        else:
            given = np.arange(J, dtype=np.int64 if make == "int_array" else np.float64)
            given.flags.writeable = make == "int_array"
            coeffs = ChaosCoefficients(0.0, given, 2, small_spec)
            assert np.array_equal(coeffs.values, given)
            assert not np.shares_memory(coeffs.values, given)
        assert coeffs.values.dtype == np.float64 and coeffs.values.shape == (J,)
        assert not coeffs.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coeffs.values[-1] = 1.0

    def test_round_trip_entries(self, small_spec):
        idx = ((0, 1, 0, 0), (0, 0, 0, 0))
        coeffs = coefficients_from_entries(small_spec, 2, d0=1.5, entries={idx: 0.25})
        assert coeffs.d0 == 1.5
        assert coeffs.entry(idx) == 0.25
        j = oracle_indices(small_spec.N, 2).index(idx)
        assert coeffs.values[j] == 0.25
        nonzero = [v for v in coeffs.values if v != 0.0]
        assert nonzero == [0.25]

    def test_tuple_keys_accepted(self, small_spec):
        # Any integer sequences of length N; numpy integers too.
        coeffs = coefficients_from_entries(
            small_spec, 1, entries={((1, 0, 0, 0), (0, 0, 0, 0)): 2.0})
        assert coeffs.entry(((1, 0, 0, 0), (0, 0, 0, 0))) == 2.0
        assert coeffs.entry((coeffs.degB[0], coeffs.degP[0])) == 2.0
        assert coeffs.entry(([1, 0, 0, 0], np.zeros(4, dtype=np.int64))) == 2.0

    def test_every_rank_round_trips(self, small_spec):
        indices = oracle_indices(small_spec.N, 2)
        values = np.arange(1.0, len(indices) + 1)
        coeffs = coefficients_from_entries(small_spec, 2, entries=dict(zip(indices, values)))
        assert np.array_equal(coeffs.values, values)
        assert [coeffs.entry(n) for n in indices] == values.tolist()

    def test_rejects_out_of_range_index(self, small_spec):
        bad = ((2, 1, 0, 0), (0, 0, 0, 0))  # order 3 > p = 2
        with pytest.raises(KeyError):
            coefficients_from_entries(small_spec, 2, entries={bad: 1.0})
        coeffs = coefficients_from_entries(small_spec, 2)
        for key in (bad, ((0, 0, 0, 0), (0, 0, 0, 0))):
            with pytest.raises(KeyError):
                coeffs.entry(key)

    def test_large_degree_does_not_wrap_onto_another_index(self, small_spec):
        # 300 and 256 + 1 pack to 44 and 1 in a byte: both are order > p.
        coeffs = coefficients_from_entries(small_spec, 2)
        for d in (300, 257, 256):
            key = ((d, 0, 0, 0), (0, 0, 0, 0))
            with pytest.raises(KeyError):
                coeffs.entry(key)
            with pytest.raises(KeyError):
                coefficients_from_entries(small_spec, 2, entries={key: 1.0})

    @pytest.mark.parametrize("key, error", [
        (((1, 0, 0), (0, 0, 0, 0)), ValueError),              # nB too short
        (((1, 0, 0, 0), (0, 0, 0, 0, 0)), ValueError),        # nP too long
        (((1, 0, 0, 0), (0, 0, 0, 0), (0,)), ValueError),     # three vectors
        (((-1, 0, 0, 0), (1, 0, 0, 0)), ValueError),          # negative
        (((1.0, 0, 0, 0), (0, 0, 0, 0)), TypeError),          # float
        (((True, 0, 0, 0), (0, 0, 0, 0)), TypeError),         # bool
        (((np.True_, 0, 0, 0), (0, 0, 0, 0)), TypeError),     # numpy bool
    ])
    def test_rejects_malformed_key(self, small_spec, key, error):
        coeffs = coefficients_from_entries(small_spec, 2)
        with pytest.raises(error):
            coeffs.entry(key)
        with pytest.raises(error):
            coefficients_from_entries(small_spec, 2, entries={key: 1.0})

    def test_weights_match_weight_function(self, small_spec, small_paths):
        coeffs = estimate(np.ones(small_paths.M), small_paths, 2)
        np.testing.assert_allclose(coeffs.weights(), oracle_weights(small_spec, 2),
                                   rtol=1e-15)

    def test_constructor_takes_a_values_array(self, small_spec):
        J = math.comb(2 * small_spec.N + 2, 2) - 1
        coeffs = ChaosCoefficients(d0=1, values=list(range(J)), p=2, spec=small_spec)
        assert coeffs.d0 == 1.0 and isinstance(coeffs.d0, float)
        assert coeffs.values.dtype == np.float64
        assert coeffs.values.tolist() == list(range(J))
        with pytest.raises(ValueError, match="shape"):
            ChaosCoefficients(d0=0.0, values=np.zeros(J + 1), p=2, spec=small_spec)
        with pytest.raises(ValueError, match="shape"):
            ChaosCoefficients(d0=0.0, values=np.zeros((1, J)), p=2, spec=small_spec)
        with pytest.raises(TypeError):
            ChaosCoefficients(d0=0.0, values=np.zeros(J), p=2, spec=small_spec,
                              iset=coeffs.iset)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_d0(self, small_spec, bad):
        with pytest.raises(ValueError, match="d0"):
            coefficients_from_entries(small_spec, 2, d0=bad)
        with pytest.raises(ValueError, match="d0"):
            coefficients_from_entries(small_spec, 0, d0=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_value_with_rank(self, small_spec, bad):
        J = math.comb(2 * small_spec.N + 2, 2) - 1
        values = np.zeros(J)
        values[[17, 30]] = bad
        with pytest.raises(ValueError, match="rank 17"):
            ChaosCoefficients(d0=0.0, values=values, p=2, spec=small_spec)
        key = oracle_indices(small_spec.N, 2)[5]
        with pytest.raises(ValueError, match="rank 5"):
            coefficients_from_entries(small_spec, 2, entries={key: bad})

    def test_estimate_overflow_is_refused(self):
        # Finite samples whose sum overflows float64 make a d0 of inf.
        paths = sample_paths(GridSpec(T=1.0, N=2, kappa=1.0), 4, seed=3)
        with pytest.raises(ValueError, match="d0"):
            estimate(np.full(paths.M, 1e308), paths, 1)

    @pytest.mark.parametrize("scale, p", [(1e305, 2), (1e305, 3), (3e305, 3)])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_overflowing_sums_are_refused_by_rank(self, scale, p, threads):
        # Two chunks of finite sums whose total overflows: a ValueError that
        # names estimate and the rank, not a RuntimeWarning (the suite turns
        # warnings into errors), for the pair (p = 2) and prefix (p = 3) sums.
        paths = sample_paths(GridSpec(T=1.0, N=4, kappa=1.0), 2000, seed=1)
        F = scale * paths.G[:, 0] * paths.G[:, 1]
        with pytest.raises(ValueError, match="^estimate's sum has a non-finite value "
                                             "inf at rank 9$"):
            estimate(F, paths, p, threads=threads)

    def test_overflowing_coefficient_is_refused_by_rank(self):
        # Finite sums, but 1/w(n) = 1/(kappa*h) = 1000 scales the jump
        # coefficient past float64.
        spec = GridSpec(T=1.0, N=1, kappa=1e-3)
        paths = PathBatch(spec, 2, np.zeros((2, 1)), np.array([[1], [0]]), seed=0)
        with pytest.raises(ValueError, match="^estimate's coefficient has a non-finite "
                                             "value inf at rank 1$"):
            estimate(np.full(2, 1e306), paths, 1)


class TestVarianceDiagnostic:
    @pytest.mark.parametrize("threads, error", BAD_THREADS)
    def test_threads_validated(self, small_paths, threads, error):
        F = small_paths.G[:, 0].copy()
        with pytest.raises(error, match="threads"):
            variance_diagnostic(F, small_paths, 1, threads=threads)
        assert (variance_diagnostic(F, small_paths, 1, threads=np.int64(2))
                == variance_diagnostic(F, small_paths, 1))

    def test_gaussian_unit_value(self):
        # V = Var(G) + Var(G K1(G))/1 + Var(G C1(Q))/kh = 1 + 2 + 1 = 4
        spec = GridSpec(T=0.25, N=1, kappa=1.0)
        paths = sample_paths(spec, 400_000, seed=9)
        F = paths.G[:, 0].copy()
        V = variance_diagnostic(F, paths, 1)
        assert V == pytest.approx(4.0, abs=0.1)

    def test_constant_scales_with_basis_size(self, small_spec):
        # each Var(c Phi_n)/w(n) is about c^2: the total is near c^2 * J, not 0
        paths = sample_paths(small_spec, 50_000, seed=10)
        c = 3.0
        J = len(oracle_indices(small_spec.N, 2))
        V = variance_diagnostic(np.full(paths.M, c), paths, 2)
        assert V == pytest.approx(c * c * J, rel=0.25)

    def test_predicts_estimator_mse(self):
        # over replications, weighted MSE of coefficients tracks V/M
        spec = GridSpec(T=1.0, N=2, kappa=1.0)
        ref_paths = sample_paths(spec, 400_000, seed=100)
        F_ref = np.asarray(ref_paths.Q.sum(axis=1), dtype=float)
        ref = estimate(F_ref, ref_paths, 2)
        V = variance_diagnostic(F_ref, ref_paths, 2)
        w = ref.weights()
        M = 2_000
        mses = []
        for rep in range(40):
            paths = sample_paths(spec, M, seed=200 + rep)
            F = np.asarray(paths.Q.sum(axis=1), dtype=float)
            est = estimate(F, paths, 2)
            mses.append((est.d0 - ref.d0) ** 2
                        + float(np.dot(w, (est.values - ref.values) ** 2)))
        ratio = np.mean(mses) / (V / M)
        assert 0.5 <= ratio <= 2.0

    def test_thread_count_is_invisible(self, small_paths):
        F = np.asarray(small_paths.Q.sum(axis=1), dtype=float)
        a = variance_diagnostic(F, small_paths, 2, threads=1)
        b = variance_diagnostic(F, small_paths, 2, threads=3)
        assert a == b

    @pytest.mark.parametrize("p", [1, 3])
    def test_overflow_is_refused(self, p):
        # Finite samples whose squares overflow float64: V would be inf - inf.
        # With prefix tiles (p = 3) and without (p = 1), and no
        # RuntimeWarning escapes (the suite turns warnings into errors), in
        # pool workers (three chunks) too.
        paths = sample_paths(GridSpec(T=1.0, N=2, kappa=1.0), 2049, seed=0)
        for threads in (1, 2):
            with pytest.raises(ValueError, match="^variance_diagnostic's Var\\(F\\) has a "
                                                 "non-finite value nan$"):
                variance_diagnostic(np.full(paths.M, 1e200), paths, p, threads=threads)

    @pytest.mark.parametrize("p", [2, 3])
    def test_overflowing_sums_are_refused_by_rank(self, p):
        # estimate's sums overflow in the reduction over chunks.
        paths = sample_paths(GridSpec(T=1.0, N=4, kappa=1.0), 2000, seed=1)
        F = 1e305 * paths.G[:, 0] * paths.G[:, 1]
        with pytest.raises(ValueError, match="^estimate's sum has a non-finite value "
                                             "inf at rank 9$"):
            variance_diagnostic(F, paths, p)

    @pytest.mark.parametrize("N, p", [(1, 1), (2, 2), (3, 3), (2, 4), (1, 6)])
    def test_diagonal_sums_match_the_oracle(self, N, p):
        # sum_m F_m**2 * S_m = sum_n sum_m (F_m * Phi_n(m))**2 / w(n): the
        # per-path sum over every index against the naive one per index, on
        # a batch of two chunks.
        from chaosbsde.chaos_core import _diagonal_sums, _index_set

        spec = GridSpec(T=1.0, N=N, kappa=1.5)
        paths = sample_paths(spec, 1100, seed=40 + N)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        iset = _index_set(N, p)
        sF2, sF2S = _diagonal_sums(F, paths, iset, iset.inv_weights(spec.jump_mean))
        s2 = ((basis_products(oracle_indices(N, p), paths) * F) ** 2).sum(axis=1)
        assert sF2 == pytest.approx(float((F * F).sum()), rel=1e-14)
        assert sF2S == pytest.approx(float(s2 @ (1.0 / oracle_weights(spec, p))), rel=1e-12)

    @pytest.mark.parametrize("kappa", [1e-3, 30.0])
    @pytest.mark.parametrize("p", [2, 4])
    def test_diagonal_sums_across_jump_means(self, kappa, p):
        # kappa*h = 5e-4 and 15: the squared Charlier factors, then scaled by
        # 1/w(n) ~ (kappa*h)**-|nP|, span many orders of magnitude each way.
        from chaosbsde.chaos_core import _diagonal_sums, _index_set

        spec = GridSpec(T=1.0, N=2, kappa=kappa)
        paths = sample_paths(spec, 1100, seed=60 + p)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        iset = _index_set(2, p)
        sF2, sF2S = _diagonal_sums(F, paths, iset, iset.inv_weights(spec.jump_mean))
        s2 = ((basis_products(oracle_indices(2, p), paths) * F) ** 2).sum(axis=1)
        assert sF2S == pytest.approx(float(s2 @ (1.0 / oracle_weights(spec, p))), rel=1e-12)

    @pytest.mark.parametrize("N, p, kappa", [(20, 2, 1.0), (50, 2, 3.0), (10, 3, 1.0),
                                             (20, 3, 1.0), (8, 4, 1.0), (3, 8, 1.0)],
                             ids=lambda v: str(v))
    def test_matches_the_oracle_at_wide_shapes(self, N, p, kappa):
        # Var(F) + sum_n Var(F * Phi_n) / w(n) index by index, over bases of
        # up to 12340 indices, on three chunks; every thread count gives the
        # same bits.
        spec = GridSpec(T=1.0, N=N, kappa=kappa)
        paths = sample_paths(spec, 2100, seed=7)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + paths.G[:, 0] * paths.G[:, -1]
        indices = oracle_indices(N, p)
        want = F.var(ddof=1)
        for lo in range(0, len(indices), 1000):
            block = indices[lo:lo + 1000]
            w = np.array([oracle_weight(n, spec) for n in block])
            want += float((basis_products(block, paths) * F).var(axis=1, ddof=1) @ (1.0 / w))
        V = variance_diagnostic(F, paths, p)
        assert V == pytest.approx(want, rel=1e-10)
        assert all(variance_diagnostic(F, paths, p, threads=k) == V for k in (2, 3))

    def test_tiny_jump_mean_at_p4(self):
        # kappa*h = 1e-100: (kappa*h)**4 underflows and 1/w(n) of an index
        # of jump degree 4 exceeds float64. Each 1/w is capped, and every
        # index with a jump degree adds about (kappa*h)**|nP|, so V is the
        # finite sum over the Brownian indices alone.
        spec = GridSpec(T=1.0, N=2, kappa=2e-100)
        assert spec.jump_mean == 1e-100
        paths = sample_paths(spec, 3000, seed=5)
        F = np.exp(0.2 * paths.G[:, 0]) + paths.G[:, 0] * paths.G[:, -1]
        indices = [n for n in oracle_indices(2, 4) if not any(n[1])]
        phi = basis_products(indices, paths)
        w = np.array([oracle_weight(n, spec) for n in indices])
        want = F.var(ddof=1) + float((phi * F).var(axis=1, ddof=1) @ (1.0 / w))
        V = variance_diagnostic(F, paths, 4)
        assert V == pytest.approx(want, rel=1e-12)
        assert variance_diagnostic(F, paths, 4, threads=3) == V

    def test_requires_two_samples(self, small_spec):
        paths = sample_paths(small_spec, 1, seed=0)
        with pytest.raises(ValueError):
            variance_diagnostic(np.ones(1), paths, 1)


class TestParseval:
    @pytest.mark.parametrize("seed", [21, 22])
    def test_weighted_energy_below_second_moment(self, seed):
        spec = GridSpec(T=1.0, N=5, kappa=1.0)
        paths = sample_paths(spec, 10_000, seed=seed)
        F = np.exp(0.2 * paths.Q.sum(axis=1)) + 0.5 * paths.G[:, 2]
        coeffs = estimate(F, paths, 2)
        lhs = coeffs.d0 ** 2 + float(np.dot(coeffs.weights(), coeffs.values ** 2))
        rhs = float((F ** 2).mean()) * (1.0 + 10.0 / math.sqrt(paths.M))
        assert lhs <= rhs
