"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criteria 5 and 7 share one set of dense benchmark runs (session
fixture); criterion 4 audits the traces of that fixture and of the
criterion-3 sweep (another session fixture), so it also runs on its own.

Criterion 6 (noise-robustness direction) is expected to FAIL: against the
max-spanning-tree SPH baseline shipped here, the factorization approach is
relatively strongest at LOW noise, so the required ordering never
materializes.  The check is asserted as stated rather than weakened; see
the test docstring for the measured numbers.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from cellflow.baselines import SphConfig, infer_random, infer_sph
from cellflow.complexes import OrientedGraph, build_incidence, validate_cycle
from cellflow.harness import (
    ExperimentConfig,
    relative_performance,
    run_experiment,
)
from cellflow.hodge import hodge_decompose, remove_gradient
from cellflow.mfci import InferenceConfig, infer_mfci
from cellflow.synth import SynthConfig, random_complex, sample_flows


@contextmanager
def criterion(number, name):
    """Print the criterion's PASS/FAIL line, followed by the margins (short
    strings) that the body appended to the yielded list."""
    margins = []
    try:
        yield margins
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL{_shown(margins)}")
        raise
    print(f"\n[criterion {number}] {name}: PASS{_shown(margins)}")


def _shown(margins):
    return f" ({', '.join(margins)})" if margins else ""


def _per_seed(values, digits=3):
    return "/".join(f"{v:.{digits}f}" for v in values)


def assert_monotone(losses, tol=1e-8):
    losses = np.asarray(losses)
    assert (np.diff(losses) <= tol).all(), f"loss sequence increased: {losses}"


# ---------------------------------------------------------------------------
# Shared dense benchmark (n=40, p=0.9, 50 planted cells, 64 flows, noise 0.3)


BENCH_SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture(scope="session")
def dense_bench():
    """Per seed: the instance plus mfci-fast/mfci-exact/sph/random runs.

    mfci is the "all 8 per iteration, no evaluation" configuration (l = l'
    = 8, ICA factorization, deterministic discretization) in approximate
    and exact projection variants; sph evaluates 11 candidates per
    iteration; every algorithm gets the same cell budget k=50.  An untimed
    fast call (8 cells) on the first instance comes first, repeated until
    2 s of wall time have passed, so neither the BLAS cold start nor the
    slow spell after the host has idled lands on a timed run: on the
    2-core reference host, calls run about 10x slower for roughly the first
    second of BLAS work after an idle minute.
    """
    def mfci_cfg(cells, projection):
        return InferenceConfig(total_cells=cells, candidates_per_iteration=8,
                               added_per_iteration=8, method="ica",
                               discretization="deterministic", projection=projection)

    start = time.perf_counter()
    runs = []
    for seed in BENCH_SEEDS:
        synth = SynthConfig(40, 0.9, 50, 64, 1.0, 0.3)
        rng = np.random.default_rng([seed, 0])
        cpx = random_complex(synth, rng)
        flows = sample_flows(cpx, 64, 1.0, 0.3, rng)
        graph = cpx.graph
        if not runs:
            warm_up = time.perf_counter()
            while time.perf_counter() - warm_up < 2.0:
                infer_mfci(graph, flows, mfci_cfg(8, "approximate"),
                           np.random.default_rng([seed, 1]))

        _, fast = infer_mfci(graph, flows, mfci_cfg(50, "approximate"),
                             np.random.default_rng([seed, 1]))
        _, exact = infer_mfci(graph, flows, mfci_cfg(50, "exact"), np.random.default_rng([seed, 1]))
        _, sph = infer_sph(graph, flows, SphConfig(total_cells=50, candidates_per_iteration=11))
        _, rand = infer_random(graph, flows, 50, np.random.default_rng([seed, 2]))
        runs.append(dict(graph=graph, flows=flows, fast=fast, exact=exact,
                         sph=sph, random=rand))
    return dict(runs=runs, elapsed=time.perf_counter() - start)


def test_criterion_1_algebraic_invariants():
    """100 random complexes: B1 @ B2 == 0 in integers, Hodge recomposition
    within 1e-6 relative, pairwise component orthogonality within
    1e-6 * ||F||^2.  Budget: under a minute."""
    with criterion(1, "algebraic invariants"):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        for i in range(100):
            p = 0.3 if i % 2 == 0 else 0.7
            n = int(rng.integers(10, 26))
            planted = int(rng.integers(1, 5))
            cpx = random_complex(SynthConfig(n, p, planted, 1, seed=9000 + i))
            B1 = build_incidence(cpx.graph).toarray().astype(np.int64)
            B2 = cpx.boundary_matrix().toarray().astype(np.int64)
            assert (B1 @ B2 == 0).all()

            m = cpx.graph.edge_count
            if i % 2 == 0:
                flows = rng.standard_normal((m, 3))
            else:
                flows = sample_flows(cpx, 3, 1.0, 0.5, rng)
            grad, curl, harm = hodge_decompose(cpx.graph, cpx, flows)
            total = np.linalg.norm(flows)
            assert np.linalg.norm(grad + curl + harm - flows) <= 1e-6 * total
            for a, b in ((grad, curl), (grad, harm), (curl, harm)):
                assert abs(float(np.sum(a * b))) <= 1e-6 * total**2
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_small_scale_oracle_equivalence():
    """Single-cell inference matches the brute-force best simple cycle
    within 1e-6 on K4 and 20 random graphs (n <= 8).

    Flows are noiseless single-planted-cycle flows, which makes the global
    optimum well defined (zero) while still exercising the whole
    factorize -> discretize -> evaluate pipeline against an exhaustive
    cycle-enumeration oracle.  Budget: under two minutes."""
    import networkx as nx

    def oracle_best_loss(graph, flows0):
        G = nx.Graph()
        G.add_nodes_from(range(graph.node_count))
        G.add_edges_from(graph.edges)
        best = np.inf
        count = 0
        for nodes in nx.simple_cycles(G):
            cell = validate_cycle(graph, list(nodes) + [nodes[0]])
            b = cell.dense()
            resid = flows0 - np.outer(b, b @ flows0) / float(b @ b)
            best = min(best, float(np.linalg.norm(resid)))
            count += 1
        assert count >= 1
        return best

    def check_instance(graph, planted_cell, seed):
        rng = np.random.default_rng(seed)
        flows = planted_cell.dense()[:, None] @ rng.standard_normal((1, 4))
        cfg = InferenceConfig(total_cells=1,
                              candidates_per_iteration=min(graph.edge_count, 4),
                              added_per_iteration=1, method="svd",
                              discretization="deterministic")
        _, trace = infer_mfci(graph, flows, cfg, np.random.default_rng(seed + 1))
        flows0 = remove_gradient(graph, flows)
        best = oracle_best_loss(graph, flows0)
        assert trace.final.loss <= best + 1e-6, (trace.final.loss, best)

    with criterion(2, "small-scale oracle equivalence"):
        start = time.perf_counter()
        k4 = OrientedGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        check_instance(k4, validate_cycle(k4, [0, 1, 2, 0]), seed=99)
        for i in range(20):
            n = 4 + i % 5
            cpx = random_complex(SynthConfig(n, 0.7, 1, 1, seed=500 + i))
            check_instance(cpx.graph, cpx.cells[0], seed=600 + i)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"


@pytest.fixture(scope="session")
def eckart_young_sweep():
    """The 50 random instances of criterion 3, each as (exact-projection
    trace, gradient-free flows): SPH on every third, evaluated MFCI-SVD on
    the rest.  Criterion 4 audits the same traces."""
    rng = np.random.default_rng(777)
    runs = []
    for i in range(50):
        n = int(rng.integers(10, 21))
        planted = int(rng.integers(3, 9))
        noise = float(rng.uniform(0.1, 0.6))
        cpx = random_complex(SynthConfig(n, 0.5 if i % 2 else 0.8, planted, 1,
                                         seed=3000 + i))
        flows = sample_flows(cpx, int(rng.integers(4, 11)), 1.0, noise, rng)
        graph = cpx.graph

        if i % 3 == 2:
            _, trace = infer_sph(graph, flows,
                                 SphConfig(total_cells=planted, candidates_per_iteration=4))
        else:
            cfg = InferenceConfig(total_cells=planted, candidates_per_iteration=3,
                                  added_per_iteration=1, method="svd",
                                  projection="exact")
            _, trace = infer_mfci(graph, flows, cfg, np.random.default_rng([i, 5]))
        runs.append((trace, remove_gradient(graph, flows)))
    return runs


def test_criterion_3_eckart_young_lower_bound(eckart_young_sweep):
    """On 50 random instances, the exact residual of the inferred complex is
    never below the same-rank SVD residual (minus 1e-6): the factorization
    optimum lower-bounds any discrete cell solution."""
    with criterion(3, "Eckart-Young lower bound"):
        for trace, flows0 in eckart_young_sweep:
            sv = np.linalg.svd(flows0, compute_uv=False)
            k_final = trace.final.cells_total
            svd_residual = float(np.sqrt((sv[k_final:] ** 2).sum()))
            assert trace.final.loss >= svd_residual - 1e-6, (trace.final.loss, svd_residual)


def test_criterion_4_monotone_loss(eckart_young_sweep, dense_bench):
    """Every exact-projection trace (mfci, sph, random) from the dense
    benchmark and the criterion-3 sweep is non-increasing within 1e-8."""
    with criterion(4, "monotone loss traces"):
        for trace, _ in eckart_young_sweep:
            assert_monotone(trace.losses())
        for run in dense_bench["runs"]:
            for key in ("exact", "sph", "random"):
                assert_monotone(run[key].losses())


def test_criterion_5_speed_separation(dense_bench):
    """Dense instance (n=40, p=0.9, 50 planted cells, 64 flows, noise 0.3):
    the no-evaluation approximate-projection mfci reports exactly 1
    cumulative solver call, runs faster than sph with 11 candidates at the
    same k=50  budget, and its final loss beats the random baseline
    (medians over 5 seeds).  Budget: under ten minutes."""
    with criterion(5, "speed separation on the dense benchmark") as margins:
        fast_losses, rand_losses, fast_secs, sph_secs = [], [], [], []
        for run in dense_bench["runs"]:
            final = run["fast"].final
            assert final.cumulative_solver_calls == 1, final
            assert final.cells_total == 50
            fast_losses.append(final.loss)
            rand_losses.append(run["random"].final.loss)
            fast_secs.append(final.cumulative_seconds)
            sph_secs.append(run["sph"].final.cumulative_seconds)
        margins += [f"max(fast) {max(fast_secs):.3f} s", f"min(sph) {min(sph_secs):.3f} s",
                    f"median fast {np.median(fast_secs):.3f} s",
                    f"median sph {np.median(sph_secs):.3f} s",
                    f"fast per seed {_per_seed(fast_secs)} s",
                    f"sph per seed {_per_seed(sph_secs)} s"]
        assert np.median(fast_secs) < np.median(sph_secs)
        assert max(fast_secs) < min(sph_secs)  # separation is not marginal
        assert np.median(fast_losses) <= np.median(rand_losses)
        assert dense_bench["elapsed"] < 600.0


def test_criterion_6_noise_robustness_direction():
    """Relative performance of mfci(svd, best-1-of-5, approximate,
    deterministic) against sph should be larger at noise 2.0 than at noise
    0.1 (medians over 7 seeds) on n=20, p=0.9, 30 planted cells, 64 flows.

    KNOWN FAIL: with the max-spanning-tree sph baseline implemented here
    (the similarity-clustering variant is out of scope), the factorization
    approach is relatively strongest at LOW noise -- measured medians are
    ~1.7 at noise 0.1 vs ~1.0 at noise 2.0, and the inversion persists for
    sph candidate counts 1..120, budgets k=15..60, and the full-scale
    n=40/80-cell setup.  The assertion is kept as stated rather than
    weakened; see the "Criterion 6" section of ROADMAP.md for the full
    analysis.  The PASS/FAIL line prints both medians and the per-seed
    values."""
    def rel_perf_per_seed(noise):
        values = []
        for seed in range(7):
            synth = SynthConfig(20, 0.9, 30, 64, 1.0, noise)
            rng = np.random.default_rng([seed, 0, int(noise * 10)])
            cpx = random_complex(synth, rng)
            flows = sample_flows(cpx, 64, 1.0, noise, rng)
            graph = cpx.graph
            cfg = InferenceConfig(total_cells=30, candidates_per_iteration=5,
                                  added_per_iteration=1, method="svd",
                                  discretization="deterministic", projection="approximate")
            _, mfci_trace = infer_mfci(graph, flows, cfg, np.random.default_rng([seed, 1]))
            _, sph_trace = infer_sph(graph, flows,
                                     SphConfig(total_cells=30, candidates_per_iteration=11))
            rand_losses = [infer_random(graph, flows, 30,
                                        np.random.default_rng([seed, 2, rep]))[1].final.loss
                           for rep in range(3)]
            values.append(relative_performance(float(np.mean(rand_losses)),
                                               mfci_trace.final.loss,
                                               sph_trace.final.loss))
        return values

    with criterion(6, "noise-robustness direction") as margins:
        low_values, high_values = rel_perf_per_seed(0.1), rel_perf_per_seed(2.0)
        low, high = float(np.median(low_values)), float(np.median(high_values))
        margins += [f"median at noise 0.1 {low:.3f}", f"median at noise 2.0 {high:.3f}",
                    f"noise 0.1 per seed {_per_seed(low_values)}",
                    f"noise 2.0 per seed {_per_seed(high_values)}"]
        assert high > low, (f"relative performance at noise 2.0 ({high:.3f}) "
                            f"does not exceed noise 0.1 ({low:.3f})")


def test_criterion_7_approximate_update_fidelity(dense_bench):
    """For the no-evaluation mfci configuration, approximate-projection
    final loss stays within 5% of the exact-projection final loss (median
    over 5 seeds) while running strictly faster."""
    with criterion(7, "approximate-update fidelity") as margins:
        ratios, fast_secs, exact_secs = [], [], []
        for run in dense_bench["runs"]:
            ratios.append(run["fast"].final.loss / run["exact"].final.loss)
            fast_secs.append(run["fast"].final.cumulative_seconds)
            exact_secs.append(run["exact"].final.cumulative_seconds)
        median_ratio = float(np.median(ratios))
        margins += [f"median fast {np.median(fast_secs):.3f} s",
                    f"median exact {np.median(exact_secs):.3f} s",
                    f"loss ratio {median_ratio:.4f}"]
        assert abs(median_ratio - 1.0) <= 0.05, ratios
        assert np.median(fast_secs) < np.median(exact_secs)


def test_criterion_8_determinism(tmp_path):
    """Re-running the harness with identical seeds reproduces trace CSVs:
    byte-identical with timing disabled, and identical in every non-time
    column with timing enabled (wall-clock bytes cannot reproduce)."""
    def experiment(algo, out_dir, timing):
        return ExperimentConfig(
            algo=algo, seeds=(3, 4), out_dir=out_dir,
            synth=SynthConfig(16, 0.8, 8, 16, 1.0, 0.3),
            mfci=InferenceConfig(total_cells=8, candidates_per_iteration=4,
                                 added_per_iteration=4, method="ica",
                                 discretization="random_walk", projection="approximate"),
            sph=SphConfig(total_cells=8, candidates_per_iteration=5),
            random_cells=8,
            timing=timing,
        )

    def strip_time(text):
        rows = [line.split(",") for line in text.splitlines()]
        return [row[:3] + row[4:] for row in rows]

    with criterion(8, "end-to-end determinism"):
        for algo in ("mfci", "sph", "random"):
            a, b = tmp_path / f"{algo}_a", tmp_path / f"{algo}_b"
            run_experiment(experiment(algo, a, timing=False), echo=lambda *_: None)
            run_experiment(experiment(algo, b, timing=False), echo=lambda *_: None)
            for seed in (3, 4):
                name = f"trace_{algo}_seed{seed}.csv"
                assert (a / name).read_bytes() == (b / name).read_bytes()

        ta, tb = tmp_path / "timed_a", tmp_path / "timed_b"
        run_experiment(experiment("mfci", ta, timing=True), echo=lambda *_: None)
        run_experiment(experiment("mfci", tb, timing=True), echo=lambda *_: None)
        for seed in (3, 4):
            name = f"trace_mfci_seed{seed}.csv"
            assert strip_time((ta / name).read_text()) == strip_time((tb / name).read_text())
