"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its stated tolerance
and runtime budget, and prints a single PASS line on success.
"""

import time

import numpy as np
import pytest

from meshseg.graph.neighborhoods import EdgeSet, NeighborhoodConfig
from meshseg.graph.res import res_sample, sampling_probability
from meshseg.hierarchy.build import HierarchyConfig, build_hierarchy
from meshseg.hierarchy.qem import optimal_contractions, qem_pool
from meshseg.hierarchy.trace import PoolingTraceMap
from meshseg.hierarchy.vertex_clustering import vertex_clustering_pool, pooled_edge_set
from meshseg.mesh.core import UNLABELED, geodesic_edge_set
from meshseg.nn.edgeconv import EdgeConvBranch, prepared_edges
from meshseg.nn.gradcheck import finite_difference_check
from meshseg.nn.loss import cross_entropy_loss
from meshseg.nn.network import NetworkConfig, SegmentationNetwork
from meshseg.pipeline.crops import CropConfig
from meshseg.pipeline.features import vertex_features
from meshseg.pipeline.infer import infer_scene
from meshseg.pipeline.toydata import NUM_TOY_CLASSES, make_toy_dataset, make_toy_scene
from meshseg.pipeline.train import TrainConfig, train

from conftest import random_mesh
from test_edgeconv import random_edge_set
from test_qem import quadric_cost, random_quadric_case, refine_grid_search
from test_vertex_clustering import brute_force_clustering, canonical


def report(criterion: int, message: str):
    print(f"[acceptance {criterion}] PASS: {message}")


# ----------------------------------------------------------- toy benchmark

TOY_HIER = HierarchyConfig(strategy="vc+qem", cells=(0.15,), qem_levels=3,
                           qem_pair_distance=0.15)
TOY_NEIGH = [NeighborhoodConfig(kind="radius", radius=r)
             for r in (0.25, 0.4, 0.8, 1.6)]
TOY_CROP = CropConfig(extent=3.6, stride=1.8)


def toy_network(arch: str, seed: int) -> SegmentationNetwork:
    if arch == "dual":
        widths = dict(geo_widths=((16, 8),) * 4, euc_widths=((16, 8),) * 4)
    else:
        widths = dict(geo_widths=((24, 16),) * 4, euc_widths=((0, 0),) * 4)
    return SegmentationNetwork(NetworkConfig(
        num_levels=4, num_classes=NUM_TOY_CLASSES, head_hidden=16,
        seed=seed, **widths,
    ))


def scene_accuracy(net, scene, res_threshold=25, seed=0):
    result = infer_scene(net, scene, TOY_HIER, TOY_NEIGH, TOY_CROP,
                         res_threshold=res_threshold, seed=seed)
    mask = scene.labels != UNLABELED
    return float((result.predictions[mask] == scene.labels[mask]).mean())


def mean_accuracy(net, scenes, res_threshold=25, seed=0):
    return float(np.mean([scene_accuracy(net, s, res_threshold, seed)
                          for s in scenes]))


@pytest.fixture(scope="module")
def toy_runs():
    """Train dual and geodesic-only networks over 5 seeds each."""
    scenes = make_toy_dataset(8)
    train_scenes, test_scenes = scenes[:6], scenes[6:]
    t0 = time.perf_counter()
    results = {"dual": [], "geo": [], "nets": {}}
    for arch in ("dual", "geo"):
        for seed in range(5):
            net = toy_network(arch, seed)
            train(net, train_scenes, TOY_HIER, TOY_NEIGH, TrainConfig(
                epochs=60, augment=False, crop=TOY_CROP, seed=seed,
            ))
            results[arch].append((
                mean_accuracy(net, train_scenes), mean_accuracy(net, test_scenes)
            ))
            if seed == 0:
                results["nets"][arch] = net
    results["elapsed"] = time.perf_counter() - t0
    results["test_scenes"] = test_scenes
    return results


# ------------------------------------------------------------------ criteria


def test_criterion_1_res_keep_rates():
    t0 = time.perf_counter()
    for T in (1, 15, 25):
        assert sampling_probability(2 * T, T) == 0.5  # exact, by construction
        for n in (T, T + 1, 2 * T, 3 * T):
            p = sampling_probability(n, T)
            num_vertices = int(np.ceil(1e5 / n))
            edges = EdgeSet([
                (i + 1 + np.arange(n)) % num_vertices
                for i in range(num_vertices)
            ])
            kept = res_sample(edges, T, seed=T * 1000 + n)
            total = num_vertices * n
            rate = sum(len(nb) for nb in kept.neighbors) / total
            sigma = np.sqrt(p * (1 - p) / total)
            assert abs(rate - p) <= 3 * sigma + 1e-12, (T, n, rate, p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(1, f"empirical keep rates within 3 sigma for all (T, n); "
              f"keep(2T) = 0.5 exactly ({elapsed:.1f}s)")


def test_criterion_2_pooling_oracles(rng):
    t0 = time.perf_counter()
    # Vertex clustering against the dictionary-based oracle.
    for _ in range(100):
        v = int(rng.integers(10, 501))
        mesh = random_mesh(rng, v, min(2 * v, 600))
        cell = float(rng.uniform(0.1, 0.6))
        coarse, trace = vertex_clustering_pool(mesh, cell)
        oracle_assign, centroids, oracle_edges = brute_force_clustering(mesh, cell)
        remapped = canonical(oracle_assign, trace.assignment)
        assert remapped is not None and np.array_equal(remapped, oracle_assign)
        first_member = {}
        for i, c in enumerate(trace.assignment):
            first_member.setdefault(int(c), i)
        edges = pooled_edge_set(geodesic_edge_set(mesh), trace)
        got = {
            (oracle_assign[first_member[i]], oracle_assign[first_member[j]])
            for i, nbrs in enumerate(edges.neighbors) for j in nbrs
        }
        assert got == oracle_edges

    # Quadric contraction cost against coarse-to-fine grid search.
    for _ in range(20):
        q, v1, v2 = random_quadric_case(rng)
        (vbar,), (cost,) = optimal_contractions(q[None], v1[None], v2[None])
        center = 0.5 * (v1 + v2)
        width = max(1.0, np.abs(np.stack([v1, v2, vbar]) - center).max() + 0.5)
        _, oracle_cost = refine_grid_search(q, center, width)
        assert abs(cost - oracle_cost) < 1e-3

    # Exact ceil on the 30% reduction ratio.
    for v in (17, 50, 121):
        mesh = random_mesh(rng, v, 2 * v)
        coarse, _ = qem_pool(mesh, 0.3, pair_distance_threshold=1.0)
        assert coarse.num_vertices == int(np.ceil(0.3 * v))

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, f"clustering, contraction-cost, and ratio oracles agree "
              f"({elapsed:.1f}s)")


def test_criterion_3_trace_algebra(rng):
    t0 = time.perf_counter()
    for _ in range(1000):
        fine = int(rng.integers(1, 51))
        coarse = int(rng.integers(1, fine + 1))
        assignment = np.concatenate([
            np.arange(coarse), rng.integers(0, coarse, fine - coarse)
        ])
        rng.shuffle(assignment)
        trace = PoolingTraceMap(assignment, coarse)
        trace.validate()  # total and surjective
        features = rng.normal(size=(coarse, 3))
        back = trace.mean(trace.gather(features))
        assert np.allclose(back, features, atol=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"pool(mean) o unpool = identity on 1000 random traces "
              f"({elapsed:.1f}s)")


def test_criterion_4_gradient_verification(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(20):
        v0 = int(rng.integers(50, 201))
        v1 = max(4, v0 // 4)
        net = SegmentationNetwork(NetworkConfig(
            num_levels=2, blocks_per_level=3, num_classes=4, input_width=9,
            geo_widths=((6, 4), (6, 4)), euc_widths=((6, 4), (6, 4)),
            head_hidden=5, seed=case,
        ))
        geo = [random_edge_set(rng, v0), random_edge_set(rng, v1)]
        euc = [random_edge_set(rng, v0), random_edge_set(rng, v1)]
        assignment = np.concatenate([np.arange(v1), rng.integers(0, v1, v0 - v1)])
        traces = [PoolingTraceMap(rng.permutation(assignment), v1)]
        features = rng.normal(size=(v0, 9))
        labels = rng.integers(0, 4, v0)
        labels[rng.random(v0) < 0.1] = UNLABELED

        def loss_fn():
            logits = net.forward(features, geo, euc, traces, train=True)
            return cross_entropy_loss(logits, labels)[0]

        logits = net.forward(features, geo, euc, traces, train=True)
        _, dlogits = cross_entropy_loss(logits, labels)
        net.zero_grad()
        net.backward(dlogits)
        rep = finite_difference_check(loss_fn, net.parameters(), tolerance=1e-4,
                                      max_entries_per_tensor=2,
                                      rng=np.random.default_rng(case))
        assert rep.passed, f"instance {case}:\n{rep}"
        worst = max(worst, rep.max_error)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(4, f"20 two-level dual networks pass finite differences, "
              f"max rel err {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_5_parameter_counts():
    t0 = time.perf_counter()
    dual = SegmentationNetwork(NetworkConfig.dual_default())
    single = SegmentationNetwork(NetworkConfig.single_default("geo"))
    assert dual.num_parameters() == 478933
    assert single.num_parameters() == 564949
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(5, f"default configs instantiate 478,933 and 564,949 parameters "
              f"({elapsed:.1f}s)")


def test_criterion_6_toy_segmentation(toy_runs):
    dual_train, dual_test = toy_runs["dual"][0]
    assert dual_train >= 0.99, f"dual train accuracy {dual_train:.4f}"
    assert dual_test >= 0.90, f"dual held-out accuracy {dual_test:.4f}"
    dual_mean = float(np.mean([t for _, t in toy_runs["dual"]]))
    geo_mean = float(np.mean([t for _, t in toy_runs["geo"]]))
    assert geo_mean < dual_mean, (
        f"geodesic-only mean held-out {geo_mean:.4f} not below dual {dual_mean:.4f}"
    )
    assert toy_runs["elapsed"] < 900.0
    report(6, f"dual train {dual_train:.4f} / held-out {dual_test:.4f}; "
              f"mean held-out over 5 seeds: dual {dual_mean:.4f} > "
              f"geodesic-only {geo_mean:.4f} ({toy_runs['elapsed']:.0f}s)")


DENSE_NEIGH = [NeighborhoodConfig(kind="radius", radius=r)
               for r in (0.5, 0.8, 1.6, 3.2)]


@pytest.fixture(scope="module")
def res_trend_net():
    """Dual network over dense neighborhoods, trained without heavy thinning.

    Dense radius graphs (mean degree ~30 at the finest level) make the
    edge-sampling threshold bite: thinning at T=15 discards roughly half
    of each oversized neighborhood, so accuracy has to be measured
    against real information loss rather than noise.
    """
    scenes = make_toy_dataset(8)
    net = toy_network("dual", 0)
    train(net, scenes[:6], TOY_HIER, DENSE_NEIGH, TrainConfig(
        epochs=30, res_threshold=35, augment=False, crop=TOY_CROP, seed=0,
    ))
    return net, scenes[6:]


def test_criterion_7_res_threshold_trend(res_trend_net):
    t0 = time.perf_counter()
    net, scenes = res_trend_net

    def mean_acc(T, seed):
        accs = []
        for scene in scenes:
            result = infer_scene(net, scene, TOY_HIER, DENSE_NEIGH, TOY_CROP,
                                 res_threshold=T, seed=seed)
            mask = scene.labels != UNLABELED
            accs.append(float((result.predictions[mask] == scene.labels[mask]).mean()))
        return float(np.mean(accs))

    m15 = float(np.mean([mean_acc(15, s) for s in range(10)]))
    m35 = float(np.mean([mean_acc(35, s) for s in range(10)]))
    assert m35 >= m15, f"T=35 mean {m35:.4f} < T=15 mean {m15:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(7, f"mean accuracy over 10 runs: T=35 {m35:.4f} >= T=15 {m15:.4f} "
              f"({elapsed:.1f}s)")


def test_criterion_8_translation_invariance(rng):
    t0 = time.perf_counter()
    # First layer: the relative convolution sees only coordinate differences.
    positions = rng.uniform(0, 2, size=(60, 3))
    edges = prepared_edges(random_edge_set(rng, 60))
    branch = EdgeConvBranch(3, 8, 6, rng, relative=True)
    base = branch.forward(positions, edges, train=False)
    shifted = branch.forward(positions + [123.4, -56.7, 89.0], edges, train=False)
    first_layer_diff = np.abs(base - shifted).max()
    assert first_layer_diff <= 1e-9

    # Full pipeline: identical hierarchy and logits after a global shift.
    scene = make_toy_scene(0)
    moved = scene.copy()
    moved.positions = scene.positions + np.array([8.0, -4.0, 2.0])
    cfg = HierarchyConfig(strategy="vc", cells=(0.25, 0.5, 1.0, 2.0))
    net = SegmentationNetwork(NetworkConfig(
        num_levels=4, blocks_per_level=1, num_classes=NUM_TOY_CLASSES,
        geo_widths=((8, 4),) * 4, euc_widths=((8, 4),) * 4, head_hidden=8,
    ))
    logits = []
    for mesh in (scene, moved):
        hier = build_hierarchy(mesh, cfg)
        hier.build_euclidean_edges(TOY_NEIGH)
        logits.append(net.forward(vertex_features(hier.levels[0]), hier.geodesic_edges,
                                  hier.euclidean_edges, hier.traces))
    logits_diff = np.abs(logits[0] - logits[1]).max()
    assert logits_diff <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(8, f"first layer diff {first_layer_diff:.1e}, full logits diff "
              f"{logits_diff:.1e} under global translation ({elapsed:.1f}s)")


def test_criterion_9_permutation_and_duplicate_invariance(rng):
    t0 = time.perf_counter()
    branch = EdgeConvBranch(3, 5, 4, rng)
    worst = 0.0
    for _ in range(1000):
        v = int(rng.integers(4, 11))
        edges = random_edge_set(rng, v, max_degree=3)
        x = rng.normal(size=(v, 3))
        base = branch.forward(x, prepared_edges(edges), train=False)
        permuted = EdgeSet([np.asarray(rng.permutation(n)) for n in edges.neighbors])
        doubled = EdgeSet([np.concatenate([n, n]) for n in edges.neighbors])
        for variant in (permuted, doubled):
            out = branch.forward(x, prepared_edges(variant), train=False)
            worst = max(worst, float(np.abs(out - base).max()))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(9, f"1000 instances invariant to neighbor order and duplication, "
              f"max diff {worst:.1e} ({elapsed:.1f}s)")
