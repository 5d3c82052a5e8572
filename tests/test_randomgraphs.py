from fractions import Fraction

import pytest

from ramseykit import ExperimentConfig, Graph, build_from_text, results_to_csv, run_experiment, sample_gnp
from ramseykit import randomgraphs
from ramseykit.graphs import VertexCapError
from ramseykit.randomgraphs import edge_uniforms, graph_from_uniforms

b = build_from_text


def test_p_zero_and_one():
    assert sample_gnp(8, 0.0, seed=1).edge_count == 0
    g = sample_gnp(8, 1.0, seed=1)
    assert g.edge_count == 8 * 7 // 2


def test_p_out_of_range():
    with pytest.raises(ValueError):
        sample_gnp(8, 1.5)


class _NoStream:
    def Random(self, key):
        raise AssertionError(f"seeded a stream for {key}")


def test_vertex_cap_is_checked_before_any_uniform_is_drawn(monkeypatch):
    # drawing 10^9 vertices' uniforms would not finish; the cap answers at
    # once, before any stream is seeded
    monkeypatch.setattr(randomgraphs, "random", _NoStream())
    with pytest.raises(VertexCapError):
        sample_gnp(10**9, 0.5)
    with pytest.raises(VertexCapError):
        sample_gnp(1025, 0.5)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_gnp(-1, 0.5)


def test_edge_uniforms_checks_the_vertex_count_before_drawing(monkeypatch):
    # no stream is seeded for a vertex count that no Graph may have, so
    # n = 10^9 raises at once instead of drawing C(n, 2) uniforms
    monkeypatch.setattr(randomgraphs, "random", _NoStream())
    with pytest.raises(ValueError, match="nonnegative"):
        edge_uniforms(0, -1, 0)
    with pytest.raises(VertexCapError):
        edge_uniforms(0, 1025, 0)
    with pytest.raises(VertexCapError):
        edge_uniforms(0, 10**9, 0)


def test_edge_count_mean_matches_binomial():
    # E[edges] = p * C(10,2) = 13.5; SE of the mean over 10^4 samples
    n, p, samples = 10, 0.3, 10**4
    total = sum(sample_gnp(n, p, seed=5, sample_index=i).edge_count for i in range(samples))
    mean = total / samples
    var = 45 * p * (1 - p)
    se = (var / samples) ** 0.5
    assert abs(mean - 13.5) <= 3 * se


@pytest.mark.parametrize("n", [3, 8, 12])
def test_graph_from_uniforms_matches_edge_list(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for seed in range(5):
        uniforms = edge_uniforms(seed, n, 0)
        for p in (0, 0.07, 0.35, 0.71, 1):
            want = Graph.from_edges(n, [e for e, x in zip(pairs, uniforms) if x < p])
            got = graph_from_uniforms(n, p, uniforms)
            assert got == want == Graph(got.n, got.adj)


def test_graph_from_uniforms_takes_one_uniform_per_pair():
    assert graph_from_uniforms(4, 0.5, [0.1] * 6) == Graph.complete(4)
    assert graph_from_uniforms(1, 0.5, []) == Graph.empty(1)
    for n, uniforms in ((4, [0.1]), (3, [0.1] * 10), (3, [0.1] * 4), (2, [])):
        with pytest.raises(ValueError, match="one per pair"):
            graph_from_uniforms(n, 0.5, uniforms)


def test_sampling_reproducible():
    a = sample_gnp(12, 0.4, seed=9, sample_index=3)
    c = sample_gnp(12, 0.4, seed=9, sample_index=3)
    assert a == c
    assert a != sample_gnp(12, 0.4, seed=9, sample_index=4)


def test_config_validation():
    K3 = b("K3")
    with pytest.raises(ValueError):
        ExperimentConfig(K3, K3, (2,), (1.0,), 5, 0)  # n below target order
    with pytest.raises(ValueError):
        ExperimentConfig(K3, K3, (10,), (1.0,), 0, 0)  # no samples
    with pytest.raises(ValueError):
        ExperimentConfig(K3, K3, (10,), (-1.0,), 5, 0)  # bad c
    with pytest.raises(ValueError, match="finite float"):
        ExperimentConfig(K3, K3, (10,), (10**400,), 5, 0)  # c with no float value
    with pytest.raises(ValueError):
        ExperimentConfig(K3, K3, (25,), (1.0,), 5, 0)  # beyond desk scale
    with pytest.raises(ValueError, match="isolated"):
        ExperimentConfig(b("K3+K1"), K3, (8,), (1.0,), 1, 0)  # target with an isolated vertex


@pytest.mark.parametrize("budget", [0, -1])
def test_config_rejects_a_budget_below_one(budget):
    # at construction, not at the first search
    K3 = b("K3")
    with pytest.raises(ValueError, match="node budget must be at least 1"):
        ExperimentConfig(K3, K3, (8,), (1.0,), 1, 0, node_budget=budget)
    assert ExperimentConfig(K3, K3, (8,), (1.0,), 1, 0, node_budget=1).node_budget == 1


def _small_config(**kw):
    defaults = dict(
        G=b("K3"),
        H=b("K3"),
        n_values=(7,),
        c_values=(0.5, 2.0),
        samples=25,
        seed=11,
        node_budget=10**6,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_experiment_tallies_conserved():
    results = run_experiment(_small_config())
    for r in results:
        assert r.hits + r.misses + r.unknowns == r.samples
        if r.unknowns < r.samples:
            assert 0.0 <= r.estimate <= 1.0


def test_coupled_monotonicity_exact():
    results = run_experiment(_small_config(c_values=(0.3, 1.0, 3.0)))
    by_c = sorted(results, key=lambda r: r.c)
    for lo, hi in zip(by_c, by_c[1:]):
        for a, bo in zip(lo.outcomes, hi.outcomes):
            if a is True:
                assert bo is True


def test_csv_byte_identical_across_runs():
    cfg = _small_config()
    csv1 = results_to_csv(run_experiment(cfg), cfg.seed)
    csv2 = results_to_csv(run_experiment(cfg), cfg.seed)
    assert csv1 == csv2
    assert csv1.splitlines()[0] == "n,c,p,samples,hits,misses,unknowns,estimate,seed"


def test_unknowns_counted_not_guessed():
    results = run_experiment(_small_config(c_values=(2.0,), node_budget=1))
    (r,) = results
    assert r.unknowns == r.samples
    assert r.hits == 0 and r.misses == 0
    assert r.untrusted


def test_output_order_fixed_by_n_then_c():
    cfg = _small_config(c_values=(2.0, 0.5))
    results = run_experiment(cfg)
    assert [r.c for r in results] == [0.5, 2.0]


def test_c_values_given_as_text_run_like_their_floats():
    # the config holds each c as a Fraction, so run_experiment parses nothing
    cfg = _small_config(c_values=("1/2", "2"))
    assert cfg.c_values == (Fraction(1, 2), Fraction(2))
    as_floats = _small_config(c_values=(0.5, 2.0))
    assert results_to_csv(run_experiment(cfg), cfg.seed) == results_to_csv(run_experiment(as_floats), cfg.seed)


def test_n_values_are_read_once_and_held_as_a_tuple():
    # an iterator is not spent by the checks, and a list makes a hashable
    # config equal to the one built from a tuple
    K3 = b("K3")
    cfg = ExperimentConfig(K3, K3, iter([6, 7]), (1,), 3, 1)
    assert cfg.n_values == (6, 7)
    from_list = ExperimentConfig(K3, K3, [6, 7], (1,), 3, 1)
    assert cfg == from_list == ExperimentConfig(K3, K3, (6, 7), (1,), 3, 1)
    assert hash(cfg) == hash(from_list)
    assert [r.n for r in run_experiment(cfg)] == [6, 7]


def test_pair_density_computed_once_per_run(monkeypatch):
    import ramseykit.randomgraphs as rg
    from ramseykit import threshold_p

    real_m2_pair = rg.m2_pair
    calls = []

    def counting_m2_pair(G, H):
        calls.append((G, H))
        return real_m2_pair(G, H)

    monkeypatch.setattr(rg, "m2_pair", counting_m2_pair)
    cfg = _small_config(n_values=(6, 7), c_values=(0.5, 1.0, 2.0), samples=3)
    results = run_experiment(cfg)
    assert len(results) == 6
    assert len(calls) == 1
    for r in results:
        assert r.p == threshold_p(cfg.G, cfg.H, r.n, r.c)
