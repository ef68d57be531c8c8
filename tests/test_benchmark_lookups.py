"""The names the benchmark under ``perfbench/`` looks up in stochattn.

The benchmark wraps functions where their callers look them up and drives
the layer and the CLI through a few entry points; renaming or removing one
breaks the benchmark, not this package's own tests, so they are pinned here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import stochattn
from stochattn import attention, checks, cli, permute

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    layers = _tracing().LAYERS
    assert layers
    for owner, names in layers.items():
        module = importlib.import_module(f"{stochattn.__name__}.{owner}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{owner}.{name}"


def test_layer_draws_through_the_attention_global(monkeypatch):
    # the forward workloads record each draw by replacing this global
    assert attention.sample_permutation is permute.sample_permutation
    drawn = []

    def recording(n, rng):
        p = permute.sample_permutation(n, rng)
        drawn.append(p.forward)
        return p

    monkeypatch.setattr(attention, "sample_permutation", recording)
    cfg = stochattn.LayerConfig(4, 2, 3)
    gates = stochattn.GateParams(np.eye(4), np.eye(4))
    projections = tuple(np.eye(4) for _ in range(3))
    attention.dual_path_layer(np.ones((8, 4)), cfg, gates, stochattn.SeededRng(0), projections)
    assert len(drawn) == 1 and drawn[0].shape == (8,)


def test_entry_points_exist():
    assert stochattn.LayerConfig(4, 1, 2).rope_base > 0
    assert callable(cli.build_parser) and callable(cli.main)
    for name in ("attention", "permute", "LayerConfig", "GateParams", "SeededRng"):
        assert hasattr(stochattn, name), name


def test_smallworld_check_calls_the_traced_graph_metrics(monkeypatch):
    # the tracer counts calls of the public names: the ring graph's and each
    # seed's union graph's clustering and path length
    calls = {}
    for name in ("graph_clustering", "graph_path_length"):
        def counting(*args, _name=name, _fn=getattr(checks, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)

        monkeypatch.setattr(checks, name, counting)
    seeds = 3
    checks.smallworld(stochattn.SeededRng(0), n=64, w=8, seeds=seeds)
    assert calls == {"graph_clustering": 1 + seeds, "graph_path_length": 1 + seeds}
