"""The cost model and the functional simulator count the same encoder.

For the toy config on every crossbar device, noise off, a forward pass
must perform the MACs and layer calls that the cost model charges for
the same reuse set, and program ``DIFFERENTIAL_ARRAYS`` times the
single-ended crossbars the cost model maps for each layer.
"""

from collections import Counter, defaultdict

import numpy as np
import pytest

import xbarsim.funcsim.forward as forward
from xbarsim.config import ScenarioConfig
from xbarsim.funcsim import SimContext, make_toy_weights, model_forward, toy_config
from xbarsim.mapping import DIFFERENTIAL_ARRAYS, crossbars_for_layer, device_for
from xbarsim.report import resolve_device
from xbarsim.workload import (
    LayerKind,
    attention_layers,
    ffn_layers,
    mac_count,
    tb_layer,
)


class CountingContext(SimContext):
    """A ``SimContext`` that records the kind and MACs of every matmul.

    ``crossbars`` holds, by layer kind, the crossbar count of every
    matrix programmed; the test's ``program_matrix`` wrapper fills it
    under the kind of the matmul in progress.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self.calls: Counter = Counter()
        self.macs = 0
        self.crossbars: defaultdict[LayerKind, list[int]] = defaultdict(list)
        self.kind: LayerKind | None = None

    def matmul(self, x, w, kind):
        self.calls[kind] += 1
        self.macs += x.shape[0] * x.shape[1] * w.shape[1]
        self.kind = kind
        return super().matmul(x, w, kind)


FFN_KINDS = (LayerKind.FC_PROJ, LayerKind.FC_MLP1, LayerKind.FC_MLP2)


@pytest.mark.parametrize("reuse", [(), (1,), (2, 4, 6), (1, 2, 3)],
                         ids=lambda reuse: ",".join(map(str, reuse)) or "none")
@pytest.mark.parametrize("device", ["FeFET", "SRAM", "hybrid"])
def test_forward_counts_match_the_cost_model(device, reuse, monkeypatch):
    cfg = toy_config()
    n, r = cfg.n_encoders, len(reuse)
    sc = ScenarioConfig()
    ctx = CountingContext(resolve_device(device, sc), sc.tiles(), device_noise=False)
    program = forward.program_matrix

    def program_matrix(*args, **kwargs):
        pm = program(*args, **kwargs)
        ctx.crossbars[ctx.kind].append(pm.n_crossbars)
        return pm

    monkeypatch.setattr(forward, "program_matrix", program_matrix)
    x = np.random.default_rng(1).standard_normal((cfg.t, cfg.d))
    result = model_forward(cfg, make_toy_weights(cfg), x, ctx, reuse)

    assert ctx.macs == mac_count(cfg, r)
    assert result.stats.attention_evals == n - r
    assert ctx.calls[LayerKind.TB_FC] == r
    for kind in FFN_KINDS:
        assert ctx.calls[kind] == n

    layers = {layer.kind: layer
              for layer in (*attention_layers(cfg), *ffn_layers(cfg), tb_layer(cfg))}
    assert set(ctx.crossbars) == set(layers) - ({LayerKind.TB_FC} if r == 0 else set())
    for kind, programmed in ctx.crossbars.items():
        layer = layers[kind]
        mapped = crossbars_for_layer(layer, ctx.tiles, device_for(kind, ctx.assignment),
                                     cfg.weight_bits)
        if kind is LayerKind.TB_FC:
            evals = r
        elif kind in FFN_KINDS:
            evals = n
        else:  # Q, K, V and the per-head matmuls run at every attention evaluation
            evals = n - r
        assert len(programmed) == evals * layer.copies
        assert programmed == [DIFFERENTIAL_ARRAYS * mapped.n_xbar_physical] * len(programmed)
