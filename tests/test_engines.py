"""The cost model and the functional simulator count the same encoder.

For the toy config on every crossbar device, noise off, a forward pass
must perform the MACs and layer calls that the cost model charges for
the same reuse set.
"""

from collections import Counter

import numpy as np
import pytest

from xbarsim.config import ScenarioConfig
from xbarsim.funcsim import SimContext, make_toy_weights, model_forward, toy_config
from xbarsim.report import resolve_device
from xbarsim.workload import LayerKind, mac_count


class CountingContext(SimContext):
    """A ``SimContext`` that records the kind and MACs of every matmul."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.calls: Counter = Counter()
        self.macs = 0

    def matmul(self, x, w, kind):
        self.calls[kind] += 1
        self.macs += x.shape[0] * x.shape[1] * w.shape[1]
        return super().matmul(x, w, kind)


@pytest.mark.parametrize("reuse", [(), (1,), (2, 4, 6), (1, 2, 3)],
                         ids=lambda reuse: ",".join(map(str, reuse)) or "none")
@pytest.mark.parametrize("device", ["FeFET", "SRAM", "hybrid"])
def test_forward_counts_match_the_cost_model(device, reuse):
    cfg = toy_config()
    n, r = cfg.n_encoders, len(reuse)
    sc = ScenarioConfig()
    ctx = CountingContext(resolve_device(device, sc), sc.tiles(), device_noise=False)
    x = np.random.default_rng(1).standard_normal((cfg.t, cfg.d))
    result = model_forward(cfg, make_toy_weights(cfg), x, ctx, reuse)

    assert ctx.macs == mac_count(cfg, reuse)
    assert result.stats.attention_evals == n - r
    assert ctx.calls[LayerKind.TB_FC] == r
    for kind in (LayerKind.FC_PROJ, LayerKind.FC_MLP1, LayerKind.FC_MLP2):
        assert ctx.calls[kind] == n
