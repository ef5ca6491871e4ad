import pytest

from xbarsim import (
    BlockTable,
    CostOptions,
    DeviceParams,
    ModelConfig,
    ModelCost,
    SoftmaxUnitParams,
    TileConfig,
    block_table,
    delay_ladder,
    load_cost_options,
    load_device_params,
    load_model_config,
    load_softmax_params,
    load_tile_config,
)


@pytest.fixture(scope="session")
def fefet() -> DeviceParams:
    return load_device_params("FeFET")


@pytest.fixture(scope="session")
def sram() -> DeviceParams:
    return load_device_params("SRAM")


@pytest.fixture(scope="session")
def tiles() -> TileConfig:
    return load_tile_config()


@pytest.fixture(scope="session")
def softmax_params() -> SoftmaxUnitParams:
    return load_softmax_params()


@pytest.fixture(scope="session")
def cost_opts() -> CostOptions:
    return load_cost_options()


@pytest.fixture(scope="session")
def deit() -> ModelConfig:
    return load_model_config("DeiT-S")


@pytest.fixture(scope="session")
def deit_table(deit, fefet, tiles, softmax_params, cost_opts) -> BlockTable:
    """DeiT-S on FeFET under the preset tiles, softmax unit and cost options."""
    return block_table(deit, fefet, tiles, softmax_params, cost_opts)


@pytest.fixture(scope="session")
def deit_ladder(deit_table) -> tuple[ModelCost, ...]:
    """The delay ladder of ``deit_table``: its model cost at every reuse count."""
    return delay_ladder(deit_table)


@pytest.fixture(scope="session")
def lvvit() -> ModelConfig:
    return load_model_config("LV-ViT-S")


@pytest.fixture(scope="session")
def deit_stem(deit) -> ModelConfig:
    from dataclasses import replace

    return replace(deit, include_stem=True)
