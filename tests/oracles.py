"""Independent spelled-out arithmetic oracles shared by the test suite.

These deliberately avoid the library's aggregation helpers: every cost
term is written out longhand so the implementation is checked against
a second, hand-evaluated derivation. The crossbar oracles are the
straightforward engine: one read per (bit-plane, input sign, row tile,
column tile, slice, weight sign) and one Gaussian per read and per cell;
``oracle_cell_digits`` and ``oracle_bit_planes`` slice weights and
inputs one slice or bit-plane at a time, and ``oracle_identity_rows``
checks every reachable level sum of every popcount one count at a time.
The pattern and CKA oracles are the brute-force search: every
(family, sl, n_cont, start) is generated, every explicit reuse set of a
count is listed (``all_explicit_patterns``), and every CKA pair centers
both operands and forms their Gram matrices from scratch (the
feature-space form is a second, independent CKA oracle). The reuse-set
rules the library states once on arrays have their one-pattern
references here: ``reuse_sources`` walks back to each reuser's source,
``select_best`` takes the minimal (score, reuse set). ``rows_from_json``
reads a report document back into rows.
"""

import itertools
import json
import math

import numpy as np

from xbarsim.cost import CostOptions, SoftmaxUnitParams
from xbarsim.funcsim.crossbar import CrossbarState, NoiseModel
from xbarsim.mapping import DeviceKind, DeviceParams, TileConfig
from xbarsim.patterns import PatternKind, ReusePattern, explicit_pattern
from xbarsim.report import CSV_COLUMNS, ReportRow
from xbarsim.workload import ModelConfig, attention_layers, ffn_layers, tb_layer


def oracle_model_cost(cfg, dev, tiles, sp, opts, n_reuse):
    """Hand-evaluated model aggregation -> (energy_mJ, delay_ms, area_mm2)."""
    cycles = cfg.input_bits // cfg.input_split_bits
    pe = tiles.n_xbar_per_pe if opts.read_delay_pe_factor else 1
    per_tile = tiles.n_xbar_per_pe * tiles.n_pe_per_tile

    def n_phys(in_dim, out_dim, copies=1):
        logical = math.ceil(in_dim / tiles.xbar_size) * math.ceil(out_dim / tiles.xbar_size)
        return logical * math.ceil(cfg.weight_bits / dev.bits_per_cell) * copies

    def area(n):
        if opts.pad_to_tiles:
            n = math.ceil(n / per_tile) * per_tile
        return n * dev.a_xbar_mm2

    def read_e(t_l, n):
        return t_l * n * dev.e_read_xbar_pj * cycles / 1e6

    def read_d(t_l):
        return t_l * dev.d_read_xbar_us * pe * cycles

    d, t, h = cfg.d, cfg.t, cfg.n_heads
    d_h = d // h
    n_fc = n_phys(d, d)
    n_qkt = n_phys(d_h, t, copies=h)
    n_sv = n_phys(t, d_h, copies=h)
    e_attn = (
        3 * read_e(t, n_fc)
        + read_e(t, n_qkt) + n_qkt * dev.e_write_xbar_pj / 1e6
        + read_e(t, n_sv) + n_sv * dev.e_write_xbar_pj / 1e6
        + h * t * t * (sp.e_select_pj + sp.e_exponent_pj + sp.e_div_pj) / 1e6
    )
    d_attn = (
        5 * read_d(t)
        + 2 * dev.d_write_xbar_us * pe
        + t * t * (sp.d_select_ns + sp.d_exponent_ns + sp.d_div_ns) / 1e3
    )
    a_attn = 3 * area(n_fc) + area(n_qkt) + area(n_sv)

    n_mlp1 = n_phys(d, cfg.mlp_dim)
    n_mlp2 = n_phys(cfg.mlp_dim, d)
    e_proj, d_proj, a_proj = read_e(t, n_fc), read_d(t), area(n_fc)
    e_mlp = read_e(t, n_mlp1) + read_e(t, n_mlp2) + opts.vec_energy_uj
    d_mlp = 2 * read_d(t) + opts.vec_delay_us
    a_mlp = area(n_mlp1) + area(n_mlp2)

    if opts.tb_on_crossbars:
        e_tb, d_tb, a_tb = read_e(t, n_fc), read_d(t), area(n_fc)
    else:
        e_tb, d_tb, a_tb = opts.tb_energy_uj, opts.tb_delay_us, opts.tb_area_mm2

    e_stem = d_stem = a_stem = 0.0
    if cfg.include_stem:
        n_patch = n_phys(cfg.stem_in_dim, d)
        n_cls = n_phys(d, cfg.n_classes)
        e_stem = read_e(t, n_patch) + read_e(1, n_cls)
        d_stem = read_d(t) + read_d(1)
        a_stem = area(n_patch) + area(n_cls)

    n, r = cfg.n_encoders, n_reuse
    e = n * (e_mlp + e_proj) + (n - r) * e_attn + r * e_tb + e_stem
    dd = n * (d_mlp + d_proj) + (n - r) * d_attn + r * d_tb + d_stem
    a = n * (a_mlp + a_proj) + (n - r) * a_attn + r * a_tb + a_stem
    return e / 1e3, dd / 1e3, a


def oracle_layer_rows(t_l, n_phys, dev, tiles, cycles, written, pe_on=True):
    """Per-layer cost rows -> (e_read_uj, e_write_uj, d_read_us, d_write_us)."""
    pe = tiles.n_xbar_per_pe if pe_on else 1
    e_read = t_l * n_phys * dev.e_read_xbar_pj * cycles / 1e6
    d_read = t_l * dev.d_read_xbar_us * pe * cycles
    e_write = n_phys * dev.e_write_xbar_pj / 1e6 if written else 0.0
    d_write = dev.d_write_xbar_us * pe if written else 0.0
    return e_read, e_write, d_read, d_write


def oracle_softmax_rows(t, n_heads, sp):
    """Softmax unit rows -> (energy_uJ, delay_us)."""
    e = n_heads * t * t * (sp.e_select_pj + sp.e_exponent_pj + sp.e_div_pj) / 1e6
    d = t * t * (sp.d_select_ns + sp.d_exponent_ns + sp.d_div_ns) / 1e3
    return e, d


def random_setup(rng):
    """One random (cfg, device, tiles, softmax, options) tuple."""
    heads = rng.choice([1, 2, 4, 6, 8])
    cfg = ModelConfig(
        "rand",
        d=heads * rng.choice([16, 32, 64]),
        t=rng.randint(8, 256),
        mlp_ratio=rng.choice([1, 2, 3, 4]),
        n_encoders=rng.randint(1, 16),
        n_heads=heads,
        weight_bits=rng.choice([4, 8]),
        input_bits=8,
        input_split_bits=rng.choice([1, 2, 8]),
        include_stem=rng.random() < 0.5,
    )
    dev = DeviceParams(
        DeviceKind.FEFET,
        bits_per_cell=rng.choice([1, 2, 4]),
        e_read_xbar_pj=rng.uniform(1, 100),
        e_write_xbar_pj=rng.uniform(1, 300),
        d_read_xbar_us=rng.uniform(0.001, 0.1),
        d_write_xbar_us=rng.uniform(0.1, 5),
        a_xbar_mm2=rng.uniform(0.01, 0.1),
    )
    tiles = TileConfig(
        xbar_size=rng.choice([32, 64, 128]),
        n_xbar_per_pe=rng.choice([4, 8]),
        n_pe_per_tile=rng.choice([4, 8]),
    )
    sp = SoftmaxUnitParams(*(rng.uniform(0.1, 10) for _ in range(6)))
    opts = CostOptions(
        pad_to_tiles=rng.random() < 0.5,
        read_delay_pe_factor=rng.random() < 0.5,
        tb_on_crossbars=rng.random() < 0.5,
        tb_energy_uj=rng.uniform(0, 1),
        tb_delay_us=rng.uniform(0, 50),
        tb_area_mm2=rng.uniform(0, 5),
        vec_energy_uj=rng.uniform(0, 1),
        vec_delay_us=rng.uniform(0, 30),
    )
    return cfg, dev, tiles, sp, opts


def oracle_read_currents(state, bit_rows, noise=NoiseModel(), rng=None):
    """Column currents with read noise drawn densely for every cell of every read."""
    bits = np.asarray(bit_rows, dtype=np.float64)
    if bits.ndim == 1:
        bits = bits[None, :]
    g = state.conductances
    if noise.read_var == 0.0:
        return bits @ g
    dev = state.device
    eps = rng.normal(0.0, noise.read_var, size=(bits.shape[0],) + g.shape)
    if noise.multiplicative:
        g_read = g[None, :, :] * (1.0 + eps)
    else:
        g_read = g[None, :, :] + eps * (dev.g_max - dev.g_min)
    g_read = np.clip(g_read, dev.g_min, dev.g_max)
    return np.einsum("nr,nrc->nc", bits, g_read)


def oracle_cell_digits(w_int, n_slices, bits_per_cell):
    """Cell digits of a signed matrix, columns ordered (slice, sign, column), slice by slice."""
    w_int = np.asarray(w_int, dtype=np.int64)
    rows, cols = w_int.shape
    mask = (1 << bits_per_cell) - 1
    digits = np.zeros((rows, n_slices, 2, cols), dtype=np.int64)
    for k in range(n_slices):
        for sign, part in enumerate((np.maximum(w_int, 0), np.maximum(-w_int, 0))):
            digits[:, k, sign] = (part >> (k * bits_per_cell)) & mask
    return digits.reshape(rows, -1)


def oracle_bit_planes(x_int):
    """Every bit-plane of both input signs, plane by plane: bits, input row, plane weight."""
    n, in_dim = x_int.shape
    bits, rows, weights = [], [], []
    for in_sign, xs in ((1, np.maximum(x_int, 0)), (-1, np.maximum(-x_int, 0))):
        for plane in range(int(xs.max()).bit_length()):
            bits.append(((xs >> plane) & 1).astype(np.bool_))
            rows.extend(range(n))
            weights.extend([float(in_sign << plane)] * n)
    return (
        np.concatenate(bits) if bits else np.zeros((0, in_dim), dtype=np.bool_),
        np.array(rows, dtype=np.int64),
        np.array(weights, dtype=np.float64),
    )


def oracle_tile(pm, row_block, col_block, k, sign):
    """The crossbar of ``pm`` holding slice ``k`` of one sign's part of one tile."""
    if not (0 <= row_block < len(pm.stripes) and 0 <= col_block < pm.col_blocks
            and 0 <= k < pm.n_slices and sign in (0, 1)):
        raise IndexError(f"no crossbar {(row_block, col_block, k, sign)}")
    g = pm.stripes[row_block].conductances.reshape(-1, pm.n_slices, 2, pm.shape[1])
    x = pm.xbar_size
    return CrossbarState(g[:, k, sign, col_block * x:(col_block + 1) * x], pm.device)


def oracle_count(dev, xbar_size, adc_bits, p, k):
    """ADC count of p set rows whose cell levels sum to k, from the exact current."""
    full_scale = xbar_size * dev.g_max
    n_levels = 2**adc_bits - 1
    delta_g = (dev.g_max - dev.g_min) / (2**dev.bits_per_cell - 1)
    current = p * dev.g_min + k * delta_g
    code = np.clip(np.rint(current / full_scale * n_levels), 0, n_levels)
    return np.rint((code * full_scale / n_levels - dev.g_min * p) / delta_g)


def oracle_identity_rows(dev, xbar_size, adc_bits, rows):
    """Whether every level sum a read of p set rows can reach counts as itself, by p."""
    levels = 2**dev.bits_per_cell - 1
    return np.array([
        all(oracle_count(dev, xbar_size, adc_bits, p, k) == k for k in range(p * levels + 1))
        for p in range(rows + 1)
    ])


def oracle_mvm_bitserial(pm, x_int, noise=NoiseModel(), rng=None):
    """Bit-serial product read crossbar by crossbar through ``oracle_tile``.

    A noise-free read of a matrix written without noise is decoded by
    ``oracle_count`` of each column's level sum; any other read by the
    ADC code of its float current.
    """
    x_int = np.asarray(x_int, dtype=np.int64)
    if x_int.ndim == 1:
        x_int = x_int[None, :]
    in_dim, out_dim = pm.shape
    dev, xsz = pm.device, pm.xbar_size
    full_scale = xsz * dev.g_max
    n_levels = 2**noise.adc_bits - 1
    delta_g = (dev.g_max - dev.g_min) / (2**dev.bits_per_cell - 1)
    acc = np.zeros((x_int.shape[0], out_dim), dtype=np.float64)

    for in_sign, xs in ((1, np.maximum(x_int, 0)), (-1, np.maximum(-x_int, 0))):
        if not xs.any():
            continue
        for plane in range(int(xs.max()).bit_length()):
            bits = ((xs >> plane) & 1).astype(np.float64)
            for rb in range(math.ceil(in_dim / xsz)):
                slab = bits[:, rb * xsz: min((rb + 1) * xsz, in_dim)]
                if not slab.any():
                    continue
                popcount = slab.sum(axis=1)
                for cb in range(math.ceil(out_dim / xsz)):
                    cols = slice(cb * xsz, min((cb + 1) * xsz, out_dim))
                    for k in range(pm.n_slices):
                        slice_weight = 1 << (k * pm.device.bits_per_cell)
                        for w_sign, sgn in ((0, 1), (1, -1)):
                            tile = oracle_tile(pm, rb, cb, k, w_sign)
                            if pm.level_stripes is not None and noise.read_var == 0.0:
                                cell_levels = np.rint((tile.conductances - dev.g_min) / delta_g)
                                counts = oracle_count(dev, xsz, noise.adc_bits,
                                                      popcount[:, None], slab @ cell_levels)
                            else:
                                currents = oracle_read_currents(tile, slab, noise, rng)
                                codes = np.clip(
                                    np.rint(currents / full_scale * n_levels), 0, n_levels
                                )
                                i_hat = codes * full_scale / n_levels
                                counts = np.rint(
                                    (i_hat - dev.g_min * popcount[:, None]) / delta_g
                                )
                            acc[:, cols] += (
                                in_sign * sgn * (1 << plane) * slice_weight
                            ) * counts
    return np.rint(acc).astype(np.int64)


ALL_FAMILIES = (PatternKind.STRIDED, PatternKind.CONTINUOUS, PatternKind.PYRAMID)


def _pyramid_steps(n_reuse, n_cont, sl):
    """Step sizes between consecutive reusing indices.

    Positions [prefix, prefix + n_cont) form the continuous run; a step
    is 1 only when both endpoints lie inside the run.
    """
    prefix = (n_reuse - n_cont + 1) // 2
    run = range(prefix, prefix + n_cont)
    return [1 if (i - 1) in run and i in run else sl for i in range(1, n_reuse)]


def _materialize(start, steps, n_encoders):
    indices = [start]
    for step in steps:
        indices.append(indices[-1] + step)
    if indices[-1] >= n_encoders:
        return None
    return tuple(indices)


def gen_strided(n_encoders, n_reuse, sl, start):
    """{start, start+sl, ...}; None when it does not fit."""
    if n_reuse < 1 or sl < 2 or start < 1:
        return None
    indices = _materialize(start, [sl] * (n_reuse - 1), n_encoders)
    if indices is None:
        return None
    return ReusePattern(PatternKind.STRIDED, n_encoders, indices, sl=sl, start=start)


def gen_continuous(n_encoders, n_reuse, start):
    if n_reuse < 1 or start < 1:
        return None
    indices = _materialize(start, [1] * (n_reuse - 1), n_encoders)
    if indices is None:
        return None
    return ReusePattern(PatternKind.CONTINUOUS, n_encoders, indices, start=start)


def gen_pyramid(n_encoders, n_reuse, sl, n_cont, start):
    if n_reuse < 1 or sl < 2 or start < 1 or not 0 <= n_cont <= n_reuse:
        return None
    indices = _materialize(start, _pyramid_steps(n_reuse, n_cont, sl), n_encoders)
    if indices is None:
        return None
    return ReusePattern(
        PatternKind.PYRAMID, n_encoders, indices, sl=sl, n_cont=n_cont, start=start
    )


def oracle_enumerate_patterns(n_encoders, n_reuse, families=ALL_FAMILIES):
    """Every (family, sl, n_cont, start) in order; the first of each set is kept."""
    wanted = set(families)
    seen = {}

    def keep(p):
        if p is not None and p.reuse_set not in seen:
            seen[p.reuse_set] = p

    if PatternKind.STRIDED in wanted:
        for sl in range(2, n_encoders):
            for start in range(1, n_encoders):
                keep(gen_strided(n_encoders, n_reuse, sl, start))
    if PatternKind.CONTINUOUS in wanted:
        for start in range(1, n_encoders):
            keep(gen_continuous(n_encoders, n_reuse, start))
    if PatternKind.PYRAMID in wanted:
        for sl in range(2, n_encoders):
            for n_cont in range(0, n_reuse + 1):
                for start in range(1, n_encoders):
                    keep(gen_pyramid(n_encoders, n_reuse, sl, n_cont, start))
    return [seen[key] for key in sorted(seen)]


def all_explicit_patterns(n_encoders, n_reuse):
    """Brute-force C(n_encoders-1, n_reuse) patterns."""
    return [
        explicit_pattern(n_encoders, combo)
        for combo in itertools.combinations(range(1, n_encoders), n_reuse)
    ]


def reuse_sources(reuse_set):
    """Map each reusing index to the nearest preceding non-reuser."""
    members = frozenset(reuse_set)
    sources = {}
    for i in sorted(members):
        src = i - 1
        while src in members:
            src -= 1
        if src < 0:
            raise ValueError("encoder 0 cannot reuse attention")
        sources[i] = src
    return sources


def select_best(candidates, scorer):
    """Argmin of the scorer; ties break to the smallest reuse set."""
    if not candidates:
        raise ValueError("no candidate patterns to select from")
    return min(candidates, key=lambda p: (scorer(p), p.reuse_set))


def rows_from_json(text):
    """The ``ReportRow``s of a report JSON document, whose row keys are
    the CSV headers."""
    fields = {header: field for header, field, *_ in CSV_COLUMNS}
    return [ReportRow(**{fields.get(k, k): v for k, v in r.items()})
            for r in json.loads(text)["rows"]]


def _centered(a):
    a = np.asarray(a, dtype=np.float64)
    return a - a.mean(axis=0, keepdims=True)


def oracle_cka_score(a, b):
    """Linear CKA of one pair in sample space, from both operands' t x t
    Gram matrices formed on every call: <Ka, Kb> / (||Ka|| ||Kb||), each
    a row sum of elementwise products."""
    ac, bc = _centered(a), _centered(b)
    ka, kb = ac @ ac.T, bc @ bc.T
    cross = (ka * kb).sum()
    norm_a = np.sqrt((ka * ka).sum())
    norm_b = np.sqrt((kb * kb).sum())
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(cross / (norm_a * norm_b))


def oracle_cka_score_feature_space(a, b):
    """Linear CKA of one pair in feature space:
    ||Bc^T Ac||^2 / (||Ac^T Ac|| ||Bc^T Bc||)."""
    ac, bc = _centered(a), _centered(b)
    cross = np.linalg.norm(bc.T @ ac, "fro") ** 2
    norm_a = np.linalg.norm(ac.T @ ac, "fro")
    norm_b = np.linalg.norm(bc.T @ bc, "fro")
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(cross / (norm_a * norm_b))


def oracle_cka_scorer(attention_outputs):
    """Sum over reusers of 1 - CKA(source, reuser), one raw-array pair at a time."""
    outputs = [np.asarray(a) for a in attention_outputs]
    pair_cache = {}

    def score(pattern):
        total = 0.0
        for i, src in reuse_sources(pattern.reuse_set).items():
            if (src, i) not in pair_cache:
                pair_cache[(src, i)] = oracle_cka_score(outputs[src], outputs[i])
            total += 1.0 - pair_cache[(src, i)]
        return total

    return score


def encoder_layers(cfg, reuses=False):
    """The layers of one encoder, from the per-group layer builders."""
    attention = (tb_layer(cfg),) if reuses else attention_layers(cfg)
    return attention + ffn_layers(cfg)
