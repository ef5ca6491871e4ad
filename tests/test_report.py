import json
import os
from pathlib import Path

import pytest

from oracles import rows_from_json
from xbarsim.report import (
    CSV_HEADER,
    Scenario,
    emit,
    format_csv,
    report_meta,
    resolve,
    rows_to_json,
    run_scenario,
)

DEIT_SCENARIO = Scenario(
    name="deit_fefet",
    model="DeiT-S",
    device="FeFET",
    target_delays_ms=(9.0, 7.0, 6.0, 4.0),
    seed=0,
)

LV_SCENARIO = Scenario(
    name="lv_fefet",
    model="LV-ViT-S",
    device="FeFET",
    target_delays_ms=(12.0, 10.0, 9.0, 8.0, 6.0),
    seed=0,
)


@pytest.fixture(scope="module")
def deit_rows():
    return run_scenario(resolve(DEIT_SCENARIO))


@pytest.fixture(scope="module")
def deit_meta():
    return report_meta(resolve(DEIT_SCENARIO))


@pytest.fixture(scope="module")
def lv_rows():
    return run_scenario(resolve(LV_SCENARIO))


class TestRunScenario:
    def test_row_count_and_order(self, deit_rows):
        assert len(deit_rows) == 5
        assert deit_rows[0].pattern == "none"
        assert [r.target_delay_ms for r in deit_rows[1:]] == [9.0, 7.0, 6.0, 4.0]

    def test_baseline_reduction_exactly_one(self, deit_rows):
        assert deit_rows[0].edap_reduction == 1.0

    def test_deit_reuse_counts(self, deit_rows):
        assert [r.n_reuse for r in deit_rows] == [0, 3, 5, 7, 9]

    def test_deit_reductions_match_published(self, deit_rows):
        published = [1.6, 2.3, 3.5, 6.3]
        for row, ref in zip(deit_rows[1:], published):
            assert abs(row.edap_reduction / ref - 1.0) <= 0.10

    def test_lv_reductions_match_published(self, lv_rows):
        published = [1.64, 2.19, 2.57, 3.8, 5.57]
        assert [r.n_reuse for r in lv_rows[1:]] == [4, 6, 7, 9, 11]
        for row, ref in zip(lv_rows[1:], published):
            assert abs(row.edap_reduction / ref - 1.0) <= 0.10

    def test_empty_targets_baseline_only(self):
        rows = run_scenario(resolve(Scenario("base", "DeiT-S", "FeFET")))
        assert len(rows) == 1
        assert rows[0].pattern == "none"

    def test_infeasible_target_flagged_and_run_continues(self):
        rows = run_scenario(resolve(
            Scenario("inf", "DeiT-S", "FeFET", target_delays_ms=(1.0, 9.0))
        ))
        assert len(rows) == 3
        assert not rows[1].feasible
        assert rows[1].pattern == "infeasible"
        assert rows[1].edap is None
        assert rows[2].feasible and rows[2].n_reuse == 3

    def test_explicit_pattern_mode(self):
        rows = run_scenario(resolve(
            Scenario("exp", "DeiT-S", "FeFET", patterns="explicit:2,5,8")
        ))
        assert len(rows) == 2
        assert rows[1].pattern == "2+5+8"
        assert rows[1].n_reuse == 3

    def test_pattern_labels_are_valid_sets(self, deit_rows):
        for row in deit_rows[1:]:
            indices = [int(i) for i in row.pattern.split("+")]
            assert len(indices) == row.n_reuse
            assert 0 not in indices

    def test_hybrid_device_scenario(self):
        rows = run_scenario(resolve(Scenario("hyb", "DeiT-S", "hybrid")))
        assert rows[0].area_mm2 > 0

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError):
            Scenario("bad", "DeiT-S", "FeFET", target_delays_ms=(0.0,))

    def test_an_explicit_pattern_with_a_target_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="fixes the reuse set and takes no --target-delay"):
            Scenario("exp", "DeiT-S", "FeFET", (7.0,), patterns="explicit:2,5,8")


class TestEmission:
    def test_csv_header_exact(self, deit_rows):
        text = format_csv(deit_rows)
        assert text.splitlines()[0] == CSV_HEADER
        assert CSV_HEADER == (
            "scenario,model,device,n_reuse,pattern,energy_mJ,delay_ms,area_mm2,"
            "edap,tops_per_w,tops_per_mm2,edap_reduction"
        )

    def test_csv_row_shape(self, deit_rows):
        lines = format_csv(deit_rows).splitlines()
        assert len(lines) == len(deit_rows) + 1
        for line in lines[1:]:
            assert len(line.split(",")) == 12

    def test_json_round_trip(self, deit_rows, deit_meta):
        text = rows_to_json(deit_rows, deit_meta)
        back = rows_from_json(text)
        assert back == deit_rows

    def test_emit_writes_all_files(self, deit_rows, deit_meta, tmp_path):
        paths = emit(deit_rows, str(tmp_path), "deit", ("csv", "json"), meta=deit_meta)
        names = {os.path.basename(p) for p in paths}
        assert names == {"deit.csv", "deit_breakdown.csv", "deit.json"}
        for p in paths:
            assert os.path.exists(p)

    def test_byte_identical_reruns(self, tmp_path):
        def run(sub):
            inputs = resolve(DEIT_SCENARIO)
            rows = run_scenario(inputs)
            paths = emit(rows, str(tmp_path / sub), "r", ("csv", "json"),
                         meta=report_meta(inputs))
            return [Path(p).read_bytes() for p in paths]

        assert run("a") == run("b")

    def test_rows_keep_the_passed_scenario_and_name_the_costed_presets(self, deit_rows,
                                                                        tmp_path):
        """Targets, patterns and name come from the scenario resolved; the
        model and device named are the presets its config file chose."""
        user = tmp_path / "presets.ini"
        user.write_text("[model]\npreset = DeiT-S\n[device]\npreset = FeFET\n")
        targeted = Scenario(DEIT_SCENARIO.name, None, None, DEIT_SCENARIO.target_delays_ms,
                            config_path=str(user))
        assert run_scenario(resolve(targeted)) == deit_rows

    def test_unknown_format(self, deit_rows, deit_meta, tmp_path):
        # every format is checked before any file is written
        for formats, match in ((("xml",), "xml"), (("csv", "xml"), "xml"),
                               ((), "no report format"), (("csv", "csv"), "given twice")):
            with pytest.raises(ValueError, match=match):
                emit(deit_rows, str(tmp_path), "x", formats, meta=deit_meta)
            assert os.listdir(tmp_path) == []

    def test_meta_records_conventions(self, deit_meta):
        meta = deit_meta
        assert "accuracy" in meta["accuracy_note"]
        assert "tile" in meta["area_convention"]
        assert meta["scenario"]["model"] == "DeiT-S"

    def test_every_unit_names_a_csv_column(self, deit_meta):
        units = deit_meta["units"]
        assert units and set(units) <= set(CSV_HEADER.split(","))

    def test_breakdown_csv_contains_blocks(self, deit_rows, deit_meta, tmp_path):
        paths = emit(deit_rows, str(tmp_path), "bd", ("csv",), meta=deit_meta)
        bd = [p for p in paths if p.endswith("_breakdown.csv")][0]
        text = Path(bd).read_text()
        for block in ("attn", "mlp", "proj"):
            assert block in text
