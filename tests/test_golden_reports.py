"""Golden digests: simulate and compare reports over every shipped preset
pair, the funcsim output and summary on every crossbar device, and one
optimize patterns file.

Each case runs one CLI command and pins the sha256 of the three report
files it writes (CSV, breakdown CSV, JSON). A change that is meant to
alter the reports must say so where it is described; any other change
must leave these digests as they are.

Each pair gets one feasible and one infeasible delay target, both below
the pair's baseline delay, so every report mixes a costed reuse row with
an infeasible one.
"""

import hashlib

import pytest

from xbarsim.cli import main

# (model, device) -> (feasible target ms, infeasible target ms)
TARGETS = {
    ("DeiT-S", "FeFET"): ("7", "1.5"),
    ("DeiT-S", "SRAM"): ("6", "1.5"),
    ("DeiT-S", "hybrid"): ("6.5", "1.5"),
    ("LV-ViT-S", "FeFET"): ("9", "2"),
    ("LV-ViT-S", "SRAM"): ("8", "2"),
    ("LV-ViT-S", "hybrid"): ("8.5", "2"),
    ("BERT-Base", "FeFET"): ("4", "1"),
    ("BERT-Base", "SRAM"): ("3.5", "1"),
    ("BERT-Base", "hybrid"): ("3.5", "1"),
}

SUFFIXES = (".csv", "_breakdown.csv", ".json")

# (command, model, device) -> sha256 of (CSV, breakdown CSV, JSON)
GOLDEN = {
    ('simulate', 'DeiT-S', 'FeFET'): (
        "0ac727142edeab801546830d49585fb75f72e6689479792650d6153dd27bdf73",
        "6578816323d2bf72a5fd4f16a4356e7cfc4d92ca00fe84dafba657dd92b046ee",
        "e3e9af714784739101fc83da406d64279a4212c0e0cdd818e1aa7866c5e35e51",
    ),
    ('simulate', 'DeiT-S', 'SRAM'): (
        "3352bbd5388e118d13fe197d3d03a7607e71a1653a48b245cd6fbb0f88306de8",
        "ec1f3ee9fa580746b0dedca35e57fabe4a74e4ba7e4aad82cf41bf79380a3789",
        "43feedda420f33f6f27d71e9eac344f1e9e1bc204a127d34c90bb39048870f23",
    ),
    ('simulate', 'DeiT-S', 'hybrid'): (
        "d45f395edf7479d66c0bbdec49bab80247105ce6adb8b3cd50a0560c00ab7ec4",
        "61f4d70dc5495ce4c95e5dbd5f18d4baeb35ed21eae037673b6c8e67e8596684",
        "e52602533403016405c80c0399f637638cee2c1f9485ac268795d985313667c9",
    ),
    ('simulate', 'LV-ViT-S', 'FeFET'): (
        "b4a857c82573343f41789e3d34a4dd8a41fc90e354f07ae0cbb8437e3da22cc0",
        "b526572dd59bd5b23160db9619030ea55fba4869b5878c14528b8b659a850cb6",
        "f8a2061cc8e2b01d41e8005abe7af643425e3043d0d99c9f05d455586ccbf0df",
    ),
    ('simulate', 'LV-ViT-S', 'SRAM'): (
        "743bc0247f26b204ff32895446413869e174be836c786d5da2c6f3569b4623c3",
        "bbfb53cb2d75d383aec3e2bfd32dcfcaa17fc1e7501eb67d3abd740fcdb757c2",
        "1552b5f250cbc5ff0a18bdb05a507dbefdb3acf69b2ad352eb6903ad39e1efad",
    ),
    ('simulate', 'LV-ViT-S', 'hybrid'): (
        "081e0aed02f4b362968644328a6ce096ba7a088f77dfbc6ececd4d7576d44bf9",
        "ad9742c339fc0739141645fa980aa48211994120ea6ce2637ca59e43b27d4b1f",
        "47ebe84de0dd140e83f78c57a382e0b390671a4e76c18b92ed559c87f0f81da2",
    ),
    ('simulate', 'BERT-Base', 'FeFET'): (
        "2b43acfe6b081fccd9ce624bb2879d1a13fd37dfe3f11433fa36ebb4a14af4b8",
        "d7088a2167583820f91ee414bd1177a8773a7edab3b86d2ee0180c74a71d887c",
        "04b88c19b51f6bd30a512fdb1955288670f0f0379b12294225e071f3dc35b192",
    ),
    ('simulate', 'BERT-Base', 'SRAM'): (
        "6e00909ff4b993fe7cbdcd4bb182c41dfe3bc5046dba59cfbc97320bea14a450",
        "f621a818ec5e5668b36ec8690e9f07ccf910d9460ee71cf2449bd612f7a02ed0",
        "defc132e7813f5d6f8132291ca58b6fb3546f934468bfa869b73d03142b6ac76",
    ),
    ('simulate', 'BERT-Base', 'hybrid'): (
        "df69d7b006332491abca341bfbefaf02bac467cd761a95baa6afbed883d20d85",
        "a32353614bb6dbbdcb200e1c4eeca8871030115142d34a0812b2c575dd4c037d",
        "8f43f6df6b94abc189dd80bd2f79aa3102c4df4dabdf77ff02fe27e3bb959638",
    ),
    ('compare', 'DeiT-S', 'FeFET'): (
        "de1bb9e906ab3c836cf0dcab05fe9a49d60bc0db1047307e0df4c50109e79e25",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "ab86c673766ad42d9d661a87401c0f07eb857b4bbd5d80762d8154c466fbc0eb",
    ),
    ('compare', 'DeiT-S', 'SRAM'): (
        "4237f47743d5757e03fe6d50651aa25aefa873ff891591e3ab9575a34846b3b1",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "a72915b0c35595dd2f644fc625e6669d3bd36db680dad4ffdda7a09e97086ee6",
    ),
    ('compare', 'DeiT-S', 'hybrid'): (
        "63a5c3d577d996547ad6a3d85c0df762dd8a3d476e4da6adb377aa81af5b2411",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "d87aade2031adfb6b07ab08fd10065b8d3d91103f73f5384ac90e243bbe3c85b",
    ),
    ('compare', 'LV-ViT-S', 'FeFET'): (
        "1fe2b26327989dd043bddc2d6eeb7910ae2c3fa64f0767e733f7e11aac440e5f",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "f81b9a17bc1c22f9d8441b43fb951429be8dd38e4c9102640ca8f5a41d754437",
    ),
    ('compare', 'LV-ViT-S', 'SRAM'): (
        "546ce6674dee8934c770fa2b5281d95863e7c769f4e5c9700b1db6e05bedb249",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "8949fa1c9eb3b0ef5bc407cdefc754a47ae5d1ffb3088b6123364a2a41b45b05",
    ),
    ('compare', 'LV-ViT-S', 'hybrid'): (
        "735f1283ec2765b19e25609036bc389d813ec66a96b72c4cf06cbcd787fca587",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "7c726865e3bf25f580d1efe4fbb255971a303a3e2a3dcdc3aae80cdf53702197",
    ),
    ('compare', 'BERT-Base', 'FeFET'): (
        "7db69f7ff644477bd5e4fe58034b1727d9bbdcbce837c51e57c1bf1e2d7a7348",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "da6644c2cd0bf205f8a068477522b037d6c6789d5ae96269f15686e4f8e4d3c1",
    ),
    ('compare', 'BERT-Base', 'SRAM'): (
        "ec4b6385f8a367c938711d1265b7806bb0abdbd43376c690df42d20197dc481a",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "c5a2bf5f9ef6851b41724fda827cd4bf7c1eef68783db897f6b267d0a112325f",
    ),
    ('compare', 'BERT-Base', 'hybrid'): (
        "ac8aef521f1b0493d789cdc4f50d26b20c202c9d6dacaf007b72fac3a91f61fd",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "77663c89a342682fc8e52863481f1b4efdfba2ef34970225c7c495b1f6201d9e",
    ),
}


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def report_digests(command, model, device, out_dir, flags=()):
    argv = [command, "--model", model, "--device", device, "--name", "golden",
            "--out", str(out_dir), *flags]
    for target in TARGETS[(model, device)]:
        argv += ["--target-delay", target]
    assert main(argv) == 0
    return tuple(_digest(out_dir / f"golden{suffix}") for suffix in SUFFIXES)


CASES = [(command, model, device) for command in ("simulate", "compare")
         for model, device in TARGETS]


@pytest.mark.parametrize("command,model,device", CASES,
                         ids=["-".join(case) for case in CASES])
def test_reports_match_golden(command, model, device, tmp_path):
    assert report_digests(command, model, device, tmp_path) == \
        GOLDEN[(command, model, device)]


# (model, device) -> sha256 of (CSV, breakdown CSV, JSON) from ``compare``
# with two weight-sharing group sizes and two pruning ratios besides the
# pair's TARGETS, one case per model, each on a different device
TRANSFORM_FLAGS = ("--ws", "2", "--ws", "4", "--prune-ratio", "0.1", "--prune-ratio", "0.5")
TRANSFORM_GOLDEN = {
    ("DeiT-S", "SRAM"): (
        "a43f7cefcdc2bb918126d2a7878d0f2919831c85e4c58a4659a09e9bb0aa1f3c",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "c401d09b8940689d98d22594481ac6fefe5d9882d88f6f802810d72274986b39",
    ),
    ("LV-ViT-S", "hybrid"): (
        "e0ab89e54eb7e4d71604be70d6a04eb7691afd431c0187429ffa7eed234e9ce3",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "6f8642f5a12696f3cd5b88c7f39c8da363734e02d803d32e5fd2f4b8c5b9d236",
    ),
    ("BERT-Base", "FeFET"): (
        "db0ccb194ecb3a481f7f568f376806407ff285198049f2875d77984cc17074e3",
        "2fa2ee5457b2ba16a36e34356f99cc0aff605bfe8d71ba472d0ac517ac5746e3",
        "f7b2044930c269d7d9543f5ceeeb3e0ef44907cc88b99bb14aa1bf04096a60e4",
    ),
}


@pytest.mark.parametrize("model,device", list(TRANSFORM_GOLDEN),
                         ids=["-".join(case) for case in TRANSFORM_GOLDEN])
def test_compare_transforms_match_golden(model, device, tmp_path):
    """Weight sharing and token pruning beyond the default ws=2 and p=0.3."""
    assert report_digests("compare", model, device, tmp_path, TRANSFORM_FLAGS) == \
        TRANSFORM_GOLDEN[(model, device)]


FUNCSIM_FILES = ("output.xbt", "funcsim_summary.json")

# (device, extra funcsim flags) -> sha256 of FUNCSIM_FILES from
# ``funcsim --seed 0`` with those flags
FUNCSIM_GOLDEN = {
    ("FeFET", "--encoders 2"):
        ("59e20df44f9e686fcf8780bbaa31acf56288f1535d47f377d51a0cd545272e9c",
         "6175705f96c7d9c79dfbf29beaa948c12eb650c105ea2a6e36946c1fe27fa8ed"),
    ("hybrid", "--encoders 2"):
        ("6d587f205bb7afae7b9ce17dd8fdc5c680058b51cd540a695209cc5246a30728",
         "57061e9d36b7774d4ad1d77125cd2444d24687a48b53d28e68c9e9cf552313cb"),
    ("SRAM", "--encoders 2"):
        ("053233be5ef2bf2936be34ace4d3cfa1b1af6ff9c99fa63670d9e9b0ca34449e",
         "3caa429c3165dc12b4e243dee939eebf9cbf155712bd1a1f9dfbb4aa04be8a2e"),
    ("FeFET", "--encoders 4 --reuse 1,3"):
        ("fccdfb178228af2d31be153aeb37281eeaec4d53a981ed4f79b07c4f67917800",
         "66bc0126973cea91029627087b913d5946a7fb61d7e311a73d35250ae288b348"),
    ("SRAM", "--encoders 4 --reuse 1,3"):
        ("9b244407b4a64fd4c1b787650b6ed7ddc2f1aa7bbc9513540deea1c5cf4c1f2f",
         "0ac51ec01af0ad9545ac2490eeaac1ac62aa4b79b1df0d4351bd575912beeb4f"),
    ("hybrid", "--encoders 4 --reuse 1,3"):
        ("6b0760f3b806a50389cc12181afd06839d9853f93250a42bd1387344a44362fb",
         "3f9fc03bb831de11bf7d52e92a575c1eaf88f84f77d4ee1980f1d703f7d278f0"),
    ("FeFET", "--encoders 2 --adc-bits 8"):
        ("c4d9c7f4a3dedfaa7b3137b801598bddf6cad580ef849465fabab0bb2ff26db6",
         "df242f68c7448130a1c9bc8714fc4991950204ef817c03bee24546fec84a7f0d"),
    ("hybrid", "--encoders 2 --adc-bits 8"):
        ("2637a4ecaa354af76fbfa1e1fb49e6efd456944c084a843582a0640b53344f1f",
         "620b4c0a41d267f070f6af125973c18e34465cc778ce1b2883b869f3897c975e"),
    ("FeFET", "--encoders 2 --adc-bits 4 --no-noise"):
        ("df18d26aa0bbb4c79de787e6ce286d0057dbee0cdbed002e00ec3d39f7e4ae56",
         "91df3aae3e6a663118f150adee6509c73c36348c7cd6be907fb9ace0663be4e9"),
    ("SRAM", "--encoders 2 --adc-bits 4 --no-noise"):
        ("e3fd393594a976c98bb6694085e34b2d6966ca4932d1efb4ae266040f8daf773",
         "b6296002e7252e008f5ed96db7a5ac6df59050e58fc496e1bb58180fb32c059f"),
    ("hybrid", "--encoders 2 --adc-bits 4 --no-noise"):
        ("98e980dc924f9f27841872fea0bbcf2b2e0ebe9b1c8410782218faf6485e50a3",
         "7d5be0a6e3ac1fcef01b8742209c75d19a74341dc67d9e2c4978bd82d8b8b959"),
}


def _funcsim_id(case):
    """``device`` plus the flags past ``--encoders 2``, as in ``FeFET-adc-bits-8``."""
    device, flags = case
    if flags == "--encoders 4 --reuse 1,3":
        return f"{device}-reuse-1,3"
    extra = flags.removeprefix("--encoders 2").split()
    return "-".join([device, *(f.removeprefix("--") for f in extra)])


@pytest.mark.parametrize("case", list(FUNCSIM_GOLDEN), ids=_funcsim_id)
def test_funcsim_output_matches_golden(case, tmp_path):
    """The functional simulator's output, noise draws included.

    As with the reports, a change that is meant to alter these digests
    must say so where it is described.
    """
    device, flags = case
    assert main(["funcsim", *flags.split(), "--seed", "0", "--device", device,
                 "--out", str(tmp_path)]) == 0
    assert tuple(_digest(tmp_path / name) for name in FUNCSIM_FILES) == \
        FUNCSIM_GOLDEN[case]


# sha256 of optimize_patterns.json from ``optimize --model DeiT-S
# --device FeFET --target-delay 7``
OPTIMIZE_GOLDEN = "dc651e39da800d23950a96ca8059c0eefbb22bbc8c8ed23be58416b4c1ef02aa"


def test_optimize_patterns_match_golden(tmp_path):
    assert main(["optimize", "--model", "DeiT-S", "--device", "FeFET",
                 "--target-delay", "7", "--out", str(tmp_path)]) == 0
    assert _digest(tmp_path / "optimize_patterns.json") == OPTIMIZE_GOLDEN


# (model, device, target ms) -> the ten ranked lines ``optimize`` prints
# (family, label, score), and the sha256 of the optimize_patterns.json it
# writes. LV-ViT-S has 16 encoders and needs 9 reusers at 7 ms, so its
# scores each add up 9 penalties.
OPTIMIZE_RANKING_GOLDEN = {
    ("DeiT-S", "FeFET", "7"): (
        "dc651e39da800d23950a96ca8059c0eefbb22bbc8c8ed23be58416b4c1ef02aa",
        (
            "  pyramid      4+6+8+9+11           score=0.0468 <- selected",
            "  pyramid      6+8+9+10+11          score=0.0471",
            "  pyramid      5+8+9+10+11          score=0.0544",
            "  pyramid      5+7+8+9+11           score=0.0553",
            "  pyramid      4+8+9+10+11          score=0.0578",
            "  strided      3+5+7+9+11           score=0.0687",
            "  pyramid      5+7+8+9+10           score=0.0727",
            "  continuous   7+8+9+10+11          score=0.0751",
            "  pyramid      3+8+9+10+11          score=0.0753",
            "  pyramid      4+7+8+9+10           score=0.0761",
        ),
    ),
    ("LV-ViT-S", "hybrid", "7"): (
        "a2ee24b65976d555e42ead5553d0225cd8a93fbf497657f46d356c341c656987",
        (
            "  pyramid      4+6+8+9+10+11+12+13+15 score=0.0955 <- selected",
            "  pyramid      6+8+9+10+11+12+13+14+15 score=0.1026",
            "  pyramid      5+8+9+10+11+12+13+14+15 score=0.1098",
            "  pyramid      4+8+9+10+11+12+13+14+15 score=0.1132",
            "  pyramid      2+4+6+8+9+10+11+13+15 score=0.1228",
            "  pyramid      3+8+9+10+11+12+13+14+15 score=0.1308",
            "  pyramid      3+5+7+8+9+10+11+13+15 score=0.1328",
            "  pyramid      5+7+8+9+10+11+12+13+15 score=0.1360",
            "  pyramid      2+8+9+10+11+12+13+14+15 score=0.1453",
            "  pyramid      3+5+7+8+9+10+11+12+14 score=0.1535",
        ),
    ),
}


@pytest.mark.parametrize("case", list(OPTIMIZE_RANKING_GOLDEN),
                         ids=["-".join(case[:2]) for case in OPTIMIZE_RANKING_GOLDEN])
def test_optimize_ranking_matches_golden(case, tmp_path, capsys):
    """The printed top ten and the written ranking: family representative,
    label and score of each candidate."""
    model, device, target = case
    assert main(["optimize", "--model", model, "--device", device,
                 "--target-delay", target, "--out", str(tmp_path)]) == 0
    digest, top_ten = OPTIMIZE_RANKING_GOLDEN[case]
    assert tuple(capsys.readouterr().out.splitlines()[1:11]) == top_ten
    assert _digest(tmp_path / "optimize_patterns.json") == digest
