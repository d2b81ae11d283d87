"""Golden report set: pins every file of one small `crus run --save-models`.

The grid covers the plain samplers (none, rus, smote) and clustering_rus
with a fixed threshold and with reduction_fraction under the invert
policy, each with a tree and a bagging ensemble.  A change that moves any
output, in the cross-validated reports or in the refit model files, fails
here; record it in CHANGES.md together with the new digests.
"""

from __future__ import annotations

import hashlib

import yaml
from click.testing import CliRunner

from crus.cli import main
from crus.dataset import save_schema, write_csv
from crus.evaluation import SyntheticConfig, gen_synthetic

GRID = {
    "dataset": "data.csv",
    "schema": "data.schema.yaml",
    "k_folds": 3,
    "seed": 5,
    "metrics": ["g_mean", "op"],
    "samplers": [
        {"name": "none", "method": "none"},
        {"name": "rus", "method": "rus", "spread": 2.0},
        {"name": "smote", "method": "smote", "percentage": 100.0, "k_neighbors": 3},
        {"name": "crus", "method": "clustering_rus", "threshold": 3.0, "cluster_k": 2},
        {"name": "crus_inv", "method": "clustering_rus", "reduction_fraction": 0.2,
         "policy": "invert", "cluster_k": 2, "spread": 0.2},
    ],
    "classifiers": [
        {"name": "tree", "method": "tree"},
        {"name": "bag", "method": "bagging", "n_members": 3},
    ],
}

REPORT_SHA256 = {
    "cd_g_mean.svg": "5b517792022f92cd480abc1de835a17b38504660edd84a79f9e3c73e286a09e7",
    "cd_g_mean.txt": "f769daea807a156f3d877cc6748aeb8b3f015dc2a73d385bec8c5fb9e318eeca",
    "cd_op.svg": "00874fb9b015a4c4cf45e6d6f3311439858fd3e2f1236ec903ff825b1a122f25",
    "cd_op.txt": "d49c0ae6257cb3312d124a4334baf0c2732f6a38cbd25c51ce8c351d50ede180",
    "folds.csv": "fa4ed4fbaa868fccd801e4591f742eef3346d1f77f83e73401557c1130a69750",
    "loss.md": "a70dc0bdd1fa1cb9d46793cc45657421206872929e91c0af506feebb3e2bbfca",
    "loss_combined.csv": "692a7b06b0fa83a401940c17be84845dfd8b159162fe950746907bf5869d8581",
    "loss_g_mean.csv": "878d9444aa0f62f897cf96f156c032030ef85f918c0c29f4a891a99c144fc826",
    "loss_op.csv": "575186bf8897539d8c7ac32ea701c37ffdd76c1e81b9f1fe260e7436b37aa8fe",
    "manifest.yaml": "0d515f0dcedcac99a263b4b1e3561a968858536fed22920f411dd9650c0783ee",
    "models/crus+bag.cluster.json": "a1c0e74d183e597d7cc4f70449abf19d4f8eb4a17eb95c923c4ed1d01a98fc52",
    "models/crus+bag.high_IR_group.json": "fc5144804f6c9d9cd6de15467e13468cb5063d9bbcc46d7d91710e23cfb1e67f",
    "models/crus+bag.low_IR_group.json": "598ce3ed7a9f8891268331dc04f5d6a2c3c2794f59226f96980684c7a335e93f",
    "models/crus+tree.cluster.json": "a1c0e74d183e597d7cc4f70449abf19d4f8eb4a17eb95c923c4ed1d01a98fc52",
    "models/crus+tree.high_IR_group.json": "a03d3633545574201a9764d4e16d170d928e1007b64b760f96f972aa1dae193c",
    "models/crus+tree.low_IR_group.json": "1d7ebc431614f59b930ee58dd51bfcd29d8b46d953e65dfb899d72a882bdad15",
    "models/crus_inv+bag.cluster.json": "a1c0e74d183e597d7cc4f70449abf19d4f8eb4a17eb95c923c4ed1d01a98fc52",
    "models/crus_inv+bag.high_IR_group.json": "b200276c8b176467c80bb4944fd4cf7e98a59c971729effe2a2455a1eb61a6b3",
    "models/crus_inv+bag.low_IR_group.json": "e7ba7b3d4e6145e6f743435d6f132d9493a16359ee4d3b89da76e97d54ee776d",
    "models/crus_inv+tree.cluster.json": "a1c0e74d183e597d7cc4f70449abf19d4f8eb4a17eb95c923c4ed1d01a98fc52",
    "models/crus_inv+tree.high_IR_group.json": "fcbf59dd4205bc5774c21e98a153fe9d8781bed1718d870344ef00c3db9e58e9",
    "models/crus_inv+tree.low_IR_group.json": "bfb8cdb53464de3d83057c82d22a2da9ead21ff3c724c7e93829eb9332969958",
    "models/none+bag.json": "cd330b0402b201d9833df1405504c5e99d6399ab1ae920b73e951882feac5de9",
    "models/none+tree.json": "6fc1ad50114ca130383ba827ae53043cca3e83ef41436e6758cbe93f69729172",
    "models/rus+bag.json": "61f1f2c45c757f24f8936353e3b6c553478fff7ca62a870a2a0bbe7972feafec",
    "models/rus+tree.json": "9432c34a25495b6fbe5b4297e7f363f007b565dabd922501d3fed957e2bf1246",
    "models/smote+bag.json": "159a3eb032692b81347a3d4c461c86a9abe23a3cc35d0eab7e065cc10c2b261b",
    "models/smote+tree.json": "b8e517661c96ed990bc57af5ecd7a74af00bdb2c6356df96614be885487d9356",
    "pvalues_g_mean_holm.csv": "a14ce65258cf5070dde63c998fa1869e44896901f5403fe76cfb94a3c82d400d",
    "pvalues_g_mean_raw.csv": "345f92d7a933410fcacc715b51c528f38e8551b75a247198ba664631a40ebbe0",
    "pvalues_op_holm.csv": "a14ce65258cf5070dde63c998fa1869e44896901f5403fe76cfb94a3c82d400d",
    "pvalues_op_raw.csv": "3cce4b29374cc78749a068a6c2a24c2a7ae1ba133c2bc65c6919932ed8b55169",
    "stats_g_mean.txt": "5bcbc2ccb50abebc4742eedcf46e0fb71d728dd58ab76dc9001ca97926fe136a",
    "stats_op.txt": "bd62fe83e3c099a248b80b714e09a53f853383ab8b63f1bd28400dc4fc97c80d",
    "summary.csv": "7c2c9864a842a0a1a1f3efa36b103a6e9ee00224f1cbbb5b5633daccd45fb6c3",
    "table_crus.csv": "f135fce9601319c444d3734246c04db567ec05fe009b9a7fc00d1d5d18e71ea7",
    "table_crus_inv.csv": "fe45b0c13e33055dfc381131ed9bc4d5311b9bcdbec36b24f52d312268742310",
    "table_none.csv": "3c3e85a6e57c289d7da1f8200f266d574e6259c98d8aeabe8ad8f4a39024738d",
    "table_rus.csv": "8af679385b5f27c3f1797f6ee427a6023d226cbf88d77a2260efb8e0cac06018",
    "table_smote.csv": "e3f71c0ed7d1a9eeae9f705f1139d51f5cd0d392e0489a16d2ea15366bf1236b",
    "tpr_tnr.csv": "a82cae381125c31a585f43623ec3c190cb9685bdf9a1914d7853a4b5e58d5f94",
    "warnings.txt": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def test_report_set_matches_golden_digests(tmp_path):
    data = gen_synthetic(SyntheticConfig(blob_sizes=(60, 90), blob_irs=(2.0, 5.0), seed=3))
    write_csv(data.dataset, tmp_path / "data.csv")
    save_schema(data.dataset.schema, tmp_path / "data.schema.yaml")
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(GRID), encoding="utf-8")
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["run", "--config", str(tmp_path / "run.yaml"), "--out", str(out), "--save-models"]
    )
    assert result.exit_code == 0, result.output
    digests = {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    assert digests == REPORT_SHA256
