import json
import os

import pytest

from ntpg.errors import InvalidInput
from ntpg.fields import GF, QQ, field_from_json, field_to_json
from ntpg.graded import GradedSignature
from ntpg.groupoids import pair_groupoid
from ntpg.jsonio import (dump_group, dump_groupoid, dump_polymap,
                         dump_signature, load_group, load_groupoid,
                         load_polymap, load_signature)
from ntpg.named import quaternion_group
from test_cli_fuzz import EXAMPLES


def test_group_roundtrip():
    G = quaternion_group()
    G2 = load_group(dump_group(G))
    assert G2.table == G.table


def test_group_from_permutations():
    G = load_group({"permutations": [[1, 2, 3, 0]], "degree": 4})
    assert G.order == 4


def test_group_declared_order_checked():
    with pytest.raises(InvalidInput):
        load_group({"order": 3, "table": [[0, 1], [1, 0]]})


def test_groupoid_roundtrip():
    gpd = pair_groupoid(3)
    gpd2 = load_groupoid(dump_groupoid(gpd))
    assert gpd2.src == gpd.src and gpd2.mul == gpd.mul
    # mul is the products as a dict, keyed in index order whatever the
    # order of the input's listing
    with open(os.path.join(EXAMPLES, "s3_groupoid_action.json")) as fh:
        listed = json.load(fh)["groupoid"]
    pairs = [(g, h) for g, h, _ in listed["mul"]]
    assert pairs != sorted(pairs)
    gpd = load_groupoid(listed)
    assert gpd.mul == dict(gpd.products()) == \
        {(g, h): gh for g, h, gh in listed["mul"]}
    assert list(gpd.mul) == sorted(pairs)


def test_signature_roundtrip():
    for sig in (GradedSignature.simple([1, 0, 2], base=1),
                GradedSignature.double_vector(1, 2, 1)):
        assert load_signature(dump_signature(sig)) == sig


def test_polymap_roundtrip():
    sig = {"mode": "simple", "dims": [1, 1]}
    obj = {"field": "Q", "sig_in": sig, "sig_out": sig,
           "terms": [{"target": 0, "exponents": [1, 0], "num": "1"},
                     {"target": 1, "exponents": [0, 1], "num": "2",
                      "den": "3"},
                     {"target": 1, "exponents": [2, 0], "num": "-1"}]}
    pm, field = load_polymap(obj)
    assert field is QQ
    pm2, _ = load_polymap(dump_polymap(pm))
    assert pm2 == pm


def test_polymap_roundtrip_fp():
    sig = {"mode": "multi", "n": 2,
           "blocks": [{"sigma": [1, 0], "dim": 1},
                      {"sigma": [0, 1], "dim": 1},
                      {"sigma": [1, 1], "dim": 1}]}
    obj = {"field": {"Fp": 3}, "sig_in": sig, "sig_out": sig,
           "terms": [{"target": 0, "exponents": [1, 0, 0], "num": "2"},
                     {"target": 1, "exponents": [0, 1, 0], "num": "1"},
                     {"target": 2, "exponents": [0, 0, 1], "num": "4"}]}
    pm, field = load_polymap(obj)
    assert field == GF(3)
    pm2, _ = load_polymap(dump_polymap(pm))
    assert pm2 == pm


def test_field_json():
    assert field_to_json(field_from_json("Q")) == "Q"
    assert field_to_json(field_from_json({"Fp": 5})) == {"Fp": 5}
    with pytest.raises(InvalidInput):
        field_from_json({"Fp": 4})
