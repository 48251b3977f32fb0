"""Golden stdout of every CLI command, as SHA-256 digests.

Each case runs ``kohnert`` in process and digests its stdout; ``crystal``
cases with ``--dot`` and ``--json`` also digest the files they write, and
those without pin the counts that need no graph.  Any change
to a byte of output fails here.  After a deliberate output change, print the
new table with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import kohnert.crystal as crystal
import kohnert.tableaux as tableaux
from kohnert.cli import main
from kohnert.poly import polynomial

from golden import LOCK_1021

COMPOSITIONS = ("", "1,0,2,1", "0,2,3", "0,3,2", "1,0,3,0,3,2")
COUNTED_COMPOSITIONS = ("0,3,2", "1,0,3,0,3,2")  # crystal without files, too


def _cases():
    for comp in COMPOSITIONS:
        for kind in ("kkt", "lkt", "kd"):
            for fmt in ("ascii", "json"):
                yield ("enum", "--kind", kind, "--format", fmt, "--comp", comp)
        for kind in ("key", "lock"):
            for fmt in ("text", "json"):
                yield ("poly", "--kind", kind, "--format", fmt, "--comp", comp)
        for kind in ("key", "lock"):
            yield ("crystal", "--kind", kind, "--dot", "{dot}", "--json", "{json}", "--comp", comp)
            if comp in COUNTED_COMPOSITIONS:
                yield ("crystal", "--kind", kind, "--comp", comp)
        yield ("map", "--comp", comp)
        yield ("map", "--format", "json", "--comp", comp)
        yield ("map", "--all", "--format", "json", "--comp", comp)
        for fmt in ("ascii", "json"):
            yield ("map", "--all", "--trace", "--format", fmt, "--comp", comp)
    yield ("map", "--input", "{input}", "--comp", "1,0,2,1")
    yield ("verify", "--max-len", "3", "--max-part", "2")


CASES = tuple(_cases())


def case_id(case) -> str:
    return " ".join(arg or "''" for arg in case)


def digest(case, tmp: Path) -> str:
    files = {name: tmp / f"{name}.out" for name in ("dot", "json")}
    files["input"] = tmp / "input.json"
    files["input"].write_text(json.dumps(LOCK_1021["M"].to_json()))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main([arg.format(**files) for arg in case]) == 0
    h = hashlib.sha256(out.getvalue().encode())
    if "{dot}" in case:
        for name in ("dot", "json"):
            h.update(b"\0" + files[name].read_bytes())
    return h.hexdigest()


GOLDEN = {
    "enum --kind kkt --format ascii --comp ''": '37ae5433ccca719752271029f837b7d942fbda927e26c43b06592c42d6151ec3',
    "enum --kind kkt --format json --comp ''": 'a930ec39e7339fde7af6a7f1009d621c595aab52ec9324dde1e8387212ae64aa',
    "enum --kind lkt --format ascii --comp ''": '37ae5433ccca719752271029f837b7d942fbda927e26c43b06592c42d6151ec3',
    "enum --kind lkt --format json --comp ''": 'a930ec39e7339fde7af6a7f1009d621c595aab52ec9324dde1e8387212ae64aa',
    "enum --kind kd --format ascii --comp ''": '37ae5433ccca719752271029f837b7d942fbda927e26c43b06592c42d6151ec3',
    "enum --kind kd --format json --comp ''": 'a930ec39e7339fde7af6a7f1009d621c595aab52ec9324dde1e8387212ae64aa',
    "poly --kind key --format text --comp ''": '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865',
    "poly --kind key --format json --comp ''": 'aba57d78d426551c4678b11d3d574241ec72e31508e57f3d657435d119152f6f',
    "poly --kind lock --format text --comp ''": '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865',
    "poly --kind lock --format json --comp ''": 'aba57d78d426551c4678b11d3d574241ec72e31508e57f3d657435d119152f6f',
    "crystal --kind key --dot {dot} --json {json} --comp ''": 'a78850fcf3bae90a492803b800a133c19ac10f40753ccbf077675b72769e3374',
    "crystal --kind lock --dot {dot} --json {json} --comp ''": 'f61bee04f0f81aff9d34141117c8e008e0d9c2cba6f87a2a3828d9b106376a09',
    "map --comp ''": 'c3d74d47c52c01d1b20a2d5c4086a8513230741195550c829b7b8b871c2625f8',
    "map --format json --comp ''": '7305fb8d522219f31abf68fa09095dd19f53002dff0dfd46d80f0ed7f76c7ac3',
    "map --all --format json --comp ''": '7305fb8d522219f31abf68fa09095dd19f53002dff0dfd46d80f0ed7f76c7ac3',
    "map --all --trace --format ascii --comp ''": '66c7cf12dbcf4928bec636e4bf49410a0cd50fae023e13d7cb4ca37331c089c5',
    "map --all --trace --format json --comp ''": '4022245dd1533b28227d8dc825800c0ae79c27fa100176676886bcd37dfed1d9',
    'enum --kind kkt --format ascii --comp 1,0,2,1': 'a9bf69b4cefcad8b70218dc004c979bfa04bbc63468ecf3e149fcda3a22f8007',
    'enum --kind kkt --format json --comp 1,0,2,1': '444d42555799fd35391c9f16f9f7176373414eb1faa049d9826caa8ab3285227',
    'enum --kind lkt --format ascii --comp 1,0,2,1': '3fc4103f1802013f5f56ed08459c7c03b9a734b531c76b8f3742054b3fd4f4f2',
    'enum --kind lkt --format json --comp 1,0,2,1': '2311b0079c5d385d344bb5fd727ed04a136a69bf135fd7745fa7837ea1680d91',
    'enum --kind kd --format ascii --comp 1,0,2,1': '51d481bfa59490ff0a0f0e788b4aa0a95992023437df08a7bf0f008ad63f8748',
    'enum --kind kd --format json --comp 1,0,2,1': '47a52412cba626204b00517895baa2b567236e6dbf1cb555a08aea62807111bb',
    'poly --kind key --format text --comp 1,0,2,1': '7390cc9af1f25130e8dd19abfa807ad93690e0be1a7df4b530735d34b875fb4c',
    'poly --kind key --format json --comp 1,0,2,1': '6cd7fb25317261afee8f61a5f600ae7deed91a07763fe1abc3e91ab0bcf97f7d',
    'poly --kind lock --format text --comp 1,0,2,1': 'f025f40220e0626192d9320f97d2d4e126a46a048abba8ed5bf2e84c94c7bd1c',
    'poly --kind lock --format json --comp 1,0,2,1': '224158a95efe53ba88f0a7059e5c494534c742a24c628b3ea084657b62216a4c',
    'crystal --kind key --dot {dot} --json {json} --comp 1,0,2,1': '5252128c648a19414db816b6f911210926eef591a67837a25225598d39aa22e3',
    'crystal --kind lock --dot {dot} --json {json} --comp 1,0,2,1': '91ee831daec75fa33174cf9ce5e964de8f51afc940382fcc624f3c36151c7090',
    'map --comp 1,0,2,1': '8d6256354c67d9d0247b0d3b333ffe49ef6ac0ceb4ff20079599d66bc18b3776',
    'map --format json --comp 1,0,2,1': 'f92296216ccc3b4032efdfd1f4cf0e54b7e8cdc1681894da628ba005498171f7',
    'map --all --format json --comp 1,0,2,1': 'e85c8932f8c237f15697880154e0452bf95ef8aa4e205c824f101e32474e8a5c',
    'map --all --trace --format ascii --comp 1,0,2,1': '9934c4ae3e43a1a96156a9237867bd46ee782364e708346b58ad59f1d0c8b270',
    'map --all --trace --format json --comp 1,0,2,1': '4a32adb0f4dc295eaa4c6a50045f121a29ce1a27ffcaccbe31615db3c0c179f9',
    'enum --kind kkt --format ascii --comp 0,2,3': '0b2db1f1511472c24b6965d57fb1d118f48d8979766f39821c058d4f74c1658f',
    'enum --kind kkt --format json --comp 0,2,3': 'f32f8d3750da565bc0c30d70c4a26972ba5527585cb210531c2978ebd42008f2',
    'enum --kind lkt --format ascii --comp 0,2,3': 'e9c6b7cb5972967ccf33d436d2cd334933f307c405b2e098648d54c90252f907',
    'enum --kind lkt --format json --comp 0,2,3': '4d2c457eb958c559da457dc3caa398b1451114c146acb1b26c3ab920bce584c8',
    'enum --kind kd --format ascii --comp 0,2,3': 'af8409719a15d061d40da969e9edc05c2cfaf4dd0fc19f079348fa43cba98f19',
    'enum --kind kd --format json --comp 0,2,3': 'ad4baaf12ff2b8b2fbc2eb30f1574966a97050b5d83ffdca9621ca7a4e78b035',
    'poly --kind key --format text --comp 0,2,3': 'f5d80eeb1feb59facaaa195c78653067376901e0b02effb3b0fbb5975ad99267',
    'poly --kind key --format json --comp 0,2,3': 'bb0c086834bae6ec4682a76e27bf38be269190cbc06fe5fd0d817229b9450e31',
    'poly --kind lock --format text --comp 0,2,3': '780a91f0bfa22371810388ea384bec56a3daf7073d04c45f4e8a7cdc63216d5b',
    'poly --kind lock --format json --comp 0,2,3': 'aefbb188f7f18c8503812d9b2e454be1854f78634ba6d026f55cd72ac4418583',
    'crystal --kind key --dot {dot} --json {json} --comp 0,2,3': 'c170128e85b734210c759d3e6410e90b393972099543aac5043c8515aa6d3f63',
    'crystal --kind lock --dot {dot} --json {json} --comp 0,2,3': '510e01a92e16ba8fa3693a5bc46b1a95a96ce4ef3ed98d6439fead6916036d7f',
    'map --comp 0,2,3': '5e38b6a130437a3c9733cbe4468f024ef4f1d600d8a876de3caaf342b0999490',
    'map --format json --comp 0,2,3': '85363ccf43c17d633ee89913362f5e948f3197b73d2f35d5873aecff61a5f0b5',
    'map --all --format json --comp 0,2,3': '92a63115d1dfccba29a6522c180283d95de19bdc2f5c67ca44b5a78b11315f14',
    'map --all --trace --format ascii --comp 0,2,3': '1e957604763fca3e6aa0242eda4039ca55ffe70fa8e84c6a04b53622e37a2ac4',
    'map --all --trace --format json --comp 0,2,3': '0a2bac1c2966b8a9ac09a0df477e7ec529e491a429517bc98e81ced33f246b74',
    'enum --kind kkt --format ascii --comp 0,3,2': '0b5a790cc4e9f0ed2c5895322a6af9591e537490b26529cc50cb799324265eb4',
    'enum --kind kkt --format json --comp 0,3,2': 'e71e30f6ee80c7173c79e256d1f32061e391738412fb7832feb6ecadeb1552fd',
    'enum --kind lkt --format ascii --comp 0,3,2': '38750ec95e25503bf30a698c7c4357f142d27a954b78ede3a85ec38887547ddc',
    'enum --kind lkt --format json --comp 0,3,2': '28e0a201b75c7da0129727d820bee4f4f9307b2d8267e8c3fba98232e886776f',
    'enum --kind kd --format ascii --comp 0,3,2': '5994dc90c150201c8130b1904a581b8b17aca7fef288309984ed2809045b0ea4',
    'enum --kind kd --format json --comp 0,3,2': 'b4aa5fbdf037c0ed78663ce9cc77950e6bd9b64ca9bafb2484eb340c59e04b46',
    'poly --kind key --format text --comp 0,3,2': '59c894dbd7e745dd494d91b8005ea9984d96558d80f25c74197b154cb042f0b6',
    'poly --kind key --format json --comp 0,3,2': '3dca381e545a14636d9f8d56ec1c319fbed40fabddc3d29ebb534a80f56b4221',
    'poly --kind lock --format text --comp 0,3,2': '59c894dbd7e745dd494d91b8005ea9984d96558d80f25c74197b154cb042f0b6',
    'poly --kind lock --format json --comp 0,3,2': '3dca381e545a14636d9f8d56ec1c319fbed40fabddc3d29ebb534a80f56b4221',
    'crystal --kind key --dot {dot} --json {json} --comp 0,3,2': 'ebb790bc00aae4328e72a2812ad923d1f64298d9198bba93be3ec0e33a7b3c85',
    'crystal --kind key --comp 0,3,2': '068c00facc50bc926ce24dbe5eb56430c8dfac7917a1f4298f5a14c5cfff2106',
    'crystal --kind lock --dot {dot} --json {json} --comp 0,3,2': '2905b7fce0cd259d0e2537dcd8079c933f1a9e23416639fbc84a228ead1d9b15',
    'crystal --kind lock --comp 0,3,2': '068c00facc50bc926ce24dbe5eb56430c8dfac7917a1f4298f5a14c5cfff2106',
    'map --comp 0,3,2': '006b56e7e6da369ebd566f11daa63e9b881de2795df6e883c834c0bc1ce5122f',
    'map --format json --comp 0,3,2': '708c7325ab7a8e34b73ed63baf5248f533515d16d43cc4b316c86b1ae95d5721',
    'map --all --format json --comp 0,3,2': '48089a47f2ecfc713853c671705b6d66d300f8fb5653fa58b726cf7eba2df72d',
    'map --all --trace --format ascii --comp 0,3,2': '6e3169eeea7dca94fa882bbbae72b98e5647535a03ed12a85317a4df64ca5124',
    'map --all --trace --format json --comp 0,3,2': '02a02849bcd44b8432f88483443a77ef50840ba55c15899a5fe39babc28c85d2',
    'enum --kind kkt --format ascii --comp 1,0,3,0,3,2': '35326273a6e3ca9b4508efd69623f3e063097c17d8ae163ee5a22ad6ad833361',
    'enum --kind kkt --format json --comp 1,0,3,0,3,2': '819bcbb8e9ab096ef1b66dea2ae7ae8662be1118d3052d1521c61275991dccfd',
    'enum --kind lkt --format ascii --comp 1,0,3,0,3,2': '76a3d1987ba889c06c017420d03b8ea37977a88a2e65ce103a636f0d8c3436c3',
    'enum --kind lkt --format json --comp 1,0,3,0,3,2': '4514ebb12db5045dab391a03b09704d09406c3c4e1339682ecff263a789d75e7',
    'enum --kind kd --format ascii --comp 1,0,3,0,3,2': '9a88cea3a90e450de45398f59e0565fcc146c4a0002bae6ddfe0317e4a19ce04',
    'enum --kind kd --format json --comp 1,0,3,0,3,2': '3b1a34acc31f9decdfcb30d149d3807b3c3b0a1681df6024d7eccdbf78440cc4',
    'poly --kind key --format text --comp 1,0,3,0,3,2': '0ccacdf713215a879b3dd8a614a8e8b9b352d6d2a4170249be913bf1ef286949',
    'poly --kind key --format json --comp 1,0,3,0,3,2': '11ebf9060e8a5712137390f6a59854f08747952e4766675204c732022d1ffd81',
    'poly --kind lock --format text --comp 1,0,3,0,3,2': 'f4ae9c68a4dc07791416ca54b9a627ec36fcf836ceaf83072c5d757148cb4528',
    'poly --kind lock --format json --comp 1,0,3,0,3,2': '25c5b2e45b1e12e418de8d467a6eabff50fdbea6b3d92e682068a0f2b39e388d',
    'crystal --kind key --dot {dot} --json {json} --comp 1,0,3,0,3,2': '5c46439ed7a344fcad1561c6a40aa475315eced5d57ee281a9011bb13fafcc29',
    'crystal --kind key --comp 1,0,3,0,3,2': '91c8eecf2f91303137f8a6c7a6c86245d6e426dae1f3a800c4c33de352ebfceb',
    'crystal --kind lock --dot {dot} --json {json} --comp 1,0,3,0,3,2': 'babc6a198a296e7030c5e52e70affc72a58e674f0e24fc67d9af5cadde8bbecb',
    'crystal --kind lock --comp 1,0,3,0,3,2': 'a41557b85eae890b8c1f4a68e177c2858c140425e0dd138edbb4df8dfedc45d0',
    'map --comp 1,0,3,0,3,2': '4b7146e8d4875707bbfe556fcece33b9886119647a9ff2943035a6fb4322821c',
    'map --format json --comp 1,0,3,0,3,2': '13a5af5066f9520c3c304ec428bdfdd23953e29c51b5d8c989682d157c3aec2e',
    'map --all --format json --comp 1,0,3,0,3,2': 'a6b8bd727f10810eba33dc34c701f401d4758cdf75b1b94cb09a4193cfe290dc',
    'map --all --trace --format ascii --comp 1,0,3,0,3,2': '062c082a99018d80e430abd7c5a5bcb2b473ad1bf729ffdc90f2e5bcd2ad4d91',
    'map --all --trace --format json --comp 1,0,3,0,3,2': 'dfb5301defe923440e0fa1c4d60a421f254daca6fe7d8d2161009883d22daf97',
    'map --input {input} --comp 1,0,2,1': 'af099abdc71e14523604bbd380f4a6aeec52cad3b49f20d21ff21b865bbf22ed',
    'verify --max-len 3 --max-part 2': '720a894067af1a1258d9998db11b329576151c7d1928e2edb9e42fbc34bef337',
}


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_stdout_matches_golden_digest(case, tmp_path):
    assert digest(case, tmp_path) == GOLDEN[case_id(case)]


@pytest.mark.parametrize("case", [case for case in CASES if case[0] == "poly"], ids=case_id)
def test_poly_digest_holds_with_no_labeling(case, tmp_path, monkeypatch):
    """``poly`` applies Demazure operators for keys and counts closure
    weights for locks: with both labelings made to fail and no cached
    polynomial or enumeration to answer for them, its bytes hold."""

    def refuse(d, a):
        raise AssertionError(f"poly labeled {d.cells}")

    monkeypatch.setattr(tableaux, "label_key", refuse)
    monkeypatch.setattr(tableaux, "label_lock", refuse)
    polynomial.cache_clear()
    tableaux.enumerate_tableaux.cache_clear()
    assert digest(case, tmp_path) == GOLDEN[case_id(case)]


@pytest.mark.parametrize(
    "case", [case for case in CASES if case[:3] == ("crystal", "--kind", "lock") and len(case) == 5],
    ids=case_id,
)
def test_crystal_digest_holds_with_no_labeling(case, tmp_path, monkeypatch):
    """``crystal --kind lock`` without files counts the crystal on closure
    states: with lock labeling made to fail and no cached enumeration or
    crystal to answer for it, its bytes hold."""

    def refuse(d, a):
        raise AssertionError(f"crystal labeled {d.cells}")

    monkeypatch.setattr(tableaux, "label_lock", refuse)
    monkeypatch.setattr(crystal, "label_lock", refuse)
    tableaux.enumerate_tableaux.cache_clear()
    crystal.crystal_graph.cache_clear()
    assert digest(case, tmp_path) == GOLDEN[case_id(case)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print(f"    {case_id(case)!r}: {digest(case, Path(tmp))!r},")
