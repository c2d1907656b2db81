"""Reports pinned byte for byte.

The sha256 of each report below was recorded before the series storage
moved to flat integer coordinates; any change to a report fails here.  The
hashes of ``series`` at orders 8 and 512 were recorded while ``eta_squared``
and ``discriminant`` still took series powers of the Euler product.  The
det suite at order 96 and the scalar suite at order 256 are compared with
the benchmark's reference reports.  The ``analyze`` hashes were recorded
while ``RepSpec.u()`` still inverted rho(T) on every call; their inputs are
the defining representation (odd, rho(T) a Jordan block), a direct sum of
characters with entries of orders 1 and 12, and the seed-1 representations
of the benchmark's ``enumerate`` and ``cyclo-det`` workloads, built by
``perfbench/inputs.py``, which is loaded from its file and only read.
The ``analyze --enumerate`` hashes were recorded while the report built a
``WeightMultiset`` per candidate; they pin the benchmark-sized text report
(87,680 candidates), a JSON report, and the character direct sum over a
range with negative k, with a total weight that keeps 14 candidates and
with one that keeps none.  The ``series`` hashes of J and f:-8 at order
2048, whose Newton quotients and products run far above the two-point
threshold of ``exactfield._kronecker``, were recorded while every product
took the one-point route.  The ``sums`` and ``counting`` suite hashes and the
``verify det --order 8`` text report (the lowest order the CLI accepts) were
recorded while every case of the det and sums suites built its own
characters and shared forms.  The ``det`` hashes were recorded while the
weight-0 check ran a second cofactor expansion on the generators pushed to
weight 0; they pin the seed-1 ``cyclo-det`` files at the benchmark's order
and at the order floor, an odd direct sum (no weight-0 check) and an even
one with misdeclared weights (exit 1).
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from vvmf.cli import main
from vvmf.detlab import FormVector, generators_to_record
from vvmf.qseries import QSeries
from vvmf.replib import direct_sum, linear_character
from vvmf.scalarforms import eta_squared

SERIES_SHA256 = {
    ("E4", "json"): "3972c978f9b92ec9ce87df8d85786a03b4710bb366605724689c5611b00fa8ab",
    ("E4", "text"): "ed650dd7cad9d8964927d7a61a0fa468386ef15fe5b6caf581458b679374e550",
    ("E6", "json"): "346db7aa2f9fadac07194cc5b5da874e250e6047edb01fc981dd59834a178b93",
    ("E6", "text"): "e80faea244a60fe4312035938e7622a9aa768da909ca879d6f3ee0918b605b35",
    ("Delta", "json"): "2724fd2ce5e4e537da70f73b35021683b5918cc36964a9e76a01b5c64427b724",
    ("Delta", "text"): "c3635b7282a2d8f9256072be959a8dc589fe42ba35e3d27118397ea697ab6c17",
    ("J", "json"): "35b158e44ec0c34df0e3ffd1659be3e9224f5a0170d2fa99f49b0fdc1e8e10c4",
    ("J", "text"): "b9ffbfa5b6c598e588425603f4cdfe1738f7c9d7f7f34d1e6116d58e25490db7",
    ("delta", "json"): "d396ea317b3d368f848e0c88fbd00e1c18769f7a4bb5816e54b4f5a9364e5c82",
    ("delta", "text"): "81e0bbff23f7eced354d4eb46f29de894d0a013c3f89f1fffbcc98c32ee9667f",
    ("f:-8", "json"): "64255e5a3412a875e51965f3bd2c295519e64e5b3feac8211390ec134ef7f115",
    ("f:-8", "text"): "b1a0cf5ccd3f7642d0648e91a40365b86424aa75d54301f3f6ceb559c55e16ce",
    ("f:-3", "json"): "e43a7cf0c0a2374fbdd4b7be9ac514cf72dea899294fe2398a1ca90560f44973",
    ("f:-3", "text"): "31494b052612d979d03bccadcb8e3cec98d64600b9822b4e517cacbc28e4dcaa",
    ("f:1", "json"): "5756187a9277eb3e9bbb7b1fb1e74a06ff14dcfb1129d04e29fb7a68f07b5cab",
    ("f:1", "text"): "d2be330096d97fabdbde2166b2b5b48b75c3b0c3a9bf6e8a318a72df6e73f43d",
    ("f:5", "json"): "9ebd2985f732f4a3e09a5e42ff721e1b904cd396bf18fc6b5a1e99b206c32a83",
    ("f:5", "text"): "dca12ed360e59af29b56dcf3d6da58b6cc44b6f3d2dbecf479e938b1c30da654",
}

SERIES_AT_ORDER_SHA256 = {
    ("delta", 8, "json"): "026598a9a49ab60212a4d219330ed038c07ad108f4c22dafc9aa3de04de80c22",
    ("delta", 8, "text"): "b55c7ac5e5c0d7bbe3869f62cae94e5ebea51d95d11a5f6f0f4922942ce46f3b",
    ("delta", 512, "json"): "c5f777d80d9f1f1c16cbc3a2289a78a8c004f83edd27918b698f54498d8adaf4",
    ("delta", 512, "text"): "a32faa8711e03a09398f2686bdc50e6d220448c9ad86b3f7b9276490c58786a3",
    ("Delta", 8, "json"): "0ccedcba5c4bd38d1b58b97188cc71860801d8beb64e2320bbccdf04e4498783",
    ("Delta", 8, "text"): "12b444ded92424cbab3ec7ef67ee21ab131fb1a54dad16b8c128a801257068f1",
    ("Delta", 512, "json"): "e314405d777f777154b95fa2dd298bc665ff48f8a728298f2ba7dc726b50f6b0",
    ("Delta", 512, "text"): "4ef53a69d61dfbaaae404a082c821b7f227d7b299335eb2d14a6b5356354dcbd",
    ("f:-400", 8, "json"): "ea8a50586a1f94676ad4502b1b9e7f63609dfd0544a24ad50bf666d73234836b",
    ("f:-400", 8, "text"): "402d1030e3922320ae4767fab805f64081087e45aaef43644b550828306c18bc",
    ("f:-400", 512, "json"): "ec17bf6550b72ca85483174ac0177058d2d54b28e12c98fc9681094737fb307f",
    ("f:-400", 512, "text"): "84857b3f8ab9c8fb8e0d3510509ba655c06f859baab44b12bc4620eb8517fbc3",
    ("f:-40", 8, "json"): "b24c0bdb18fea686a9798864461c7b89030e73ec25f4f77b3c608dc95f2294ce",
    ("f:-40", 8, "text"): "18b8aae73c78d1162ddbba6ebe3a15bf2c669b65e0538f361e5f72993718acb0",
    ("f:-40", 512, "json"): "7b526bd6d1d2afb9b58154b5dcb5122a4be6865a39bd309ae0162bf1d782afa6",
    ("f:-40", 512, "text"): "523b49ac53e3b3f152e46e955ccb3daf4ff9216d5d7a43442470d6f649e1d105",
    ("f:5", 8, "json"): "bbf1708562cd7ed3d49e393f1ea8df0a725eab4b7c39a2969aee9a124c8d9888",
    ("f:5", 8, "text"): "da77b636cb29b65329edf19c1443efb983c26d1ef065d5e1ca69dee503d8af5c",
    ("f:5", 512, "json"): "f72ec0ec79b681d028d61c632ce3242da5e2942a091ea2e92ac2505451a208f5",
    ("f:5", 512, "text"): "2ced96052ec05f7acfdd3274506ee9e07d398930923dce86c45e04de87625744",
    ("J", 2048, "json"): "7f47ee3c510193052345d2451cf151d7cd3a54ee4073d5b6491dc28ad4f44630",
    ("J", 2048, "text"): "a38146cca9d7493adaae8f16196221658f646265d4c676d8cf223931a11df0b0",
    ("f:-8", 2048, "json"): "5311babcc1bd109b8e7859bdb9e765ec667b47c5f80f37d800965c9de0a0f250",
    ("f:-8", 2048, "text"): "b3e65dcafa0160e53b5f6215dbadde72744cfd3ab306b3fcd034d92b4cb091a4",
}

SUITE_JSON_SHA256 = {
    "scalar": "cf13a97d46d8bdffedbc5fa804fdc38dcf1282972886569a8d869853687913bb",
    "det": "2fd0150095a71f6d9fec1b65c780ca9c62c28ed05c6a9569768bd42e238577d6",
    "kappa": "f728d9c954ca1ad3f1d35df4678376a6aa8fbc6c0b5a47305b781306d9dca547",
    "sums": "30f7d6f7c57d0127bcbe3fb460d1d163d8db2a762e975d235caddbd9d76aa9fa",
    "counting": "9d5d2ea505abadc33434579a98e1f13847f9da9e6facd4dcac15bc02e3f41ed8",
}

DET_SUITE_ORDER_8_TEXT_SHA256 = "e76f36584344ead2e7ee3db3685121d2e419ddc9c6b815cebb1555a02456e80c"

ANALYZE_SHA256 = {
    ("defining", "json"): "cbbabdd0bee7403e7a57da378f24a3918ffaea239b60973b9e598459892593ce",
    ("defining", "text"): "8dbf11f8173cd1c97c3a79dc6278d5d44b676ad09079aa05b1b83c530bbac391",
    ("kappa-0-2-4", "json"): "9e26f06bc0470b73fac9c24ae51d46abd1a7d982661c35df13eb9d344d95ddeb",
    ("kappa-0-2-4", "text"): "6af1877d55d0e05d5f95e11791df22fc9deb3a61e69225b1901d536f17771bf1",
    ("enumerate-1", "json"): "bb934fd73b3347894cd163e32fa609cb766d5828b5aa80b5adaecd2647c2a938",
    ("enumerate-1", "text"): "c8a56f897107e1895f2413ccacd1199ffffe6f89c1a49affb79af26aa999ddf1",
    ("cyclo-det-1", "json"): "dee40ca6271fc897c7b51971a9d9de5821958512ed4ca8ac851147fefb9c93fb",
    ("cyclo-det-1", "text"): "3b90815f85247d3d74175dce3c9f1c9ac4dbe9e1363db8c728a4f5fc330c431e",
}

ENUMERATE_SHA256 = {
    ("enumerate-1", "--kmax 23", "text"):
        "96b8eb57698922e2a882c6e3f65184318709c70835a3c2cf8126a334f2b9ce9d",
    ("enumerate-1", "--kmax 11", "json"):
        "cc32e4214b3dd35b54aad1df99a4afc5084d6a7481b87257e08296e7166f1350",
    ("kappa-0-2-4", "--kmin -7 --kmax 9", "text"):
        "fb458acacb83d13c8ce3ac72b2605a1987aab3ab5936f281df4df81126aece44",
    ("kappa-0-2-4", "--kmin -7 --kmax 9", "json"):
        "bab68a186eec88d02a7d0a5dda0a09c069d53b15735e963ee5df26e9faa9990f",
    ("kappa-0-2-4", "--kmin -7 --kmax 9 --sum 18", "text"):
        "1e0fd8a83eeb7c3accfeda7c6cd44fc2ffdb57209ad39b78340e08d9a22a3110",
    ("kappa-0-2-4", "--kmin -7 --kmax 9 --sum 18", "json"):
        "405e4a95549f833abc8af930b8696bc101429edac1889dd3fec4b61ca78fe912",
    ("kappa-0-2-4", "--kmin -7 --kmax 9 --sum 8", "text"):
        "6f2c2e9115eb9fe37733cbb1b9b759cd6eb6ba9a788ab598ff993493f5519837",
    ("kappa-0-2-4", "--kmin -7 --kmax 9 --sum 8", "json"):
        "4b1a523d27ceb5dc15bc6b43f48f65cbca9419a8b863dcd7f84d7619a8247e52",
}

# (input name, order, format) -> (exit code, sha256 of the report)
DET_SHA256 = {
    ("cyclo-det-1", 32, "json"):
        (0, "df57daf7acaa12f617a2c74784868a98dbd46a61e3f71e73f587eabfc5b7199b"),
    ("cyclo-det-1", 32, "text"):
        (0, "352ab7ca9e9d3c7e10f6caf98090bb114380501961f9e612778847f1f491c49b"),
    ("cyclo-det-1", 8, "json"):
        (0, "df57daf7acaa12f617a2c74784868a98dbd46a61e3f71e73f587eabfc5b7199b"),
    ("cyclo-det-1", 8, "text"):
        (0, "352ab7ca9e9d3c7e10f6caf98090bb114380501961f9e612778847f1f491c49b"),
    ("odd-1-3", 24, "json"):
        (0, "1685b4fdd56700463eed52635c7525c89e9d3bf61d7dad67911407ff54e19e92"),
    ("odd-1-3", 24, "text"):
        (0, "125e0b88973b9ddb996e131afab1f29429018fe5e00f01115b7d7056b82d2cec"),
    ("misdeclared", 24, "json"):
        (1, "5050a4fabbd53c7f19c48ac15d252271fcf02b242f3e4c4b261c0decfece87a0"),
    ("misdeclared", 24, "text"):
        (1, "b98643f036e68be9b18c8f3ef02f572ad92f5613d90dc13536a9302fcb37229f"),
}

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "perfbench" / "inputs.py"
DET_SUITE_REFERENCE = ROOT / "perfbench" / "reference" / "det-suite.txt"
SCALAR_REFERENCE = ROOT / "perfbench" / "reference" / "scalar.txt"


def _report(argv, capsys) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rational_rows(rows) -> list:
    return [[{"order": 1, "coeffs": [str(v)]} for v in row] for row in rows]


def _analyze_input(name: str) -> dict:
    """The representation record behind each ``ANALYZE_SHA256`` key."""
    if name == "defining":
        return {"name": "defining", "S": _rational_rows([[0, -1], [1, 0]]),
                "T": _rational_rows([[1, 1], [0, 1]])}
    if name == "kappa-0-2-4":
        rep = direct_sum(direct_sum(linear_character(0), linear_character(2)),
                         linear_character(4))
        return rep.to_record()
    inputs = _perfbench_inputs()
    if name == "enumerate-1":
        return inputs.enumerate_input(1)
    return inputs.cyclo_det_inputs(1)[1]


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _det_input(name: str) -> tuple[dict, dict]:
    """The generators and representation records behind each ``DET_SHA256`` key."""
    if name == "cyclo-det-1":
        return _perfbench_inputs().cyclo_det_inputs(1)
    build = 60
    zero = QSeries.zero(12 * build, 12)
    if name == "odd-1-3":
        rep = direct_sum(linear_character(1), linear_character(3))
        gens = [FormVector.make(1, [eta_squared(build), zero]),
                FormVector.make(3, [zero, eta_squared(build) ** 3])]
    else:  # "misdeclared": kappa^2 (+) kappa^4 has weights 2 and 4, not 4 and 4
        rep = direct_sum(linear_character(2), linear_character(4))
        gens = [FormVector.make(4, [eta_squared(build) ** 2, zero]),
                FormVector.make(4, [zero, eta_squared(build) ** 4])]
    return generators_to_record(name, gens), rep.to_record()


@pytest.mark.parametrize("name, fmt", sorted(SERIES_SHA256))
def test_series_report_bytes(name, fmt, capsys):
    out = _report(["series", name, "--order", "64", "--format", fmt], capsys)
    assert _sha256(out) == SERIES_SHA256[name, fmt]


@pytest.mark.parametrize("name, order, fmt", sorted(SERIES_AT_ORDER_SHA256))
def test_series_report_bytes_at_order(name, order, fmt, capsys):
    out = _report(["series", name, "--order", str(order), "--format", fmt], capsys)
    assert _sha256(out) == SERIES_AT_ORDER_SHA256[name, order, fmt]


@pytest.mark.parametrize("suite", sorted(SUITE_JSON_SHA256))
def test_suite_json_report_bytes(suite, capsys):
    out = _report(["verify", suite, "--order", "32", "--format", "json"], capsys)
    assert _sha256(out) == SUITE_JSON_SHA256[suite]


def test_det_suite_text_report_bytes_at_the_order_floor(capsys):
    out = _report(["verify", "det", "--order", "8"], capsys)
    assert _sha256(out) == DET_SUITE_ORDER_8_TEXT_SHA256


def test_det_suite_matches_the_benchmark_reference(capsys):
    out = _report(["verify", "det", "--order", "96"], capsys)
    assert out == DET_SUITE_REFERENCE.read_text(encoding="utf-8")


def test_scalar_suite_matches_the_benchmark_reference(capsys):
    out = _report(["verify", "scalar", "--order", "256"], capsys)
    assert out == SCALAR_REFERENCE.read_text(encoding="utf-8")


@pytest.mark.parametrize("name, fmt", sorted(ANALYZE_SHA256))
def test_analyze_report_bytes(name, fmt, tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_analyze_input(name)), encoding="utf-8")
    out = _report(["analyze", str(path), "--format", fmt], capsys)
    if fmt == "text":
        assert ("warning: rho(T) is not semisimple" in out) is (name == "defining")
    assert _sha256(out) == ANALYZE_SHA256[name, fmt]


@pytest.mark.parametrize("name, extra, fmt", sorted(ENUMERATE_SHA256))
def test_analyze_enumerate_report_bytes(name, extra, fmt, tmp_path, capsys):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(_analyze_input(name)), encoding="utf-8")
    out = _report(["analyze", str(path), "--enumerate", *extra.split(), "--format", fmt], capsys)
    assert _sha256(out) == ENUMERATE_SHA256[name, extra, fmt]


@pytest.mark.parametrize("name, order, fmt", sorted(DET_SHA256))
def test_det_report_bytes(name, order, fmt, tmp_path, capsys):
    gens, rep = _det_input(name)
    (tmp_path / "gens.json").write_text(json.dumps(gens), encoding="utf-8")
    (tmp_path / "rep.json").write_text(json.dumps(rep), encoding="utf-8")
    code = main(["det", str(tmp_path / "gens.json"), str(tmp_path / "rep.json"),
                 "--order", str(order), "--format", fmt])
    out, err = capsys.readouterr()
    assert err == ""
    assert (code, _sha256(out)) == DET_SHA256[name, order, fmt]
