"""Reports pinned by sha256: any change to a report's bytes fails here.

Reports are byte-deterministic for a given configuration, so a refactor
that is meant to leave results alone must leave these hashes alone.
"""

import hashlib
import json

import pytest

from hallalg import groupoids as gpd
from hallalg.cli import main

Q2 = ["--q", "2", "--max-dim", "3"]
# the hall-identities benchmark config
D4_HALL = ["--quiver", "d4", "--q", "2", "--max-dim", "4"]

GOLDEN = [
    pytest.param(["tables", "--quiver", "a2"] + Q2,
                 "380ccd433866dedc374dc00a785ca05fd4057114f3cb5d98dd8f6a69b8d58d04",
                 id="tables-a2"),
    pytest.param(["tables", "--quiver", "a3-source"] + Q2,
                 "cc1cd6add44ad42cfa8d999fbc1a3735a2ee8261424ea1a0200ca2ba89d76d7c",
                 id="tables-a3-source"),
    pytest.param(["tables", "--quiver", "d4"] + Q2,
                 "169de74cd4f9de1205250679911025363577e8871bc18b004038cbc07d0f55cb",
                 id="tables-d4"),
    pytest.param(["tables", "--quiver", "a2", "--q", "3", "--max-dim", "3"],
                 "f665e0412a2693bf1bcc1d132a75a0e82c54e45de2acfe9a2e9bc359f41d99a7",
                 id="tables-a2-q3"),
    pytest.param(["verify", "antipode", "--quiver", "a2"] + Q2,
                 "67abc74330c9949695bce59ed73efb4076ce5f3b2d10e5805f640c65b09565f4",
                 id="verify-antipode-a2"),
    pytest.param(["verify", "spans", "--quiver", "a2"] + Q2,
                 "7372281646662760673f0d558ce30742635d32d27ebbd6629b825501d839f7a4",
                 id="verify-spans-a2"),
    pytest.param(["verify", "bilinearity", "--quiver", "a2"] + Q2,
                 "d964d43cca124ff9c043b07320012a4c09f7ea88a67b659b6d4605b372131e55",
                 id="verify-bilinearity-a2"),
    pytest.param(["verify", "coherence", "--quiver", "a2"] + Q2,
                 "080e708a6cdc35844e464ec7eeee4e18cf47f1cc3584663f600f3cc78807eb43",
                 id="verify-coherence-a2"),
    pytest.param(["verify", "bsim", "--quiver", "a2"] + Q2,
                 "da0c04edbae4b85ddb6e61e210fbde7690daca450af7320b105de437f0f43fe8",
                 id="verify-bsim-a2"),
    pytest.param(["verify", "ext", "--quiver", "a2"] + Q2,
                 "306fcd81b1bfd3a83fe108356eab7db1952471ab59fe6db8d32bd775b2d36a8d",
                 id="verify-ext-a2"),
    pytest.param(["verify", "riedtmann", "--quiver", "a2"] + Q2,
                 "28c8932ff7e3ab79c9d933fdf3317fc914bee73c79e3ee65e1bf35805b236862",
                 id="verify-riedtmann-a2"),
    pytest.param(["verify", "bilinearity", "--quiver", "a3-source"] + Q2,
                 "e9cb8b96c51c9b562b37def31b1c43f6fa5d63539f2629289dc4953418c2ac4d",
                 id="verify-bilinearity-a3-source"),
    pytest.param(["verify", "coherence", "--quiver", "a3-source"] + Q2,
                 "ad7ab4d622d106d5d93b593ae17b57ee52004d7cb3be0d560720bdc8d2a46836",
                 id="verify-coherence-a3-source"),
    pytest.param(["verify", "bsim", "--quiver", "a3-source"] + Q2,
                 "a202e808084bdee26665ef72af93a0037828b05a2279f804a431fbb177dcffdc",
                 id="verify-bsim-a3-source"),
    pytest.param(["verify", "spans", "--quiver", "a3-source"] + Q2,
                 "57b387ecbe98517b407110c234f9c1ecf3ed82889b138767e1604ddbeafbca8a",
                 id="verify-spans-a3-source"),
    pytest.param(["tables", "--quiver", "a3-source", "--q", "3", "--max-dim", "4"],
                 "9560c44be9eb3cb3d359db63f503fdae02a6fd378f0b0e3676e247a7ed3152c7",
                 id="tables-a3-source-q3"),
    pytest.param(["verify", "bilinearity", "--quiver", "a3-source", "--q", "3",
                  "--max-dim", "2"],
                 "e52fa0a8c6631f008a58fda4c6c69789fb109ff5d530d20e56ff0c8f73a45bf8",
                 id="verify-bilinearity-a3-source-q3"),
    pytest.param(["verify", "coherence", "--quiver", "a3-linear", "--q", "2",
                  "--max-dim", "2"],
                 "b4e75a77cc3d3239ffccb665ea726bd43b3227610030b385e69040a7aa303099",
                 id="verify-coherence-a3-linear"),
    pytest.param(["verify", "bilinearity", "--quiver", "a3-linear"] + Q2,
                 "76300d4ee0f849141b7754e5876b704c1ce76f6618231a723d0945fea68d4fbe",
                 id="verify-bilinearity-a3-linear"),
    pytest.param(["verify", "bsim", "--quiver", "d4", "--q", "2", "--max-dim", "2"],
                 "f21fcee64cb966128c71574d046423266d4cce9d605eb8979d5d0083dbbda504",
                 id="verify-bsim-d4"),
    pytest.param(["verify", "algebra", "--quiver", "a3-source"] + Q2,
                 "31b113b831fbdfc0cb72b2f8ce052e44f84dc3173131da548db4fd29aaf62e56",
                 id="verify-algebra-a3-source"),
    pytest.param(["verify", "algebra", "--quiver", "d4"] + Q2,
                 "439159f08b5b04eab07dd8c04d216c9da39a345ecd9d35fb3024283dc072ac7b",
                 id="verify-algebra-d4"),
    pytest.param(["verify", "green", "--quiver", "a3-source"] + Q2,
                 "de7ee2e1983d4eaa74e8b28163691b0469ef7b4cc86aa486f7012db6d134157f",
                 id="verify-green-a3-source"),
    pytest.param(["verify", "green", "--quiver", "d4"] + Q2,
                 "360d7fb397ec4d2131e8b7711c15d64b76c7a834b585c4943e79f3f171da7480",
                 id="verify-green-d4"),
    pytest.param(["verify", "bialgebra", "--quiver", "a3-source"] + Q2,
                 "fe195ebbf88219493904a33ecb35716ce0bc9120bf9f9438e717d333f270a4f2",
                 id="verify-bialgebra-a3-source"),
    pytest.param(["verify", "bialgebra", "--quiver", "d4"] + Q2,
                 "7e2c7534caf063b2f7d5301ca854ebf0db35ab409eda191f72848c09cf3a6ace",
                 id="verify-bialgebra-d4"),
    pytest.param(["verify", "hexagon", "--quiver", "a3-source"] + Q2,
                 "81b008851c358bcbe7c9cb0bf7ee956fe54d7d45bd4f3e2307afe64b8af95dd5",
                 id="verify-hexagon-a3-source"),
    pytest.param(["verify", "hexagon", "--quiver", "d4"] + Q2,
                 "9c52d02ca95cdc71d0d7cd55ed0d1383455911224d69105767c9d31a6f55f6ed",
                 id="verify-hexagon-d4"),
    pytest.param(["verify", "bilinearity", "--quiver", "d4"] + Q2,
                 "c15fea35370fbdcba191c52154fb648e7fd3e5a7922037ba123b0d854b64e68e",
                 id="verify-bilinearity-d4"),
    pytest.param(["verify", "coherence", "--quiver", "d4", "--q", "2", "--max-dim", "2"],
                 "2b6357815e8b8b30a865f5eba1a7925ef3ea1c74ed43b18e17e2e70c6f520e65",
                 id="verify-coherence-d4"),
    pytest.param(["verify", "bilinearity", "--quiver", "a2", "--q", "3", "--max-dim", "3"],
                 "966f25e4cbc5001202cb02eda4249e0970ca1554ee6876163fc2ebee20ef859b",
                 id="verify-bilinearity-a2-q3"),
    pytest.param(["tables", "--quiver", "a3-source", "--q", "3", "--max-dim", "5"],
                 "c812594bc1f5b1e4f745654ea039f111e400ad9dda4e2caf6cda1a5501932445",
                 id="tables-a3-source-q3-d5"),
    pytest.param(["tables", "--quiver", "d4", "--q", "2", "--max-dim", "4"],
                 "db6d0c929e33e67258e21057be5b5861ec477dd794b89e77e446e6317d710ce6",
                 id="tables-d4-d4"),
    pytest.param(["verify", "algebra"] + D4_HALL,
                 "0d594df9741e22de2cebb0f6fb551d5ed84402c9893bfe7a688aebd9dde3a305",
                 id="verify-algebra-d4-d4"),
    pytest.param(["verify", "green"] + D4_HALL,
                 "b551e77dc275ddb2bfe19e7f56449943e19972ba3ecc5bd2d969fe96c376bfb2",
                 id="verify-green-d4-d4"),
    pytest.param(["verify", "bialgebra"] + D4_HALL,
                 "cc5728558f0adb39e048b615fc39bbb8cd6e12933f11210fac440b6867c00f01",
                 id="verify-bialgebra-d4-d4"),
    pytest.param(["verify", "antipode"] + D4_HALL,
                 "f28356afa718997fd5c0f0c08802f1b5ea72db13dcc1ebb259414225029cc040",
                 id="verify-antipode-d4-d4"),
    pytest.param(["verify", "hexagon"] + D4_HALL,
                 "a122ca91fdf0525fcd34636ec1f9d2a2ec07b8f6f346bdcde156bb5890547863",
                 id="verify-hexagon-d4-d4"),
    pytest.param(["verify", "engine", "--seed", "0"],
                 "c793a66ccc093f79ca74f0aa6c08d4aa929aca82302342ffb86145881d8f0f67",
                 id="verify-engine-seed0"),
    pytest.param(["verify", "engine", "--seed", "1"],
                 "ba5992f96d2b489274906634360cbaa23a4f74feb01a78d1953178b415167b98",
                 id="verify-engine-seed1"),
    pytest.param(["verify", "engine", "--seed", "7"],
                 "d35dfa59620c02ce030c1302fa17d6a4360eff0a4c37653138b977666f73ed49",
                 id="verify-engine-seed7"),
]


@pytest.mark.parametrize("argv,sha", GOLDEN)
def test_report_bytes(tmp_path, argv, sha):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_sink_oriented_a3_tables_bytes(tmp_path):
    """Both arrows of this A3 point into the middle vertex, an arrow order no
    bundled quiver has; the report names the quiver after the file stem."""
    quiver = tmp_path / "a3sink.json"
    quiver.write_text('{"vertices": 3, "arrows": [[0, 1], [2, 1]]}')
    out = tmp_path / "report.json"
    assert main(["tables", "--quiver", str(quiver), "--q", "3", "--max-dim", "4",
                 "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "4177bfac1420b54efa8c3ef1cb3971a4a8b060f28aa28bf4854fa2df614b6e26")


def test_weak_pullback_export_bytes(tmp_path, capsys):
    """A pullback of two non-discrete seeded functors, exported with its full
    composition table: pins weak-pullback object and morphism order."""
    rg = gpd.RandomGroupoids(4)
    X, A, B = rg.groupoid(), rg.groupoid(), rg.groupoid()
    paths = []
    for name, fun in (("f", rg.functor_to(A, X)), ("g", rg.functor_to(B, X))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"source": gpd.groupoid_to_json(fun.source),
                                    "target": gpd.groupoid_to_json(fun.target),
                                    "objects": list(fun.obj_map),
                                    "morphisms": list(fun.mor_map)}))
        paths.append(str(path))
    out = tmp_path / "pullback.json"
    assert main(["groupoid", "pullback", *paths, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out) == \
        {"objects": 6, "morphisms": 108, "cardinality": "1/2"}
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "9995fe1c3ddaf33ae0fa3818aad8d6035fc6be2c5ab2109147bc4b06a258dae9")
